"""The distributed mesh: parts linked by remote copies over a BSP network.

PUMI "supports a topological representation of the distributed mesh and
efficient distributed manipulation functions through the use of partition
model" (paper, Section II).  :class:`DistributedMesh` is that representation:
``N`` :class:`~repro.partition.part.Part` objects (each a serial mesh plus
remote-copy links), a message network classified by machine topology, and
global-id allocation for entities created during modification.

All distributed operations (migration, ghosting, synchronization, ParMA) are
bulk-synchronous: parts compute locally and post messages, one ``exchange``
delivers them.  This file holds the container and its integrity checks;
the operations live in sibling modules.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..gmodel.model import Model
from ..mesh.core import VERT_WIDTH
from ..mesh.entity import Ent
from ..obs.tracer import Tracer, current as current_tracer
from ..parallel.network import Network
from ..parallel.perf import PerfCounters, GLOBAL
from ..parallel.routing import BufferedRouter
from ..parallel.topology import MachineTopology, flat
from .halo import HaloPlan
from .links import answer_columns, link_answers, surface_ids
from .part import Part


class DistributedMesh:
    """A mesh distributed to N parts (optionally mapped onto a machine)."""

    def __init__(
        self,
        nparts: int,
        model: Optional[Model] = None,
        topology: Optional[MachineTopology] = None,
        counters: Optional[PerfCounters] = None,
        sanitize: Optional[bool] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if nparts < 1:
            raise ValueError(f"need at least one part, got {nparts}")
        self.model = model
        #: Alias-sanitizer mode for the part network (None = REPRO_SANITIZE).
        self.sanitize = sanitize
        #: Observability hook (:class:`~repro.obs.Tracer`): the part
        #: network charges each superstep's traffic to it and the
        #: distributed services open spans on it.  ``None`` resolves to the
        #: installed default tracer (normally also ``None``); assign at any
        #: time — :meth:`router` re-propagates it to the cached network.
        self.tracer = tracer if tracer is not None else current_tracer()
        #: Fault-injection hook (:class:`~repro.resilience.FaultInjector`):
        #: when assigned, the part network routes every post/exchange
        #: through it (message drop/duplicate/corrupt/delay, scheduled rank
        #: crashes).  Assign at any time — :meth:`router` re-propagates it
        #: to the cached network, like :attr:`tracer`.
        self.fault_injector = None
        self._auto_topology = topology is None
        self.topology = topology if topology is not None else flat(nparts)
        self.counters = counters if counters is not None else GLOBAL
        self.parts: List[Part] = [Part(pid) for pid in range(nparts)]
        for part in self.parts:
            part.mesh.model = model
        # Central gid allocation: one counter per dimension, of which only
        # the vertex and element ones move (edges and faces are identified
        # by their sorted vertex gids); all four are kept so manifests stay
        # four entries long.  A real MPI implementation hands each part a
        # strided id range; in this single-process simulation a shared
        # counter gives the same uniqueness guarantee deterministically.
        self._gid_next = [0, 0, 0, 0]
        self._network: Optional[Network] = None
        #: The halo plans of one link state: ``(links_version, {dim: plan})``.
        self._halo: Tuple[Tuple[int, ...], Dict[int, HaloPlan]] = ((), {})

    # -- parts ------------------------------------------------------------

    @property
    def nparts(self) -> int:
        return len(self.parts)

    def part(self, pid: int) -> Part:
        if not 0 <= pid < self.nparts:
            raise ValueError(f"part id {pid} out of range [0, {self.nparts})")
        return self.parts[pid]

    def __iter__(self) -> Iterator[Part]:
        return iter(self.parts)

    def add_part(self) -> Part:
        """Append a new empty part (multiple-parts-per-process support)."""
        part = Part(self.nparts)
        part.mesh.model = self.model
        self.parts.append(part)
        if self._auto_topology:
            self.topology = flat(self.nparts)
        elif self.topology.total_cores < self.nparts:
            raise ValueError(
                "machine topology has no processing unit for the new part"
            )
        self._network = None  # force rebuild at next exchange
        return part

    # -- link state ----------------------------------------------------------

    @property
    def links_version(self) -> Tuple[int, ...]:
        """The link state: every part's ``links_version``, in part order (a
        new part lengthens it, so ``add_part`` changes it too)."""
        return tuple(part.links_version for part in self.parts)

    def halo_plan(self, dim: int) -> HaloPlan:
        """The owner↔copy graph of dimension ``dim`` under the current links.

        Built from the parts' link columns on first use and kept until
        :attr:`links_version` moves: set once, then communicated over by
        every ``synchronize``/``accumulate`` until the links change.
        """
        version = self.links_version
        if self._halo[0] != version:
            self._halo = (version, {})
        plans = self._halo[1]
        plan = plans.get(dim)
        if plan is None:
            plan = plans[dim] = HaloPlan(self, dim)
        return plan

    # -- communication -----------------------------------------------------

    def router(self) -> BufferedRouter:
        """A coalescing router over the (lazily rebuilt) part network."""
        if self._network is None or self._network.nparts != self.nparts:
            self._network = Network(
                self.nparts,
                topology=self.topology,
                counters=self.counters,
                sanitize=self.sanitize,
                tracer=self.tracer,
                fault_injector=self.fault_injector,
            )
        else:
            # The tracer / fault-injector attributes may have been
            # (re)assigned since the network was built; keep it pointing
            # at the current ones.
            self._network.tracer = self.tracer
            self._network.fault_injector = self.fault_injector
        return BufferedRouter(self._network)

    # -- global ids ---------------------------------------------------------

    def alloc_gids(self, dim: int, n: int) -> np.ndarray:
        """``n`` fresh, never-used global ids for dimension ``dim``."""
        start = self._gid_next[dim]
        self._gid_next[dim] += n
        return np.arange(start, start + n, dtype=np.int64)

    def alloc_gid(self, dim: int) -> int:
        """A fresh, never-used global id for dimension ``dim``."""
        return int(self.alloc_gids(dim, 1)[0])

    def note_gid(self, dim: int, gid: int) -> None:
        """Record an externally assigned gid so alloc never collides."""
        if gid >= self._gid_next[dim]:
            self._gid_next[dim] = gid + 1

    # -- accounting -----------------------------------------------------------

    def element_dim(self) -> int:
        """Highest entity dimension present on any part."""
        return max((part.mesh.dim() for part in self.parts), default=0)

    def entity_counts(self) -> np.ndarray:
        """Per-part live non-ghost entity counts, shape ``(nparts, 4)``.

        This is the load metric the paper balances: part-boundary entities
        are counted on every part holding them (as in PHASTA dof balance).
        """
        return np.asarray([part.entity_counts() for part in self.parts])

    def owned_counts(self) -> np.ndarray:
        """Per-part owned entity counts (each entity counted exactly once)."""
        return np.asarray(
            [[part.owned_count(d) for d in range(4)] for part in self.parts]
        )

    def total_owned(self, dim: int) -> int:
        return int(self.owned_counts()[:, dim].sum())

    def shared_entity_count(self, dim: Optional[int] = None) -> int:
        """Total part-boundary entity copies across all parts."""
        dims = range(4) if dim is None else (dim,)
        return sum(
            len(np.unique(part.links(d)[0])) for part in self.parts for d in dims
        )

    def neighbor_map(self, dim: Optional[int] = None) -> Dict[int, Set[int]]:
        """Part adjacency graph: pid -> neighboring pids (sharing ``dim``)."""
        return {part.pid: part.neighbors(dim) for part in self.parts}

    # -- integrity ---------------------------------------------------------------

    def verify(self) -> None:
        """Check every distributed-representation invariant; raise on failure.

        * each part's serial mesh is valid,
        * remote-copy links are symmetric and connect entities of one
          dimension with equal keys (sorted vertex gids),
        * links are complete: every non-ghost identity held by two or more
          parts is linked among all its holders,
        * the parts close up: on a 3-D mesh with a model, every face that
          bounds one non-ghost element of its part and has no remote copy
          is classified on the model boundary (otherwise it is a crack),
        * ghosts mirror a live entity on their home part.
        """
        from ..mesh.verify import verify as verify_mesh

        for part in self.parts:
            if part.mesh.count(0):
                verify_mesh(part.mesh, allow_dangling=part.has_ghosts(),
                            check_classification=False)
        for d in range(4):
            self._verify_links(d)
            for part in self.parts:  # ghosts: one alive gather per home part
                ghosts = part.ghost_ids(d)
                home, handle = part.homes(d, ghosts)
                dead = ~part.mesh.core.alive_at(d, ghosts)
                lost = np.zeros_like(dead)
                for pid in np.unique(home[handle >= 0]).tolist():
                    at = (home == pid) & (handle >= 0)
                    lost[at] = ~self.part(pid).mesh.core.alive_at(d, handle[at])
                for k in np.flatnonzero(dead | lost)[:1].tolist():
                    ghost = Ent(d, int(ghosts[k]))
                    raise AssertionError(
                        f"part {part.pid}: dead ghost {ghost}" if dead[k] else
                        f"part {part.pid}: ghost {ghost} home entity is dead"
                    )
        self._verify_links_complete()
        self._verify_no_cracks()

    def _verify_links(self, d: int) -> None:
        """Liveness, identity and symmetry of every dim-``d`` link: one
        sort-join of all parts' ``(pid, id, rpid, rid)`` rows against their
        reverse."""
        pid, ids, rpid, rid = (np.concatenate(cols) for cols in zip(*(
            (np.full(len(part.links(d)[0]), part.pid), *part.links(d))
            for part in self.parts
        )))
        sides = [(pid == part.pid, rpid == part.pid, part) for part in self.parts]

        def check(bad: np.ndarray, why: str, keys=None) -> None:
            for k in np.flatnonzero(bad)[:1]:
                a, b = ([tuple(g for g in row[k].tolist() if g >= 0)
                         for row in keys] if keys else (None, None))
                raise AssertionError(why.format(
                    p=pid[k], e=Ent(d, int(ids[k])),
                    q=rpid[k], f=Ent(d, int(rid[k])), a=a, b=b,
                ))

        alive, remote_alive = np.zeros((2, len(ids)), dtype=bool)
        for here, there, part in sides:
            alive[here] = part.mesh.core.alive_at(d, ids[here])
            remote_alive[there] = part.mesh.core.alive_at(d, rid[there])
        check(~alive, "part {p}: remote link from dead entity {e}")
        check(pid == rpid, "part {p}: self remote link on {e}")
        check(~remote_alive, "part {p}: {e} links to dead {f} on part {q}")
        keys, remote_keys = np.zeros((2, len(ids), VERT_WIDTH[d]), dtype=np.int64)
        for here, there, part in sides:
            keys[here] = part.entity_keys(d, ids[here])
            remote_keys[there] = part.entity_keys(d, rid[there])
        check(
            (keys != remote_keys).any(axis=1),
            "identity mismatch: part {p} {e} (key {a}) vs part {q} {f} (key {b})",
            keys=(keys, remote_keys),
        )
        # Each end as a dense code; a row is reciprocated when the pair of
        # its codes, swapped, is a row too.
        span = int(max(ids.max(initial=0), rid.max(initial=0))) + 1
        codes, ends = np.unique(
            np.concatenate((pid * span + ids, rpid * span + rid)),
            return_inverse=True,
        )
        n, near, far = len(codes), ends[: len(ids)], ends[len(ids):]
        check(
            ~np.isin(far * n + near, near * n + far),
            "asymmetric remote link: part {p} {e} -> part {q} {f} not reciprocated",
        )

    def _verify_links_complete(self) -> None:
        """Every identity on two or more part surfaces is linked among all
        its holders — the links a from-scratch rebuild would derive exist."""
        surfaces = [surface_ids(part) for part in self.parts]
        for d in range(self.element_dim()):
            held = [
                (part, ids[d]) for part, ids in zip(self.parts, surfaces)
                if d < len(ids) and len(ids[d])
            ]
            if len(held) < 2:
                continue
            idx = np.concatenate([ids for _part, ids in held])
            dest, lengths, flat = link_answers(
                np.full(len(idx), d),
                np.concatenate([part.entity_keys(d, ids) for part, ids in held]),
                np.concatenate([np.full(len(ids), part.pid) for part, ids in held]),
                idx,
            )
            # (pid, handle, rpid, rid) rows, derived and held, one code each.
            want = np.column_stack((np.repeat(dest, (lengths - 2) // 2),
                                    *answer_columns(lengths, flat)[1:]))
            have = np.concatenate([np.column_stack(
                (np.full(len(part.links(d)[0]), part.pid), *part.links(d))
            ) for part in self.parts])
            span = 1 + int(max(rows[:, 1::2].max(initial=0) for rows in (want, have)))
            radix = (self.nparts, span, self.nparts, span)
            codes = [np.ravel_multi_index(rows.T, radix) for rows in (want, have)]
            key = [code // (self.nparts * span) for code in codes]  # (pid, handle)
            have_codes = codes[1][np.isin(key[1], key[0])]  # of the derived keys
            for code in np.setxor1d(codes[0], have_codes)[:1].tolist():
                pid, handle = np.unravel_index(code, radix)[:2]
                named, linked = (
                    side[(side[:, 0] == pid) & (side[:, 1] == handle), 2:].tolist()
                    for side in (want, have)
                )
                raise AssertionError(
                    f"incomplete remote links: part {pid} {Ent(d, handle)} is held by "
                    f"(part, handle) {named} but links {linked}"
                )

    def _verify_no_cracks(self) -> None:
        """Every unlinked part-surface face of a 3-D mesh with a model is
        classified below dimension 3."""
        if self.element_dim() != 3:
            return
        for part in self.parts:
            mesh = part.mesh
            if mesh.model is None or mesh.dim() != 3:
                continue
            faces = np.setdiff1d(
                surface_ids(part)[2],
                np.union1d(part.links(2)[0], part.ghost_ids(2)),
            )
            codes, table = mesh.core.gclass[2][faces], mesh.class_pairs()
            coded = (codes >= -1) & (codes < len(table))
            dims = np.append(table[:, 0], 3)[np.where(coded, codes, -1)]
            for k in np.flatnonzero(~coded | (dims >= 3))[:1].tolist():
                face = Ent(2, int(faces[k]))
                raise AssertionError(
                    f"part {part.pid}: {face} bounds one element but is neither "
                    f"linked nor on the model boundary (a crack)" if coded[k] else
                    f"part {part.pid}: {face}: unknown classification code {codes[k]}"
                )

    def __repr__(self) -> str:
        counts = self.entity_counts().sum(axis=0)
        return (
            f"DistributedMesh({self.nparts} parts, "
            f"verts={counts[0]}, edges={counts[1]}, faces={counts[2]}, "
            f"regions={counts[3]})"
        )
