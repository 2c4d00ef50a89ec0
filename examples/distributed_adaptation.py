#!/usr/bin/env python
"""Distributed adaptation: parts refine coordinately across their boundaries.

The capability Section II-C's partition classification enables: mesh
modification on a *distributed* mesh.  Interior edges split locally; a
part-boundary edge is split by command of its owning part, so every copy
splits at the same snapped midpoint with the same new global vertex — the
mesh stays conforming across parts without ever assembling it in one place.

The demo distributes a box mesh, drives a shock right along a part
interface (the hard case), adapts in place, rebalances with ParMA, and
checkpoints the result.

Run:  python examples/distributed_adaptation.py  [--n 6] [--parts 4]
"""

import argparse
import tempfile

import numpy as np

from repro.core import ParMA
from repro.field import ShockPlaneSize
from repro.mesh import rect_tri
from repro.mesh.quality import measure
from repro.mesh.verify import verify
from repro.partition import adapt_distributed, distribute
from repro.partitioners import partition
from repro.store import SnapshotStore


def total_area(dm):
    return sum(measure(p.mesh, f) for p in dm for f in p.mesh.entities(2))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6)
    parser.add_argument("--parts", type=int, default=4)
    args = parser.parse_args()

    mesh = rect_tri(args.n)
    dm = distribute(mesh, partition(mesh, args.parts, method="rcb"))
    print(f"distributed: {dm}")

    # A shock along x = 1/parts — exactly on the first RCB interface.
    interface = 1.0 / args.parts if args.parts > 1 else 0.5
    shock = ShockPlaneSize(
        [1, 0], interface,
        h_fine=(1 / args.n) / 4, h_coarse=2 / args.n, width=0.6 / args.n,
    )
    stats = adapt_distributed(dm, shock, max_passes=6)
    print(stats.summary())
    dm.verify()
    for part in dm:
        verify(part.mesh, check_classification=False, check_volumes=True)
    print(f"conforming across parts: total area = {total_area(dm):.12f}")
    print(f"elements per part after adaptation: "
          f"{dm.entity_counts()[:, 2].tolist()}")

    balancer = ParMA(dm)
    before = balancer.imbalances()[2]
    balancer.rebalance_spikes("Face", tol=0.08)
    after = balancer.imbalances()[2]
    print(f"ParMA: Face imbalance {100 * (before - 1):.0f}% -> "
          f"{100 * (after - 1):.0f}%")
    print(f"elements per part after balancing:  "
          f"{dm.entity_counts()[:, 2].tolist()}")

    with tempfile.TemporaryDirectory() as ckpt:
        store = SnapshotStore(ckpt)
        store.save(dm)
        restored, _fields, _stats = store.load_at(model=mesh.model)
        restored.verify()
        # The restart is on the partition ParMA just paid for.
        saved = dm.entity_counts()[:, 2].tolist()
        assert restored.entity_counts()[:, 2].tolist() == saved, saved
        print(f"checkpoint round-trip verified "
              f"({sum(saved)} elements, per part {saved})")


if __name__ == "__main__":
    main()
