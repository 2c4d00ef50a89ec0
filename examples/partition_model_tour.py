#!/usr/bin/env python
"""A tour of the partition model, recreating Figs. 3 and 4 of the paper.

The paper illustrates its distributed-mesh concepts on a small 2D mesh
distributed to three parts (P0, P1, P2) where one vertex — M0_i — is shared
by all three parts and other boundary entities (like M0_j) by exactly two.
This script builds an equivalent situation, prints each concept next to the
paper's definition, and shows the derived partition model: partition faces
for part interiors, partition edges for pairwise boundaries, and the
partition vertex where all three parts meet (Fig. 4's P0_1).

Run:  python examples/partition_model_tour.py
"""

import numpy as np

from repro.mesh import rect_tri
from repro.parallel import MachineTopology
from repro.partition import build_partition_model, distribute


def main() -> None:
    # Three parts meeting at an interior point: split the unit square into
    # a left half and two right quadrants.
    mesh = rect_tri(4)
    assignment = []
    for element in mesh.entities(2):
        x, y, _z = mesh.centroid(element)
        if x < 0.5:
            assignment.append(0)
        elif y < 0.5:
            assignment.append(1)
        else:
            assignment.append(2)

    # Fig. 3 also distinguishes on-node and off-node boundaries: put P0 and
    # P1 on node i and P2 on node j, as in the paper's drawing.
    topo = MachineTopology(nodes=2, cores_per_node=2)
    dm = distribute(mesh, assignment, topology=topo)
    dm.verify()
    print("Fig. 3 — a 2D mesh distributed to three parts on two nodes")
    for part in dm:
        counts = part.entity_counts()
        print(f"  P{part.pid} (node {topo.node_of(part.pid)}): "
              f"{counts[2]} faces, {counts[1]} edges, {counts[0]} verts, "
              f"{len(np.unique(part.links(0)[0]))} shared verts")

    # Residence parts: "the residence part of M0_i is {P0, P1, P2}".
    part0 = dm.part(0)
    tri_shared = [
        v for v in part0.shared_entities(0) if len(part0.residence(v)) == 3
    ]
    pair_shared = [
        v for v in part0.shared_entities(0) if len(part0.residence(v)) == 2
    ]
    m0i = tri_shared[0]
    m0j = pair_shared[0]
    print(f"\nresidence parts (Section II-B):")
    print(f"  M0_i = {m0i} at {part0.mesh.coords(m0i)[:2]}: "
          f"residence {part0.residence(m0i)}  (the three-part vertex)")
    print(f"  M0_j = {m0j} at {part0.mesh.coords(m0j)[:2]}: "
          f"residence {part0.residence(m0j)}")

    # Ownership: "one part is designated as owning part and the owning part
    # imbues the right to modify the part boundary entity".
    print(f"\nownership: owner of M0_i is P{part0.owner(m0i)}; "
          f"P0 {'owns' if part0.owns(m0i) else 'does not own'} it")

    # Fig. 4 — the partition model.
    pmodel = build_partition_model(dm)
    print(f"\nFig. 4 — partition model: {pmodel}")
    for pent in pmodel.entities():
        kind = {2: "partition face", 1: "partition edge",
                0: "partition vertex"}[pent.dim]
        print(f"  {pent}  ({kind}, residence {list(pent.residence)}, "
              f"owner P{pent.owner})")

    print("\npartition classification (Section II-C):")
    print(f"  M0_i classifies on {pmodel.classification(0, m0i)} "
          f"(the partition vertex, as in the paper)")
    print(f"  M0_j classifies on {pmodel.classification(0, m0j)} "
          f"(a partition edge)")
    interior = next(
        e for e in part0.mesh.entities(2) if not part0.is_shared(e)
    )
    print(f"  an interior face classifies on "
          f"{pmodel.classification(0, interior)} (a partition face)")

    # On-node vs off-node boundaries (Fig. 3's dashed vs solid lines).
    on = off = 0
    for d in range(3):
        for other in part0.links(d)[1].tolist():
            if topo.same_node(0, other):
                on += 1
            else:
                off += 1
    print(f"\nP0's boundary links: {on} on-node (dashed in Fig. 3, shared "
          f"memory), {off} off-node (solid, distributed memory)")


if __name__ == "__main__":
    main()
