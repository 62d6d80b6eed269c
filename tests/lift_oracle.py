"""Differential oracle for the order-3 table lift.

Every run builds each face map from the face itself (`faces.direct_images`).
A face map at order r should be the map of its cell's order-3 graph, renamed:
`lifted_images` renames a face into its cell's order-3 graph through the
cell's `cell_frame`, looks its map up in `tables.compute_order3_tables()` and
lifts it back.  `lift_differences` builds every map of a graph both ways, over
every (cell, face, u, v), and names each map where the two differ.  Run as a
script over a range of orders, for every top-slice chord set, it exits 1 on
any difference:

    PYTHONPATH=src python3 tests/lift_oracle.py 6..9
"""
from __future__ import annotations

import sys
import time
from itertools import permutations

from spinatlas import tables
from spinatlas.faces import cells_containing, direct_images, enumerate_faces, vertex_id
from spinatlas.graph import ConnectionGraph

Frame = tuple[tuple[int, ...], frozenset[int], tuple[int, ...]]


def cell_frame(cg: ConnectionGraph, cell: frozenset[int]) -> Frame:
    """A cell's sorted classes, its order-3 chord pattern, and per vertex id of the graph
    its id in the cell's order-3 graph (-1 off the cell); parity is adjusted so sides carry over."""
    if len(cell) != 4 or not cell <= set(cg.classes):
        raise ValueError(f"not a cell of an order-{cg.order} graph: {sorted(cell)}")
    classes = tuple(sorted(cell))
    local = [-1] * (2 * cg.order + 2)
    for lc, c in enumerate(classes):
        for t in (0, 1):
            local[2 * c + t] = 2 * lc + (t ^ (c == 0) ^ (lc == 0))
    return classes, frozenset(lc for lc, c in enumerate(classes) if c in cg.connected), tuple(local)


def lifted_images(
    store: tables.FaceTables, order: int, frame: Frame, cycle: tuple[int, ...], u: int, v: int
) -> tuple[int, ...]:
    """The map of pair u -> v on a face of an order >= 4 graph, all by vertex id, as `direct_images` gives it:
    renamed into the cell's order-3 graph through its `cell_frame`, looked up in `store`, and lifted back."""
    classes, pattern, local = frame
    pairs = store.lookup(pattern, tuple(map(local.__getitem__, cycle)), local[u], local[v])
    images = list(range(order + 1))
    for c in classes:
        images[c] = -1
    for a, b in pairs:
        images[classes[a]] = classes[b]
    return tuple(images)


def top_slice_graphs(order: int) -> list[ConnectionGraph]:
    """The order-r graphs with chords on classes j..r, j <= r: the graphs of valid classes."""
    return [ConnectionGraph(order, frozenset(range(j, order + 1))) for j in range(order + 1)]


def lift_differences(cg: ConnectionGraph, store: tables.FaceTables) -> tuple[int, list[str]]:
    """How many maps were compared, and each one whose lift through `store` differs from the direct build."""
    compared, out = 0, []
    for face in enumerate_faces(cg):
        cycle = tuple(map(vertex_id, face.cycle))
        for cell in cells_containing(cg, face):
            frame = cell_frame(cg, cell)
            for u, v in permutations(cycle, 2):
                direct = direct_images(cg.order, cg.connected, cell, cycle, u, v)
                lifted = lifted_images(store, cg.order, frame, cycle, u, v)
                compared += 1
                if direct != lifted:
                    where = f"order {cg.order} chords {sorted(cg.connected)} cell {sorted(cell)} {face.name}"
                    out.append(f"{where} {u}->{v}: direct {direct}, lifted {lifted}")
    return compared, out


def main(argv: list[str]) -> int:
    lo, _, hi = (argv[0] if argv else "6..9").partition("..")
    start = time.perf_counter()
    store = tables.compute_order3_tables()
    compared, diffs = 0, []
    for order in range(int(lo), int(hi or lo) + 1):
        for cg in top_slice_graphs(order):
            count, found = lift_differences(cg, store)
            compared += count
            diffs += found
    for line in diffs:
        print(line)
    print(f"{compared} maps, {len(diffs)} differences, {time.perf_counter() - start:.1f} s")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
