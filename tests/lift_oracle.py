"""Differential oracle for the order-3 table lift.

Every run builds each face map from the face itself (`faces.direct_images`).
A face map at order r should be the map of its cell's order-3 graph, renamed:
`lifted_images` renames a face into its cell's order-3 graph through the
cell's `cell_frame`, looks its map up in `tables.compute_order3_tables()` and
lifts it back.  `lift_differences` builds every map of a graph both ways, over
every (cell, face, u, v), checks each against the generic rule of
`conftest.reference_images` too, and names each map where any two differ.
`inverse_differences` checks that a face's map back is the inverse of its map
there, for every vertex pair of every face in every cell holding it.  Run as a
script over a range of orders from 3 (the lift needs four-class cells), for
every top-slice chord set, it runs both checks and exits 0 with no difference,
1 on any difference and 2 on a bad range (`conftest.run_oracle`):

    PYTHONPATH=src python3 tests/lift_oracle.py 6..9
"""
from __future__ import annotations

import sys
from itertools import combinations, permutations

from conftest import reference_images, run_oracle, top_slice_graphs
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


def lift_differences(cg: ConnectionGraph, store: tables.FaceTables) -> tuple[int, list[str]]:
    """How many maps were compared, and each one whose lift through `store` or whose generic rule
    (`reference_images`) differs from the direct build."""
    compared, out = 0, []
    for face in enumerate_faces(cg):
        cycle = tuple(map(vertex_id, face.cycle))
        for cell in cells_containing(cg, face):
            frame = cell_frame(cg, cell)
            for u, v in permutations(cycle, 2):
                direct = direct_images(cg.order, cg.connected, cell, cycle, u, v)
                lifted = lifted_images(store, cg.order, frame, cycle, u, v)
                reference = reference_images(cg.order, cg.connected, cell, cycle, u, v)
                compared += 1
                if not direct == lifted == reference:
                    where = f"order {cg.order} chords {sorted(cg.connected)} cell {sorted(cell)} {face.name}"
                    out.append(f"{where} {u}->{v}: direct {direct}, lifted {lifted}, reference {reference}")
    return compared, out


def inverse_differences(cg: ConnectionGraph) -> tuple[int, list[str]]:
    """How many (vertex pair, face through it, cell holding the face) triples were checked, and each one
    whose map back, `direct_images(..., b, a)`, is not the inverse of its map there, `direct_images(..., a, b)`:
    both must map as many labels, and each label's image must map back to it."""
    checked, out = 0, []
    for face in enumerate_faces(cg):
        cycle = tuple(map(vertex_id, face.cycle))
        for cell in cells_containing(cg, face):
            for a, b in combinations(cycle, 2):
                there = direct_images(cg.order, cg.connected, cell, cycle, a, b)
                back = direct_images(cg.order, cg.connected, cell, cycle, b, a)
                mapped = [c for c, t in enumerate(there) if t >= 0]
                checked += 1
                if len(mapped) != len(back) - back.count(-1) or any(back[there[c]] != c for c in mapped):
                    where = f"order {cg.order} chords {sorted(cg.connected)} cell {sorted(cell)} {face.name}"
                    out.append(f"{where} {a}<->{b}: there {there}, back {back}")
    return checked, out


DEFAULT, LOWEST = "6..9", 3


def sweep(lo: int, hi: int) -> tuple[dict[str, int], list[str]]:
    """Both checks on every top-slice graph of orders lo..hi."""
    store = tables.compute_order3_tables()
    compared, inverted, diffs = 0, 0, []
    for order in range(lo, hi + 1):
        for cg in top_slice_graphs(order):
            count, found = lift_differences(cg, store)
            pairs, unpaired = inverse_differences(cg)
            compared += count
            inverted += pairs
            diffs += found + unpaired
    return {"maps": compared, "inverse pairs": inverted}, diffs


def main(argv: list[str]) -> int:
    return run_oracle(argv, DEFAULT, LOWEST, sweep)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
