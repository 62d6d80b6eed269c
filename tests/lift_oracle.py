"""Differential oracle for the order-3 table lift.

From order 4 on, the search lifts each face map from the order-3 tables
(`faces.lifted_images`) instead of building it from the face itself
(`faces.direct_images`).  `lift_differences` builds every map of a graph both
ways, over every (cell, face, u, v), and names each map where the two differ.
The lift reads the shipped table file, so the direct builder at order r is
checked against data that no run of it at order 3 in this process produced.
Run as a script over a range of orders, for every top-slice chord set, it
exits 1 on any difference:

    PYTHONPATH=src python3 tests/lift_oracle.py 6..7
"""
from __future__ import annotations

import sys
import time
from itertools import permutations

from spinatlas import tables
from spinatlas.faces import cell_frame, cells_containing, direct_images, enumerate_faces, lifted_images, vertex_id
from spinatlas.graph import ConnectionGraph


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
    lo, _, hi = (argv[0] if argv else "6..7").partition("..")
    start = time.perf_counter()
    store = tables.load_tables(tables.shipped_tables_path())
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
