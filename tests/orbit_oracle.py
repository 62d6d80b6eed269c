"""Oracles for the orbit reduction in `verify_class`.

`verify_class` searches one vertex per automorphism orbit and reuses that
group for the rest of the orbit.  `face_map_differences` checks the premise:
each face map of a graph's step table commutes with the graph's
automorphisms.  `own_searches` runs `spin_group_at` at every vertex, over one
step table of the graph.  `row_differences` checks the result: it names each
row whose prediction, verdict or match differs from that vertex's own search.
`walk_differences` checks each of those searches, which skip the walk states
they have already walked, against the reference walk of every chain
(`conftest.reference_search`).  The last three search at an `Engine`'s
settings, the two checks by default at a new one's; the two checks search
every vertex themselves unless given `own_searches`' result.  Run as
a script, it checks the rows and the searches of every vertex over a genus
range at the default search settings, with one search per vertex and one
engine whose closure cap is what the range's largest label set needs, and
exits 1 on any difference:

    PYTHONPATH=src python3 tests/orbit_oracle.py 10..12
"""
from __future__ import annotations

import math
import resource
import sys
import time
from itertools import permutations

from conftest import reference_search
from spinatlas.chains import StepTable
from spinatlas.classify import Engine, SpinGroupResult, spin_group_at, verify_class
from spinatlas.faces import Face, cells_containing, enumerate_faces, vertex_id
from spinatlas.graph import ConnectionGraph, Vertex, build_connection_graph
from spinatlas.params import GraphClass, enumerate_classes

# an automorphism as a class permutation and a conjugation bit
Automorphism = tuple[tuple[int, ...], int]
# one step table of a graph, and each vertex's own search over it
Searched = tuple[StepTable, dict[Vertex, SpinGroupResult]]


def generating_automorphisms(cg: ConnectionGraph) -> list[Automorphism]:
    """Each transposition of two adjacent classes of one kind (chorded or not), and the swap.

    For a top-slice chord set these generate every class permutation that keeps
    chorded with chorded, together with the conjugation swap.
    """
    out = []
    for c in range(cg.order):
        if (c in cg.connected) == (c + 1 in cg.connected):
            perm = list(cg.classes)
            perm[c], perm[c + 1] = c + 1, c
            out.append((tuple(perm), 0))
    out.append((tuple(cg.classes), 1))
    return out


def apply(sigma: Automorphism, v: Vertex) -> Vertex:
    """The image vertex; the tilde parity changes with class 0 so that sides are kept."""
    perm, swap = sigma
    return Vertex(perm[v.cls], v.tilded ^ (v.cls == 0) ^ (perm[v.cls] == 0) ^ bool(swap))


def step_map(table: StepTable, cell: frozenset[int], face: Face, u: Vertex, v: Vertex) -> dict[int, int]:
    """The map of u -> v on (cell, face) that the step table gives the search, as a dict over the classes at u."""
    mapping = dict(table.steps(vertex_id(u), vertex_id(v)))[cell, tuple(map(vertex_id, face.cycle))]
    return {c: t for c, t in enumerate(mapping) if t >= 0}


def face_map_differences(cg: ConnectionGraph) -> tuple[int, list[str]]:
    """How many face maps were compared, and each one that an automorphism does not carry
    to the face map at the image cell, face and vertex pair."""
    table = StepTable(cg)
    sigmas = generating_automorphisms(cg)
    compared, out = 0, []
    for face in enumerate_faces(cg):
        for cell in cells_containing(cg, face):
            for u, v in permutations(face.cycle, 2):
                mapping = step_map(table, cell, face, u, v)
                for sigma in sigmas:
                    perm = sigma[0]
                    image = step_map(
                        table,
                        frozenset(perm[c] for c in cell),
                        Face.from_cycle(tuple(apply(sigma, w) for w in face.cycle)),
                        apply(sigma, u),
                        apply(sigma, v),
                    )
                    compared += 1
                    if image != {perm[a]: perm[b] for a, b in mapping.items()}:
                        where = f"order {cg.order} chords {sorted(cg.connected)} {face.name}"
                        out.append(f"{where} {u.name}->{v.name} under {sigma}")
    return compared, out


def distinct_graph_classes(lo: int, hi: int) -> list[GraphClass]:
    """The first class of each distinct connection graph over genus lo..hi."""
    found: dict[tuple, GraphClass] = {}
    for genus in range(lo, hi + 1):
        for gc in enumerate_classes(genus):
            found.setdefault((gc.order, gc.connected_pairs), gc)
    return list(found.values())


def own_searches(gc: GraphClass, engine: Engine) -> Searched:
    """One step table of the class's graph, and each vertex's own search over it at the engine's settings."""
    cg = build_connection_graph(gc)
    table = StepTable(cg)
    search = dict(max_steps=engine.max_steps, exhaustive=engine.exhaustive, table=table)
    return table, {v: spin_group_at(cg, v, **search) for v in cg.vertices()}


def row_differences(gc: GraphClass, engine: Engine | None = None, searched: Searched | None = None) -> list[str]:
    """Each `verify_class` row whose prediction, verdict or match differs from its own vertex's search.

    `searched` is what `own_searches` gave for the same engine, or None to search here.
    """
    engine = engine or Engine()
    _, searches = searched or own_searches(gc, engine)
    out = []
    for row in verify_class(gc, engine=engine).rows:
        own = searches[row.vertex]
        match = own.match and (not engine.exhaustive or own.order <= own.predicted.order)
        if (row.predicted, row.computed, row.match) != (own.predicted, own.verdict, match):
            out.append(
                f"{gc.label()} genus {gc.genus} {row.vertex.name}: row {row.computed} match={row.match}, "
                f"own search {own.verdict} match={match}"
            )
    return out


def walk_differences(gc: GraphClass, engine: Engine | None = None, searched: Searched | None = None) -> list[str]:
    """Each vertex whose search's (chains_tried, distinct, order) differs from the reference walk's.

    `searched` is what `own_searches` gave for the same engine, or None to search here.
    """
    engine = engine or Engine()
    table, searches = searched or own_searches(gc, engine)
    out = []
    for v, own in searches.items():
        ref = reference_search(table.cg, v, max_steps=engine.max_steps, exhaustive=engine.exhaustive, table=table)
        if (own.chains_tried, own.distinct, own.order) != (ref.chains_tried, ref.distinct, ref.order):
            out.append(
                f"{gc.label()} genus {gc.genus} {v.name}: search tried {own.chains_tried}, {len(own.distinct)} "
                f"distinct, order {own.order}; reference walk {ref.chains_tried}, {len(ref.distinct)}, {ref.order}"
            )
    return out


def main(argv: list[str]) -> int:
    lo, _, hi = (argv[0] if argv else "10..12").partition("..")
    lo, hi = int(lo), int(hi or lo)
    start = time.perf_counter()
    classes = distinct_graph_classes(lo, hi)
    # a label set has at most genus points
    engine = Engine(closure_cap=math.factorial(hi))
    diffs = []
    for gc in classes:
        # one search per vertex feeds both comparisons
        searched = own_searches(gc, engine)
        for check in (row_differences, walk_differences):
            diffs += check(gc, engine=engine, searched=searched)
    for line in diffs:
        print(line)
    vertices = sum(2 * gc.order + 2 for gc in classes)
    took = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{len(classes)} graphs, {vertices} vertices, {len(diffs)} differences, {took:.1f} s, {peak:.0f} MB peak")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
