"""Per-vertex group computation and comparison with the closed-form prediction."""
from __future__ import annotations

import math
from collections import namedtuple

from . import groups, tables
from .chains import Carried, SpinChain, carry, close_out, label_positions, step_table
from .faces import face_map  # noqa: F401  (perfbench/probe.py traces classify.face_map)
from .graph import ConnectionGraph, Vertex, build_connection_graph
from .params import GraphClass
from .groups import GroupVerdict

DEFAULT_MAX_STEPS = 6
# the largest label set at the default maximum genus 12 has 12 points
DEFAULT_CLOSURE_CAP = math.factorial(12)


def predict_group(cg: ConnectionGraph, v: Vertex) -> GroupVerdict:
    """Closed-form verdict: trivial through order 1, the three-way split at order 2,
    and the full symmetric group on the label set from order 3 on."""
    r = cg.order
    if r <= 1:
        return groups.TRIVIAL
    if r == 2:
        chords = cg.connected
        if chords == frozenset({2}):
            return groups.C3 if v.cls == 2 else groups.TRIVIAL
        if chords == frozenset({1, 2}):
            return groups.symmetric(3) if v.cls in (1, 2) else groups.TRIVIAL
        if chords == frozenset({0, 1, 2}):
            return groups.symmetric(3)
        # no valid class produces other chord sets; fall back to triviality
        return groups.TRIVIAL
    return groups.symmetric(cg.epsilon_degree(v))


class SpinGroupResult(
    namedtuple("SpinGroupResult", "vertex verdict predicted order generators witnesses chains_tried")
):
    """The group found at one vertex: each kept generator with the chain that gave it, and the chains tried."""

    __slots__ = ()

    @property
    def match(self) -> bool:
        return self.verdict == self.predicted


_RESULT_CACHE: dict[tuple, SpinGroupResult] = {}


def clear_caches() -> None:
    """Drop every memoized result (group runs, face maps, face lists, step tables)."""
    from . import chains, faces, graph

    _RESULT_CACHE.clear()
    chains.step_table.cache_clear()
    faces._face_map_pairs.cache_clear()
    faces.enumerate_faces.cache_clear()
    faces.cells_of.cache_clear()
    graph.edge_multiplicities_r_le_2.cache_clear()


def _admissible_evaluations(cg: ConnectionGraph, start: Vertex, max_steps: int):
    """Yield (path, permutation) for every admissible chain at `start`, shortest first.

    A path is a tuple of (vertex id, choice index) steps through the graph's
    step table, whose `chain(start, path)` builds the chain.  Equivalent to
    evaluating the full chain stream, but a prefix whose carried label set has
    already lost an element (or, at order <= 2, mixed degrees) is dropped with
    all its extensions: those chains evaluate to the identity.
    """
    table = step_table(cg)
    pos = label_positions(cg, start)
    verts = table.vertices
    base = verts.index(start)
    walk = range(len(verts))
    if cg.order <= 2:
        walk = [k for k in walk if cg.epsilon_degree(verts[k]) == cg.epsilon_degree(start)]
    path: list[tuple[int, int]] = []

    def extend(a: int, carried: Carried | None, remaining: int):
        for b in (base,) if remaining == 1 else walk:
            if b == a:
                continue
            slots = table.entry(a, b)[1]
            for k, mapping in enumerate(slots):
                moved = carry(table.fill(a, b, k) if mapping is None else mapping, carried)
                if moved is None:
                    continue
                path.append((b, k))
                if remaining == 1:
                    yield tuple(path), close_out(pos, moved)
                else:
                    yield from extend(b, moved, remaining - 1)
                path.pop()

    for length in range(2, max_steps + 1):
        yield from extend(base, None, length)


def spin_group_at(
    cg: ConnectionGraph,
    v: Vertex,
    max_steps: int = DEFAULT_MAX_STEPS,
    closure_cap: int = DEFAULT_CLOSURE_CAP,
    exhaustive: bool = False,
) -> SpinGroupResult:
    """Sift the permutations of enumerated chains at v into one stabilizer chain.

    A permutation is kept as a generator, with its chain as witness, exactly
    when it is not yet in the group.  Stops once the group is the full
    symmetric group on the label set, which no chain can exceed, and, unless
    `exhaustive`, as soon as the prediction is reached.  So `exhaustive`
    consumes the whole chain budget only while the group is smaller than S_n.
    """
    key = (cg.order, cg.connected, v, max_steps, closure_cap, exhaustive)
    hit = _RESULT_CACHE.get(key)
    if hit is not None:
        return hit
    n = len(cg.label_classes(v))
    predicted = predict_group(cg, v)
    full_order = math.factorial(n)
    if full_order > closure_cap:
        raise groups.CapExceededError(f"label set of size {n} needs cap >= {full_order}")
    group = groups.StabChain(n)
    # every permutation sifted so far, each a member by now: most chains repeat
    # one of a few permutations, and a set lookup is cheaper than a sift
    seen: set[groups.Perm] = {groups.identity_perm(n)}
    gens: list[groups.Perm] = []
    witnesses: list[SpinChain] = []
    tried = 0
    for path, perm in _admissible_evaluations(cg, v, max_steps):
        tried += 1
        if perm in seen:
            continue
        seen.add(perm)
        if not group.add(perm):
            continue
        gens.append(perm)
        witnesses.append(step_table(cg).chain(v, path))
        order = group.order()
        if order == full_order or (not exhaustive and groups.recognize(order, n) == predicted):
            break
    order = group.order()
    result = SpinGroupResult(
        v, groups.recognize(order, n), predicted, order, tuple(gens), tuple(witnesses), tried
    )
    _RESULT_CACHE[key] = result
    return result


VertexRow = namedtuple("VertexRow", "vertex degree predicted computed match")


class ClassReport(namedtuple("ClassReport", "graph_class rows")):
    """One class's `VertexRow`s, a tuple in vertex order."""

    __slots__ = ()

    @property
    def match_all(self) -> bool:
        return all(row.match for row in self.rows)


def orbit_reduction_applies(cg: ConnectionGraph) -> bool:
    """Whether the graph's face maps are the program's own, which commute with its automorphisms.

    Maps are built directly up to order 3; from order 4 on they come from the
    active tables, and only the computed ones are known to be equivariant.
    """
    return cg.order <= 3 or tables.active_tables() is tables.computed_tables()


def verify_class(
    gc: GraphClass,
    max_steps: int = DEFAULT_MAX_STEPS,
    closure_cap: int = DEFAULT_CLOSURE_CAP,
    exhaustive: bool = False,
) -> ClassReport:
    """Compute and compare the group at every vertex of the class's connection graph.

    A valid class's chords are a top slice of the classes, so every class
    permutation keeping chorded with chorded (sides kept), and the conjugation
    swap, are automorphisms of its graph.  The face maps commute with them, so
    the chains at two vertices of one orbit correspond one to one and their
    groups are conjugate.  The orbits are the chorded and the unchorded
    vertices: when `orbit_reduction_applies`, the search runs once per orbit,
    at its first (untilded) vertex, and the rest of the orbit reuses that
    group.  Each row still gets its own prediction and comparison.
    """
    cg = build_connection_graph(gc)
    rows = []
    reduce = orbit_reduction_applies(cg)
    searched: dict[bool, SpinGroupResult] = {}
    for v in cg.vertices():
        orbit = v.cls in cg.connected
        res = searched.get(orbit) if reduce else None
        if res is None:
            # through the module global, so a wrapper installed on it sees every search
            res = searched[orbit] = spin_group_at(
                cg, v, max_steps=max_steps, closure_cap=closure_cap, exhaustive=exhaustive
            )
        predicted = predict_group(cg, v)
        ok = res.verdict == predicted
        if exhaustive:
            # over-generation guard: the computed group may never exceed the prediction
            ok = ok and res.order <= predicted.order
        rows.append(VertexRow(v, cg.epsilon_degree(v), predicted, res.verdict, ok))
    return ClassReport(gc, tuple(rows))
