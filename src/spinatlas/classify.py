"""Per-vertex group computation and comparison with the closed-form prediction."""
from __future__ import annotations

import math
from collections import namedtuple

from . import groups
from .chains import Carried, SpinChain, StepTable, carry, close_out, label_positions, visitable
from .faces import vertex_id
from .faces import face_map  # noqa: F401  (perfbench/probe.py traces classify.face_map)
from .graph import ConnectionGraph, Vertex, build_connection_graph
from .params import GraphClass
from .groups import GroupVerdict

DEFAULT_MAX_STEPS = 6


def predict_group(cg: ConnectionGraph, v: Vertex) -> GroupVerdict:
    """Closed-form verdict: trivial through order 1; at order 2 trivial at an unchorded vertex, and at
    a chorded one C3 when only class 2 is chorded, else S3 (ValueError for chords no class has);
    and the full symmetric group on the label set from order 3 on."""
    r = cg.order
    if r <= 1:
        return groups.TRIVIAL
    if r == 2:
        if cg.connected not in ({2}, {1, 2}, {0, 1, 2}):
            raise ValueError(f"no class has the order-2 chords {sorted(cg.connected)}")
        if v.cls not in cg.connected:
            return groups.TRIVIAL
        return groups.C3 if cg.connected == {2} else groups.symmetric(3)
    return groups.symmetric(cg.epsilon_degree(v))


class SpinGroupResult(namedtuple("SpinGroupResult", "graph vertex verdict distinct chains_tried")):
    """The group found at one vertex, with what its search met.

    `verdict` carries the group's order.  `distinct` holds each distinct
    permutation the search met, in search order, as (its chain's search path,
    permutation); `chains_tried` counts the chains the search tried.  The kept
    generators with their paths (`kept()`) are what sifting every new
    permutation into a stabilizer chain gives, stopping at the first full
    order: each read sifts `distinct` again.
    """

    __slots__ = ()

    def kept(self) -> tuple[tuple[tuple[tuple[int, int], ...], groups.Perm], ...]:
        """Each kept generator, with its chain's search path, from one sift of `distinct`."""
        return tuple(_sift(self.distinct, len(self.graph.label_classes(self.vertex)))[1])

    @property
    def witnesses(self) -> tuple[SpinChain, ...]:
        """Each kept generator's chain, built from its path when read."""
        table = StepTable(self.graph)
        return tuple(table.chain(self.vertex, path) for path, _ in self.kept())


def _sift(distinct, n: int):
    """The stabilizer chain of the permutations of `distinct` entries, sifted in order up to the first full
    order, and the entries kept, each not yet in the group of those before it."""
    chain = groups.StabChain(n)
    full_order = math.factorial(n)
    kept = []
    for entry in distinct:
        if chain.add(entry[1]):
            kept.append(entry)
            if chain.order() == full_order:
                break
    return chain, kept


def _at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"--{flag} must be >= {least}, got {value}")


class Engine:
    """One run's search settings, and the rows of each slice it computes.

    A bad setting raises ValueError here.  Each search reads `max_steps`
    from here and calls `spin_group_at` through this module's global, so a
    wrapper installed on it sees every search.  The command line builds one
    engine per run; `verify_class` given no engine makes its own, which it
    drops when it returns.
    """

    def __init__(self, max_steps=DEFAULT_MAX_STEPS):
        _at_least("max-steps", max_steps, 2)
        self.max_steps = max_steps
        # per slice (order, `GraphClass.connected_pairs`), the `VertexRow`s of `verify_class`
        self.rows: dict[tuple[int, range], tuple[VertexRow, ...]] = {}


def spin_group_at(
    cg: ConnectionGraph,
    v: Vertex,
    max_steps: int = DEFAULT_MAX_STEPS,
    table: StepTable | None = None,
) -> SpinGroupResult:
    """Search the chains at v until their permutations generate S_n on the label set, or up to `max_steps`.

    A `SymmetricCertificate` takes each new permutation, and the search stops
    once it has proved S_n, which no chain can exceed; otherwise it walks the
    whole chain budget.  A search that ends without a certificate sifts what it
    met into a stabilizer chain for the exact order.  The search walks
    `table`, the graph's step table (by default a new one), once, and skips
    each repeat of a walk state whose chains it has already walked, counting
    them as tried.  A vertex not in the graph, a step table of another graph,
    or `max_steps` below 2 raises ValueError.
    """
    _at_least("max-steps", max_steps, 2)
    if table is None:
        table = StepTable(cg)
    elif table.cg != cg:
        raise ValueError(f"a step table of {table.cg} cannot search {cg}")
    if v not in table.vertices:
        raise ValueError(f"{v} is not a vertex of {cg}")
    n = cg.epsilon_degree(v)
    certificate = groups.SymmetricCertificate(n)
    # every permutation met so far: most chains repeat one of a few permutations,
    # and a set lookup is cheaper than a sift
    seen: set[groups.Perm] = {groups.identity_perm(n)}
    distinct: list[tuple[tuple[tuple[int, int], ...], groups.Perm]] = []
    tried = 0

    # The walk, shortest chains first: a path is the list of (vertex id, choice index)
    # steps taken so far through the graph's step table, and the step table's `chain`
    # builds its chain.  A prefix whose carried label set has already lost an element
    # is dropped with all its extensions, and a step goes only to a `visitable` vertex:
    # those chains evaluate to the identity.  The last step back to the base closes
    # the carried labels straight to the chain's permutation (`close_out`).
    pos = label_positions(cg, v)
    base = vertex_id(v)
    targets = visitable(cg, v)
    path: list[tuple[int, int]] = []
    # The chains below a walk state (vertex, carried labels, steps left) depend only on
    # that state, so once its subtree is walked every permutation below it is in `seen`:
    # per finished state, the chains it held, which a repeat of the state adds to `tried`.
    walked: dict[tuple, int] = {}

    def extend(a: int, carried: Carried | None, remaining: int) -> bool:
        """Walk every chain from vertex a with `remaining` steps left; True once the search is decided."""
        nonlocal tried
        if remaining == 1:
            if a == base:
                return False
            for k, (_, mapping) in enumerate(table.steps(a, base)):
                perm = close_out(pos, mapping, carried, n)
                if perm is None:
                    continue
                tried += 1
                if perm not in seen:
                    seen.add(perm)
                    distinct.append(((*path, (base, k)), perm))
                    if certificate.add(perm):
                        return True
            return False
        for b in targets:
            if b == a:
                continue
            for k, (_, mapping) in enumerate(table.steps(a, b)):
                moved = carry(mapping, carried)
                if moved is None:
                    continue
                state = (b, moved, remaining - 1)
                below = walked.get(state)
                if below is not None:
                    tried += below
                    continue
                path.append((b, k))
                before = tried
                if extend(b, moved, remaining - 1):
                    return True
                walked[state] = tried - before
                path.pop()
        return False

    decided = any(extend(base, None, length) for length in range(2, max_steps + 1))
    # `extend` reaches itself through its closure, a reference cycle that would keep the walk's
    # memo, `seen` and the step table until the cyclic collector runs: break it now
    del extend
    # without a certificate the budget ran out: the exact group of every permutation met
    order = math.factorial(n) if decided else _sift(distinct, n)[0].order()
    return SpinGroupResult(cg, v, groups.recognize(order, n), tuple(distinct), tried)


VertexRow = namedtuple("VertexRow", "vertex degree predicted computed match")


def vertex_row(cg: ConnectionGraph, v: Vertex, computed: GroupVerdict) -> VertexRow:
    """The row of v given its computed verdict: its degree and prediction, and whether the two verdicts agree.

    A verdict carries its group's order, so an equal verdict also rules out over-generation.
    """
    predicted = predict_group(cg, v)
    return VertexRow(v, cg.epsilon_degree(v), predicted, computed, computed == predicted)


class ClassReport(namedtuple("ClassReport", "graph_class rows")):
    """One class's `VertexRow`s, a tuple in vertex order."""

    __slots__ = ()

    @property
    def match_all(self) -> bool:
        return all(row.match for row in self.rows)


def verify_class(gc: GraphClass, engine: Engine | None = None) -> ClassReport:
    """Compute and compare the group at every vertex of the class's connection graph.

    A valid class's chords are a top slice of the classes, so every class
    permutation keeping chorded with chorded (sides kept), and the conjugation
    swap, are automorphisms of its graph.  The face maps commute with them, so
    the chains at two vertices of one orbit correspond one to one and their
    groups are conjugate.  The orbits are the chorded and the unchorded
    vertices: the search runs once per orbit, at its `searched_vertices`, and
    the rest of the orbit reuses that group.  Each row still gets its own
    prediction and comparison.

    The rows depend only on the slice (order, chorded classes), which fixes the graph, and on the
    engine's search settings, so the engine keeps them per slice: a later class of the slice reuses
    them with no search and no graph.  A graph's step table lives only while its rows are made.
    """
    engine = engine or Engine()
    key = (gc.order, gc.connected_pairs)
    rows = engine.rows.get(key)
    if rows is None:
        rows = engine.rows[key] = _rows(build_connection_graph(gc), engine)
    return ClassReport(gc, rows)


def searched_vertices(cg: ConnectionGraph) -> tuple[Vertex, ...]:
    """The vertices `verify_class` searches, one per orbit, in vertex order: the first chorded and the first
    unchorded vertex, both untilded."""
    chorded = [c in cg.connected for c in cg.classes]
    return tuple(sorted(Vertex(chorded.index(kind), False) for kind in set(chorded)))


def _rows(cg: ConnectionGraph, engine: Engine):
    """The `VertexRow` of every vertex of the graph, in vertex order, with the group of its orbit's searched vertex."""
    table = StepTable(cg)
    verdicts = {
        v.cls in cg.connected: spin_group_at(cg, v, max_steps=engine.max_steps, table=table).verdict
        for v in searched_vertices(cg)
    }
    return tuple(vertex_row(cg, v, verdicts[v.cls in cg.connected]) for v in table.vertices)
