"""Per-vertex group computation and comparison with the closed-form prediction."""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator

from . import groups
from .chains import Carried, SpinChain, StepTable, carry, close_out, label_positions
from .faces import vertex_id
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


class SpinGroupResult(namedtuple("SpinGroupResult", "graph vertex verdict predicted order distinct chains_tried")):
    """The group found at one vertex, with what its search met.

    `distinct` holds each distinct permutation the search met, in search
    order, as (its chain's search path, permutation); `chains_tried` counts
    the chains the search tried.  The kept generators with their paths
    (`kept()`) are what sifting every new permutation into a stabilizer chain
    gives, stopping at the first full order: each read sifts `distinct` again.
    """

    __slots__ = ()

    @property
    def match(self) -> bool:
        return self.verdict == self.predicted

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
    """One run's search settings, and the rows of each graph it computes.

    A bad setting raises ValueError here, and every search goes through
    `search`.  The command line builds one engine per run; `verify_class`
    given no engine makes its own, which it drops when it returns.
    """

    def __init__(self, max_steps=DEFAULT_MAX_STEPS, closure_cap=DEFAULT_CLOSURE_CAP, exhaustive=False):
        _at_least("max-steps", max_steps, 2)
        _at_least("closure-cap", closure_cap, 1)
        self.max_steps, self.closure_cap, self.exhaustive = max_steps, closure_cap, exhaustive
        # per graph, the `VertexRow`s of `verify_class`
        self.rows: dict[ConnectionGraph, tuple[VertexRow, ...]] = {}

    def search(self, cg: ConnectionGraph, vertices, table: StepTable) -> Iterator[SpinGroupResult]:
        """Yield each vertex's search over the graph's step table, in order, once every label set's n! fits the cap."""
        for v in vertices:
            n = len(cg.label_classes(v))
            if math.factorial(n) > self.closure_cap:
                raise groups.CapExceededError(f"label set of size {n} needs cap >= {math.factorial(n)}")
        search = dict(max_steps=self.max_steps, exhaustive=self.exhaustive, table=table)
        # through the module global, so a wrapper installed on it sees every search
        yield from (spin_group_at(cg, v, **search) for v in vertices)


def spin_group_at(
    cg: ConnectionGraph,
    v: Vertex,
    max_steps: int = DEFAULT_MAX_STEPS,
    exhaustive: bool = False,
    table: StepTable | None = None,
) -> SpinGroupResult:
    """Search the chains at v until their permutations generate the predicted group.

    When the prediction is the full symmetric group S_n on the label set, a
    `SymmetricCertificate` decides, and the search stops once it has proved
    S_n, which no chain can exceed.  Otherwise each new permutation is sifted
    into one stabilizer chain, and the search stops once the group is S_n
    and, unless `exhaustive`, as soon as the prediction is reached.  So
    `exhaustive` consumes the whole chain budget only while the group is
    smaller than S_n.  A search that ends without a certificate sifts what it
    met into a stabilizer chain for the exact order.  The search walks
    `table`, the graph's step table (by default a new one), once, and skips
    each repeat of a walk state whose chains it has already walked, counting
    them as tried.  A vertex not in the graph, a step table of another graph,
    or `max_steps` below 2 raises ValueError.  No closure cap applies: a
    run's `Engine` checks it before its first search.
    """
    _at_least("max-steps", max_steps, 2)
    if v not in cg.vertices():
        raise ValueError(f"{v} is not a vertex of {cg}")
    if table is None:
        table = StepTable(cg)
    elif table.cg != cg:
        raise ValueError(f"a step table of {table.cg} cannot search {cg}")
    n = len(cg.label_classes(v))
    predicted = predict_group(cg, v)
    full_order = math.factorial(n)
    if predicted == groups.symmetric(n):
        certificate, group = groups.SymmetricCertificate(n), None
    else:
        certificate, group = None, groups.StabChain(n)
    # every permutation met so far: most chains repeat one of a few permutations,
    # and a set lookup is cheaper than a sift
    seen: set[groups.Perm] = {groups.identity_perm(n)}
    distinct: list[tuple[tuple[tuple[int, int], ...], groups.Perm]] = []
    tried = 0

    # The walk, shortest chains first: a path is the list of (vertex id, choice index)
    # steps taken so far through the graph's step table, and the step table's `chain`
    # builds its chain.  A prefix whose carried label set has already lost an element
    # (or, at order <= 2, mixed degrees) is dropped with all its extensions: those
    # chains evaluate to the identity.
    pos = label_positions(cg, v)
    base = vertex_id(v)
    targets = range(len(table.vertices))
    if cg.order <= 2:
        targets = [b for b in targets if cg.epsilon_degree(table.vertices[b]) == cg.epsilon_degree(v)]
    path: list[tuple[int, int]] = []
    # The chains below a walk state (vertex, carried labels, steps left) depend only on
    # that state, so once its subtree is walked every permutation below it is in `seen`:
    # per finished state, the chains it held, which a repeat of the state adds to `tried`.
    walked: dict[tuple, int] = {}

    def met(perm: groups.Perm) -> bool:
        """Take a closed chain's permutation; True once the search is decided."""
        nonlocal tried
        tried += 1
        if perm in seen:
            return False
        seen.add(perm)
        distinct.append((tuple(path), perm))
        if certificate is not None:
            return certificate.add(perm)
        if not group.add(perm):
            return False
        order = group.order()
        return order == full_order or (not exhaustive and groups.recognize(order, n) == predicted)

    def extend(a: int, carried: Carried | None, remaining: int) -> bool:
        """Walk every chain from vertex a with `remaining` steps left; True once the search is decided."""
        nonlocal tried
        for b in (base,) if remaining == 1 else targets:
            if b == a:
                continue
            for k, (_, mapping) in enumerate(table.steps(a, b)):
                moved = carry(mapping, carried)
                if moved is None:
                    continue
                path.append((b, k))
                if remaining == 1:
                    if met(close_out(pos, moved, n)):
                        return True
                else:
                    state = (b, moved, remaining - 1)
                    below = walked.get(state)
                    if below is not None:
                        tried += below
                    else:
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
    if decided and group is None:
        order = full_order
    else:
        # a stop on the stabilizer chain, or the budget ran out: the exact group of every permutation met
        order = (group or _sift(distinct, n)[0]).order()
    return SpinGroupResult(cg, v, groups.recognize(order, n), predicted, order, tuple(distinct), tried)


VertexRow = namedtuple("VertexRow", "vertex degree predicted computed match")


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
    vertices: the search runs once per orbit, at its first (untilded) vertex,
    and the rest of the orbit reuses that group.  Each row still gets its own
    prediction and comparison.

    The rows depend only on the graph and the engine's search settings, so the
    engine keeps them per graph, and every later class of that graph reuses
    them without a search.  The graph's step table lives only while its rows are made.
    """
    engine = engine or Engine()
    cg = build_connection_graph(gc)
    rows = engine.rows.get(cg)
    if rows is None:
        rows = engine.rows[cg] = _rows(cg, engine)
    return ClassReport(gc, rows)


def _rows(cg: ConnectionGraph, engine: Engine):
    """The `VertexRow` of every vertex of the graph, in vertex order."""
    firsts: dict[bool, Vertex] = {}
    # per vertex, the first vertex of its orbit, whose search gives its group
    source = {v: firsts.setdefault(v.cls in cg.connected, v) for v in cg.vertices()}
    verdicts = {res.vertex: res.verdict for res in engine.search(cg, firsts.values(), StepTable(cg))}
    rows = []
    for v, s in source.items():
        predicted = predict_group(cg, v)
        # a verdict carries its group's order, so an equal verdict also rules out over-generation
        rows.append(VertexRow(v, cg.epsilon_degree(v), predicted, verdicts[s], verdicts[s] == predicted))
    return tuple(rows)
