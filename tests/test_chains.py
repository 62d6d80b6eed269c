"""Chain structure, admissibility, evaluation, and enumeration."""
from __future__ import annotations

import itertools
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BASIC3_FACES,
    CELL2,
    CELL3,
    CHORD3_FACES,
    F,
    G1,
    G2,
    P,
    P1,
    P1t,
    P2,
    P2t,
    P3,
    P3t,
    P4,
    P4t,
    Pt,
    admissible_evaluations,
    build_face_map,
    conjugate_face,
    enumerate_chains,
    is_basic,
    mk_chain,
    reversed_chain,
    spy,
    top_slice_graphs,
)
from spinatlas.chains import ChainStructureError, SpinChain, StepTable, carry, close_out, evaluate, is_admissible
from spinatlas.chains import label_positions, validate_structure, visitable
from spinatlas.classify import searched_vertices
from spinatlas.faces import Face, enumerate_faces, vertex_id
from spinatlas.graph import ConnectionGraph
from spinatlas.groups import compose, identity_perm

# ---------------------------------------------------------------- structure

ONE_CHORD, HEXAGON_FACE, DIAGONAL_FACE = ConnectionGraph(2, {2}), F(P, P1, P2t, P2), F(P, Pt, P2t, P1)
OTHER_FACE, WIDE_FACE = F(P, P1, P1t, P2), F(P, P2, P4t, P4)  # a face of the two-chord graph only; classes {0, 2, 4}

# each chain `validate_structure` refuses, with its error's code and message; the diagonal chain is the one it takes
STRUCTURE_CASES = {
    "open": (ONE_CHORD, mk_chain(P2, (CELL2, HEXAGON_FACE, P2t)), "LoopNotClosed", "loop does not return to P2"),
    "off-face": (ONE_CHORD, mk_chain(P2, (CELL2, HEXAGON_FACE, P1t), (CELL2, HEXAGON_FACE, P2)),
                 "StepNotOnFace", "step 0: P2->P1~ does not lie on face P-P1-P2~-P2"),
    "other-graph": (ONE_CHORD, mk_chain(P, (CELL2, OTHER_FACE, P1), (CELL2, OTHER_FACE, P)),
                    "StepNotOnFace", "step 0: P-P1-P1~-P2 is not a face of the graph"),
    # a first step along a 4-cycle that is no canonical face of the graph
    **{name: (ONE_CHORD, mk_chain(P2, (CELL2, Face(cycle), P2t), (CELL2, conjugate_face(HEXAGON_FACE), P2)),
              "StepNotOnFace", f"step 0: {text} is not a face of the graph")
       for name, cycle, text in (
           ("rotated", (P1, P2t, P2, P), "P1-P2~-P2-P"),
           ("reflected", (P, P2, P2t, P1), "P-P2-P2~-P1"),
           ("missing-chord", (P, P1, P1t, P2), "P-P1-P1~-P2"),
           ("missing-vertex", (P, P1, P2t, P3), "P-P1-P2~-P3"),
           ("repeated", (P, P1, P, P1), "P-P1-P-P1"),
       )},
    "outside-cell": (ConnectionGraph(4, {4}), mk_chain(P, (G2, WIDE_FACE, P4), (G1, WIDE_FACE, P)),
                     "FaceNotInCell", "step 0: face P-P2-P4~-P4 is not contained in cell [0, 1, 3, 4]"),
    "diagonal": (ConnectionGraph(2, {0, 1, 2}), mk_chain(P1, (CELL2, DIAGONAL_FACE, Pt), (CELL2, DIAGONAL_FACE, P1)),
                 None, None),
}


@pytest.mark.parametrize("cg,chain,code,message", STRUCTURE_CASES.values(), ids=STRUCTURE_CASES)
def test_validate_structure(cg, chain, code, message):
    try:
        validate_structure(cg, chain)
    except ChainStructureError as err:
        assert (err.code, str(err)) == (code, message)
    else:
        assert code is None


def test_evaluate_lists_no_faces(hexagon_one_chord, monkeypatch):
    # the face check reads each step's own cycle, so checking a chain lists no graph's faces
    face = F(P, P1, P2t, P2)
    chain = mk_chain(P2, (CELL2, face, P2t), (CELL2, conjugate_face(face), P2))
    # every module of the package that holds the function, so an import by name is counted too
    package = [m for name, m in sys.modules.items() if name.split(".")[0] == "spinatlas"]
    holders = [m for m in package if getattr(m, "enumerate_faces", None) is enumerate_faces]
    calls = [spy(monkeypatch, m, "enumerate_faces") for m in holders]
    evaluate(hexagon_one_chord, chain)
    is_admissible(hexagon_one_chord, chain)
    assert calls and not any(calls)


# ---------------------------------------------------------------- degrees at order <= 2

def test_mixed_degree_loops_inadmissible_at_order2(hexagon_two_chords):
    f1 = F(P, P1, P1t, P2)
    f3 = F(P1, P1t, P2, P2t)
    f2 = F(P2, P2t, P1, P)
    chain = mk_chain(P, (CELL2, f1, P1), (CELL2, f3, P2), (CELL2, f2, P))
    verdict = is_admissible(hexagon_two_chords, chain)
    assert verdict == (False, 1, "DomainMismatch")
    assert evaluate(hexagon_two_chords, chain) == identity_perm(2)


def test_visitable_vertices_share_the_degree_at_order_two_or_less():
    for order in range(5):
        for cg in top_slice_graphs(order):
            verts = cg.vertices()
            for v in verts:
                same = [b for b, w in enumerate(verts) if cg.epsilon_degree(w) == cg.epsilon_degree(v)]
                assert visitable(cg, v) == (same if order <= 2 else list(range(len(verts))))


# ---------------------------------------------------------------- properties

def sample_chains(cg, start, max_steps, limit):
    return list(itertools.islice(enumerate_chains(cg, start, max_steps), limit))


@settings(max_examples=120, derandomize=True)
@given(index=st.integers(min_value=0, max_value=399))
def test_reverse_of_reverse_is_identity_transform(index):
    cg = ConnectionGraph(3, frozenset({2, 3}))
    chains = sample_chains(cg, P2, 3, 400)
    chain = chains[index % len(chains)]
    assert reversed_chain(reversed_chain(chain)) == chain
    assert evaluate(cg, reversed_chain(reversed_chain(chain))) == evaluate(cg, chain)


def test_concatenation_of_matching_admissible_chains(order3_two_chords):
    cg = order3_two_chords
    chains = [c for c in sample_chains(cg, P, 2, 200) if is_admissible(cg, c).admissible]
    combined = 0
    for left in chains:
        for right in chains:
            cat = SpinChain(P, left.steps + right.steps)
            if is_admissible(cg, cat).admissible:
                combined += 1
                assert evaluate(cg, cat) == compose(evaluate(cg, left), evaluate(cg, right))
    assert combined > 0


def test_all_chains_admissible_when_all_degrees_match(hexagon_full, order3_full):
    for cg, start in ((hexagon_full, P), (order3_full, P3)):
        for chain in sample_chains(cg, start, 2, 300):
            assert is_admissible(cg, chain).admissible


# ---------------------------------------------------------------- enumeration

def brute_two_step_count(cg, start) -> int:
    """Oracle: count loops start->w->start with faces containing both endpoints."""
    total = 0
    faces = enumerate_faces(cg)
    for w in cg.vertices():
        if w == start:
            continue
        options = sum(1 for f in faces if start in f and w in f)
        total += options * options
    return total


def test_two_step_chain_count_one_chord_hexagon(hexagon_one_chord):
    chains = [c for c in enumerate_chains(hexagon_one_chord, P, 2)]
    assert len(chains) == 3  # frozen from the brute-force count below
    assert len(chains) == brute_two_step_count(hexagon_one_chord, P)


def test_two_step_chain_counts_match_oracle(order3_two_chords):
    for start in (P, P2):
        got = sum(1 for _ in enumerate_chains(order3_two_chords, start, 2))
        assert got == brute_two_step_count(order3_two_chords, start)


def test_enumeration_is_deterministic(order3_one_chord):
    first = sample_chains(order3_one_chord, P3, 3, 300)
    second = sample_chains(order3_one_chord, P3, 3, 300)
    assert first == second
    lengths = [len(c.steps) for c in first]
    assert lengths == sorted(lengths)


def test_enumeration_includes_published_loops(order3_one_chord):
    chains = set(sample_chains(order3_one_chord, P3, 2, 10_000))
    target = mk_chain(P3, (CELL3, CHORD3_FACES["F4"], P3t), (CELL3, CHORD3_FACES["F5"], P3))
    assert target in chains


def step_faces(table, a: int, b: int) -> tuple[tuple[frozenset[int], Face], ...]:
    """A step's (cell, face) choices, each id cycle turned into its `Face`."""
    return tuple((cell, Face(tuple(map(table.vertices.__getitem__, cycle)))) for (cell, cycle), _ in table.steps(a, b))


def test_enumeration_reaches_published_four_step_loop(order3_one_chord):
    # every step of the four-step witness is a (cell, face) choice of the search's
    # step table, so the depth-4 level of the search walks the whole chain
    cg = order3_one_chord
    chain = mk_chain(
        P3,
        (CELL3, BASIC3_FACES["F1'"], P1t),
        (CELL3, BASIC3_FACES["F1'"], Pt),
        (CELL3, BASIC3_FACES["F3"], P3t),
        (CELL3, CHORD3_FACES["F5"], P3),
    )
    validate_structure(cg, chain)
    table = StepTable(cg)
    current = chain.start
    for step in chain.steps:
        choices = step_faces(table, table.vertices.index(current), table.vertices.index(step.target))
        assert (step.cell, step.face) in choices
        current = step.target


def test_no_chains_without_faces():
    r0 = ConnectionGraph(0, frozenset({0}))
    assert sample_chains(r0, P, 4, 10) == []
    r1 = ConnectionGraph(1, frozenset({1}))
    assert sample_chains(r1, P1, 4, 10) == []


def test_enumeration_validates_structurally(order3_two_chords):
    for chain in sample_chains(order3_two_chords, P2, 3, 500):
        validate_structure(order3_two_chords, chain)


def test_min_steps_guard(order3_one_chord):
    with pytest.raises(ValueError):
        list(enumerate_chains(order3_one_chord, P, 1))


SEARCH_ORDER_CASES = [
    (ConnectionGraph(2, frozenset({2})), P2),
    (ConnectionGraph(2, frozenset({1, 2})), P1t),
    (ConnectionGraph(3, frozenset({3})), P3),
    (ConnectionGraph(3, frozenset({2, 3})), P1),
    (ConnectionGraph(4, frozenset({4})), P),
]


@pytest.mark.parametrize("cg,start", SEARCH_ORDER_CASES, ids=["r2a", "r2b", "r3a", "r3b", "r4"])
def test_search_keeps_enumeration_order(cg, start):
    """The step-table search yields the admissible chains of the plain stream, in its order."""
    plain = [
        (chain, evaluate(cg, chain)) for chain in enumerate_chains(cg, start, 3) if is_admissible(cg, chain).admissible
    ]
    assert plain
    table = StepTable(cg)
    assert [(table.chain(start, path), perm) for path, perm in admissible_evaluations(table, start, 3)] == plain


def test_step_entries_list_the_faces_through_both_vertices():
    from spinatlas.faces import cells_containing

    pairs = 0
    for order in range(8):
        for cg in (*top_slice_graphs(order), ConnectionGraph(order, frozenset())):
            table = StepTable(cg)
            faces = enumerate_faces(cg)
            # per vertex, the positions in `faces` of the faces through it
            at = [{k for k, face in enumerate(faces) if w in face.cycle} for w in table.vertices]
            for a, b in itertools.permutations(range(len(table.vertices)), 2):
                through = [faces[k] for k in sorted(at[a] & at[b])]
                choices = tuple((cell, face) for face in through for cell in cells_containing(cg, face))
                assert step_faces(table, a, b) == choices
                pairs += 1
    assert pairs == 5520


def test_lazily_listed_steps_end_equal_to_the_eager_listing(monkeypatch):
    """Every step of each top-slice graph up to order 6, after the searched vertices' searches have
    listed part of it: read one choice at a time, and in full, it is every face's cells at once,
    and each choice's map is built once.  A step back lists the same choices, each map the inverse
    of the step's."""
    from spinatlas import chains
    from spinatlas.classify import spin_group_at
    from spinatlas.faces import cells_of, face_cycles, neighbour_ids

    def sends(mapping):
        return [(c, t) for c, t in enumerate(mapping) if t >= 0]

    calls = spy(monkeypatch, chains, "direct_images")
    part_listed = steps = pairs = inverses = 0
    for order in range(7):
        for cg in (*top_slice_graphs(order), ConnectionGraph(order, frozenset())):
            table = StepTable(cg)
            calls.clear()
            # no class has a chordless graph, where the group at P stays A_n and the search walks its budget
            for v in searched_vertices(cg) if cg.connected else ():
                spin_group_at(cg, v, table=table)
            # per step, the maps built for it by the searches, then once every step is read
            built, eagers = Counter(call.args[4:] for call in calls), Counter()
            near = neighbour_ids(cg)
            for a, b in itertools.permutations(range(len(table.vertices)), 2):
                cycles = face_cycles(near, a, b)
                eager = [
                    (cell, cycle) for cycle in cycles for cell in cells_of(order, frozenset(w >> 1 for w in cycle))
                ]
                part_listed += 0 < built[a, b] < len(eager)
                for k, (choice, _) in enumerate(table.steps(a, b)):
                    assert choice == eager[k]
                listed = list(table.steps(a, b))
                assert [choice for choice, _ in listed] == eager
                eagers[a, b] = len(eager)
                steps += 1
            assert Counter(call.args[4:] for call in calls) == +eagers
            for a, b in itertools.combinations(range(len(table.vertices)), 2):
                assert face_cycles(near, a, b) == face_cycles(near, b, a)
                forth, back = list(table.steps(a, b)), list(table.steps(b, a))
                assert [choice for choice, _ in back] == [choice for choice, _ in forth]
                for (_, there), (_, home) in zip(forth, back):
                    assert {t: c for c, t in sends(there)} == dict(sends(home))
                    inverses += 1
                pairs += 1
    # 50,502 maps and their inverses, each built from its face
    assert steps == 3360 and pairs == 1680 and inverses == 50502
    # the searches stop part of the way through some steps, which stay part listed
    assert part_listed > 0


def test_step_table_maps_match_the_direct_builder():
    maps = 0
    for order in range(2, 6):
        for cg in (*top_slice_graphs(order), ConnectionGraph(order, frozenset())):
            table = StepTable(cg)
            for a, b in itertools.permutations(range(len(table.vertices)), 2):
                for (cell, face), (_, mapping) in zip(step_faces(table, a, b), table.steps(a, b)):
                    direct = build_face_map(cg, cell, face, table.vertices[a], table.vertices[b])
                    assert mapping == tuple(direct.get(c, -1) for c in cg.classes)
                    maps += 1
    assert maps == 33792


def test_a_map_that_fails_to_build_leaves_the_step_as_it_was(monkeypatch):
    # a builder that fails on one choice's map: every read raises at that choice, and once the builder
    # works again, the step lists every choice, none skipped, with the maps a working builder gives
    from spinatlas import chains
    from spinatlas.faces import direct_images

    cg = ConnectionGraph(4, frozenset({4}))
    a, b = cg.vertices().index(P), cg.vertices().index(P4)
    pairs = list(StepTable(cg).steps(a, b))
    assert len(pairs) > 2
    k = len(pairs) // 2
    lost = pairs[k][0]

    def failing(order, connected, cell, cycle, u, v):
        if (cell, cycle) == lost:
            raise AssertionError("no map")
        return direct_images(order, connected, cell, cycle, u, v)

    monkeypatch.setattr(chains, "direct_images", failing)
    table = StepTable(cg)
    for _ in range(2):
        read = []
        with pytest.raises(AssertionError, match="^no map$"):
            for pair in table.steps(a, b):
                read.append(pair)
        assert read == pairs[:k]
    monkeypatch.setattr(chains, "direct_images", direct_images)
    assert list(table.steps(a, b)) == pairs


def test_faces_are_found_once_per_vertex_pair(monkeypatch):
    """Over the searches of every top-slice graph up to order 6, and a read of every step after them,
    the faces through two vertices are found once for the pair, whichever of its two steps is read."""
    from spinatlas import chains
    from spinatlas.classify import spin_group_at

    def vertex_pairs(calls):
        """The vertex pair of each call, `face_cycles(near, a, b)` or `steps(table, a, b)`."""
        return [frozenset(call.args[1:]) for call in calls]

    finds, reads = spy(monkeypatch, chains, "face_cycles"), spy(monkeypatch, StepTable, "steps")
    searched = pairs = 0
    for order in range(7):
        for cg in (*top_slice_graphs(order), ConnectionGraph(order, frozenset())):
            table = StepTable(cg)
            finds.clear()
            reads.clear()
            # no class has a chordless graph, where the group at P stays A_n and the search walks its budget
            for v in searched_vertices(cg) if cg.connected else ():
                spin_group_at(cg, v, table=table)
                searched += 1
            assert sorted(vertex_pairs(finds), key=sorted) == sorted(set(vertex_pairs(reads)), key=sorted)
            for a, b in itertools.permutations(range(len(table.vertices)), 2):
                list(table.steps(a, b))
            found = vertex_pairs(finds)
            assert len(found) == len(set(found)) == len(table.vertices) * (len(table.vertices) - 1) // 2
            pairs += len(found)
    assert searched == 49 and pairs == 1680


def test_chains_rebuilt_from_paths_build_no_face_map(monkeypatch):
    """`StepTable.chain` and `SpinGroupResult.witnesses`, on a table no search has read, build no face
    map, and give the chains whose steps the search took: each evaluates to its kept generator."""
    from spinatlas import chains
    from spinatlas.chains import ChainStep
    from spinatlas.classify import spin_group_at

    built = spy(monkeypatch, chains, "direct_images")
    witnesses = 0
    for order in range(2, 7):
        for cg in top_slice_graphs(order):
            searched = StepTable(cg)
            verts = searched.vertices
            for v in searched_vertices(cg):
                res = spin_group_at(cg, v, table=searched)
                # each path's chain, read off the choices the search listed
                taken = []
                for path, _ in res.kept():
                    steps, a = [], verts.index(v)
                    for b, k in path:
                        (cell, cycle), _ = list(searched.steps(a, b))[k]
                        steps.append(ChainStep(cell, Face(tuple(map(verts.__getitem__, cycle))), verts[b]))
                        a = b
                    taken.append(SpinChain(v, tuple(steps)))
                built.clear()
                fresh = StepTable(cg)
                assert tuple(fresh.chain(v, path) for path, _ in res.kept()) == tuple(taken)
                assert res.witnesses == tuple(taken)
                assert built == []
                assert [evaluate(cg, chain) for chain in taken] == [perm for _, perm in res.kept()]
                witnesses += len(taken)
    assert witnesses > 100


def test_close_out_repairs_one_label_and_rejects_the_rest():
    from spinatlas.chains import close_out, label_positions

    cg = ConnectionGraph(3, frozenset({3}))
    assert label_positions(cg, P) == [None, 0, 1, 2]
    pos = label_positions(cg, P3)
    assert pos == [0, 1, 2, 3]
    # in closed form, the positions of `label_classes`, whose length is the vertex's degree
    for order in range(7):
        for g in top_slice_graphs(order):
            for v in g.vertices():
                labels = g.label_classes(v)
                assert label_positions(g, v) == [labels.index(c) if c in labels else None for c in g.classes]
                assert len(labels) == g.epsilon_degree(v)
    # a last step that fixes every class closes the carried labels as they stand
    fixed, swap = (0, 1, 2, 3), (1, 0, 2, 3)
    assert close_out(pos, fixed, ((0, 1, 2, 3), (1, 2, 3, 0)), 4) == (1, 2, 3, 0)
    assert close_out(pos, swap, ((0, 1, 2, 3), (1, 2, 3, 0)), 4) == (0, 2, 3, 1)
    # one label lost on return to the base: it goes to the one image left over
    assert close_out(pos, fixed, ((0, 1, 3), (2, 0, 1)), 4) == (2, 0, 3, 1)
    # a label the last step loses breaks the chain, before any check of what is left
    assert close_out(pos, (1, 0, -1, 3), ((0, 1, 2, 3), (1, 2, 3, 0)), 4) is None
    assert close_out(pos, (-1, 0, 2, 3), ((0, 1), (2, 0)), 4) is None
    with pytest.raises(AssertionError):
        close_out(pos, fixed, ((0, 1), (2, 0)), 4)
    with pytest.raises(AssertionError):
        close_out(pos, fixed, ((0, 1, 2), (1, 1, 3)), 4)
    # n is required: no count is read off `pos`
    with pytest.raises(TypeError):
        close_out(pos, fixed, ((0, 1, 2, 3), (1, 2, 3, 0)))


def test_close_out_is_carry_then_the_two_pass_close(monkeypatch):
    """Every closing step the search reaches, at both searched vertices of every top-slice graph of
    orders 0..6: `close_out` in one pass gives the permutation that carrying the labels through the
    step's map and then closing them gave, and None exactly where the step loses a label."""
    from conftest import reference_close_out
    from spinatlas import classify
    from spinatlas.classify import spin_group_at

    closes = spy(monkeypatch, classify, "close_out")
    outcomes = Counter()
    for order in range(7):
        for cg in top_slice_graphs(order):
            for v in searched_vertices(cg):
                closes.clear()
                spin_group_at(cg, v)
                for call in closes:
                    pos, mapping, carried, n = call.args
                    moved = carry(mapping, carried)
                    expected = None if moved is None else reference_close_out(pos, moved, n)
                    assert close_out(pos, mapping, carried, n) == expected, (cg, v, call)
                    outcomes[expected is None] += 1
    # per outcome, lost or closed, the closing steps the searches reach
    assert outcomes == {True: 37, False: 353}


def test_evaluate_composes_once(order3_one_chord, monkeypatch):
    # one face map per step, each built by `direct_images` from the step's face, by vertex id
    from spinatlas import chains

    calls = spy(monkeypatch, chains, "direct_images")
    witness = mk_chain(P3, (CELL3, F(P, P1, P2t, P3), P), (CELL3, F(P, P1, P3t, P3), P3))
    assert evaluate(order3_one_chord, witness) != identity_perm(4)
    assert len(calls) == 2


def test_evaluate_and_is_admissible_leave_the_face_map_memo_alone(order3_one_chord, hexagon_two_chords):
    # both build each step's map by vertex id through `direct_images`: the memo only `faces.face_map` reads
    from spinatlas import chains, faces

    assert not hasattr(chains, "_face_map_pairs")
    before = faces._face_map_pairs.cache_info()
    verdicts = set()
    for cg, start in ((order3_one_chord, P), (order3_one_chord, P3), (hexagon_two_chords, P1)):
        for chain in sample_chains(cg, start, 3, 300):
            verdicts.add(is_admissible(cg, chain).admissible)
            evaluate(cg, chain)
    assert verdicts == {True, False}
    assert faces._face_map_pairs.cache_info() == before


def test_a_round_trip_closes_to_the_identity():
    """A chain v -> u -> v that steps back along the same choice is the identity: through the step table's
    maps, `carry` and `close_out` at every vertex of every top-slice graph to order 6, and through
    `evaluate` to order 4."""
    trips = evaluated = 0
    for order in range(7):
        for cg in top_slice_graphs(order):
            table = StepTable(cg)
            for v in table.vertices:
                a, n, pos = vertex_id(v), len(cg.label_classes(v)), label_positions(cg, v)
                for b in visitable(cg, v):
                    if b == a:
                        continue
                    # both steps between a and b share one choice list
                    for k, ((there_choice, there), (back_choice, back)) in enumerate(
                        zip(table.steps(a, b), table.steps(b, a), strict=True)
                    ):
                        assert there_choice == back_choice
                        assert close_out(pos, back, carry(there, None), n) == identity_perm(n)
                        trips += 1
                        if order <= 4:
                            assert evaluate(cg, table.chain(v, ((b, k), (a, k)))) == identity_perm(n)
                            evaluated += 1
    assert trips == 96_932 and evaluated == 8_132


# ---------------------------------------------------------------- basic chains

def test_is_basic(order3_one_chord):
    cg = order3_one_chord
    basic = mk_chain(P, (CELL3, BASIC3_FACES["F1"], P1), (CELL3, BASIC3_FACES["F2"], P))
    assert is_basic(cg, basic)
    chord = mk_chain(P, (CELL3, CHORD3_FACES["F5"], P2), (CELL3, BASIC3_FACES["F1"], P))
    assert not is_basic(cg, chord)
    twice = mk_chain(P, (CELL3, BASIC3_FACES["F1"], P1), (CELL3, BASIC3_FACES["F1"], P))
    assert is_basic(cg, twice)
    assert evaluate(cg, twice) == identity_perm(3)
