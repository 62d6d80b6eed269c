"""Chain structure, admissibility, evaluation, and enumeration."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BASIC3_FACES,
    CELL2,
    CELL3,
    CHORD2_FACES,
    CHORD3_FACES,
    F,
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
    cycle_type,
    enumerate_chains,
    is_basic,
    mk_chain,
    parity,
    reversed_chain,
    searched_vertices,
)
from spinatlas.chains import ChainStructureError, SpinChain, StepTable, evaluate, is_admissible, validate_structure
from spinatlas.faces import Face, enumerate_faces
from spinatlas.graph import ConnectionGraph
from spinatlas.groups import compose, cycles_str, identity_perm, inverse

G1 = frozenset({0, 2, 3, 4})
G2 = frozenset({0, 1, 3, 4})
G3 = frozenset({0, 1, 2, 4})
G4 = frozenset({0, 1, 2, 3})
G5 = frozenset({1, 2, 3, 4})


# ---------------------------------------------------------------- structure

def test_loop_must_close(hexagon_one_chord):
    face = F(P, P1, P2t, P2)
    chain = mk_chain(P2, (CELL2, face, P2t))
    with pytest.raises(ChainStructureError) as err:
        validate_structure(hexagon_one_chord, chain)
    assert err.value.code == "LoopNotClosed"


def test_step_vertices_must_lie_on_face(hexagon_one_chord):
    face = F(P, P1, P2t, P2)
    chain = mk_chain(P2, (CELL2, face, P1t), (CELL2, face, P2))
    with pytest.raises(ChainStructureError) as err:
        validate_structure(hexagon_one_chord, chain)
    assert err.value.code == "StepNotOnFace"


def test_face_must_exist_in_graph(hexagon_one_chord):
    fake = F(P, P1, P1t, P2)  # a face of the two-chord graph only
    chain = mk_chain(P, (CELL2, fake, P1), (CELL2, fake, P))
    with pytest.raises(ChainStructureError) as err:
        validate_structure(hexagon_one_chord, chain)
    assert err.value.code == "StepNotOnFace"


@pytest.mark.parametrize(
    "cycle",
    [(P1, P2t, P2, P), (P, P2, P2t, P1), (P, P1, P1t, P2), (P, P1, P2t, P3), (P, P1, P, P1)],
    ids=["rotated", "reflected", "missing-chord", "missing-vertex", "repeated"],
)
def test_a_step_on_no_canonical_face_of_the_graph_raises(hexagon_one_chord, cycle):
    fake = Face(cycle)
    chain = mk_chain(P2, (CELL2, fake, P2t), (CELL2, conjugate_face(F(P, P1, P2t, P2)), P2))
    with pytest.raises(ChainStructureError) as err:
        validate_structure(hexagon_one_chord, chain)
    assert err.value.code == "StepNotOnFace"
    assert str(err.value) == f"step 0: {fake.name} is not a face of the graph"


def test_evaluate_lists_no_faces(hexagon_one_chord):
    # the face check reads each step's own cycle, so checking a chain memoizes no graph's faces
    face = F(P, P1, P2t, P2)
    chain = mk_chain(P2, (CELL2, face, P2t), (CELL2, conjugate_face(face), P2))
    enumerate_faces.cache_clear()
    evaluate(hexagon_one_chord, chain)
    is_admissible(hexagon_one_chord, chain)
    assert enumerate_faces.cache_info().currsize == 0


def test_face_must_sit_inside_cell():
    cg = ConnectionGraph(4, frozenset({4}))
    face = F(P, P2, P4t, P4)  # classes {0, 2, 4}
    chain = mk_chain(P, (G2, face, P4), (G1, face, P))
    with pytest.raises(ChainStructureError) as err:
        validate_structure(cg, chain)
    assert err.value.code == "FaceNotInCell"


def test_diagonal_steps_are_structurally_fine(hexagon_full):
    face = F(P, Pt, P2t, P1)
    chain = mk_chain(P1, (CELL2, face, Pt), (CELL2, face, P1))
    validate_structure(hexagon_full, chain)


# ---------------------------------------------------------------- published evaluations

def test_one_chord_hexagon_three_cycle(hexagon_one_chord):
    face = F(P, P1, P2t, P2)
    conj = conjugate_face(face)
    chain = mk_chain(P2, (CELL2, face, P2t), (CELL2, conj, P2))
    assert is_admissible(hexagon_one_chord, chain).admissible
    perm = evaluate(hexagon_one_chord, chain)
    assert perm == (1, 2, 0)  # (123)
    back = evaluate(hexagon_one_chord, reversed_chain(chain))
    assert back == inverse(perm)  # (132)


def test_two_chord_hexagon_transpositions(hexagon_two_chords):
    f1 = F(P, P1, P1t, P2)
    f1c = conjugate_face(f1)
    f3 = F(P1, P1t, P2, P2t)
    first = evaluate(hexagon_two_chords, mk_chain(P1t, (CELL2, f1, P1), (CELL2, f3, P1t)))
    second = evaluate(hexagon_two_chords, mk_chain(P1t, (CELL2, f1c, P1), (CELL2, f3, P1t)))
    assert cycle_type(first) == (2, 1) and parity(first) == 1
    assert cycle_type(second) == (2, 1) and parity(second) == 1
    assert first != second


def test_full_hexagon_even_and_odd(hexagon_full):
    f1 = F(P, Pt, P2t, P1)
    f2 = F(P, Pt, P2t, P2)
    three_cycle = evaluate(hexagon_full, mk_chain(P, (CELL2, f1, P2t), (CELL2, f2, P)))
    assert cycle_type(three_cycle) == (3,)
    k = F(P, P1, P2t, P2)
    tp12 = F(P1, P1t, P2, P2t)
    swap = evaluate(hexagon_full, mk_chain(P1, (CELL2, k, P2t), (CELL2, tp12, P1)))
    assert cycle_type(swap) == (2, 1) and parity(swap) == 1


def test_order3_one_chord_witnesses(order3_one_chord):
    cg = order3_one_chord
    F1, F2, F3 = BASIC3_FACES["F1"], BASIC3_FACES["F2"], BASIC3_FACES["F3"]
    F1c = BASIC3_FACES["F1'"]
    F4, F5 = CHORD3_FACES["F4"], CHORD3_FACES["F5"]

    swap = evaluate(cg, mk_chain(P, (CELL3, F5, P2), (CELL3, F1, P)))
    assert swap == (2, 1, 0)  # transposition of the first and third labels

    cyc = evaluate(cg, mk_chain(P3, (CELL3, F4, P3t), (CELL3, F5, P3)))
    assert cyc == (0, 2, 3, 1)  # (234)

    four = evaluate(
        cg,
        mk_chain(P3, (CELL3, F1c, P1t), (CELL3, F1c, Pt), (CELL3, F3, P3t), (CELL3, F5, P3)),
    )
    assert four == (1, 2, 3, 0)  # (1234)

    bad = mk_chain(P, (CELL3, F5, P3), (CELL3, F2, P))
    verdict = is_admissible(cg, bad)
    assert not verdict.admissible
    assert verdict.reason == "DomainMismatch"
    assert verdict.failing_step == 2
    assert evaluate(cg, bad) == identity_perm(3)


def test_order3_two_chord_witnesses(order3_two_chords):
    cg = order3_two_chords
    F1, F2 = BASIC3_FACES["F1"], BASIC3_FACES["F2"]
    F2c, F3c = BASIC3_FACES["F2'"], BASIC3_FACES["F3'"]
    F4, F6 = CHORD3_FACES["F4"], CHORD3_FACES["F6"]
    F8, F10 = CHORD2_FACES["F8"], CHORD2_FACES["F10"]

    assert evaluate(cg, mk_chain(P, (CELL3, F8, P1), (CELL3, F1, P))) == (2, 1, 0)  # (13)

    long_swap = mk_chain(P, (CELL3, F3c, P2), (CELL3, F10, P3t), (CELL3, F10, P3), (CELL3, F2, P))
    assert evaluate(cg, long_swap) == (2, 1, 0)  # (13)

    cyc = mk_chain(P, (CELL3, F3c, P2), (CELL3, F10, P3t), (CELL3, F4, P1), (CELL3, F2, P))
    assert evaluate(cg, cyc) == (1, 2, 0)  # (123)

    bad = mk_chain(P, (CELL3, F3c, P2), (CELL3, F10, P3t), (CELL3, F6, P1), (CELL3, F2, P))
    assert not is_admissible(cg, bad).admissible
    assert evaluate(cg, bad) == identity_perm(3)

    odd4 = mk_chain(P2, (CELL3, F10, P3t), (CELL3, F2c, P2))
    perm = evaluate(cg, odd4)
    assert cycle_type(perm) == (4,) and parity(perm) == 1


def test_order4_cell_witnesses():
    cg = ConnectionGraph(4, frozenset({4}))
    f1 = F(P, P2, P4t, P4)
    f2 = F(P, P1, P4t, P4)
    f3 = F(P1t, P2, P4t, P4)
    loop = mk_chain(P, (G1, f1, P4), (G3, f2, P4t), (G5, f3, P2), (G1, f1, P))
    assert is_admissible(cg, loop).admissible
    assert evaluate(cg, loop) == (3, 1, 0, 2)  # (143)

    f2b = F(P, P1, P3t, P4)
    short = mk_chain(P, (G3, f2, P1), (G2, f2b, P))
    assert evaluate(cg, short) == (2, 1, 0, 3)  # (13)

    f2c = F(P4, P3t, Pt, P1t)
    f3c = F(P3t, P1, P4t, P2)
    bad = mk_chain(P, (G1, f1, P4), (G2, f2c, P3t), (G5, f3c, P1), (G3, f2, P))
    verdict = is_admissible(cg, bad)
    assert not verdict.admissible and verdict.failing_step == 2
    assert evaluate(cg, bad) == identity_perm(4)


def test_order4_two_chord_witness():
    cg = ConnectionGraph(4, frozenset({3, 4}))
    f1 = F(P, P2, P3t, P3)
    f2 = F(P3, P4t, P4, P3t)
    f3 = F(P4, P3t, P3, P2t)
    f4 = F(P3t, P2, P4t, P3)
    loop = mk_chain(P2, (G4, f1, P3t), (G2, f2, P4), (G5, f3, P3t), (G5, f4, P2))
    assert is_admissible(cg, loop).admissible
    assert evaluate(cg, loop) == (1, 0, 2, 3)  # (12)


def test_mixed_degree_loops_inadmissible_at_order2(hexagon_two_chords):
    f1 = F(P, P1, P1t, P2)
    f3 = F(P1, P1t, P2, P2t)
    f2 = F(P2, P2t, P1, P)
    chain = mk_chain(P, (CELL2, f1, P1), (CELL2, f3, P2), (CELL2, f2, P))
    verdict = is_admissible(hexagon_two_chords, chain)
    assert not verdict.admissible and verdict.reason == "DomainMismatch"
    assert evaluate(hexagon_two_chords, chain) == identity_perm(2)


# ---------------------------------------------------------------- properties

def sample_chains(cg, start, max_steps, limit):
    return list(itertools.islice(enumerate_chains(cg, start, max_steps), limit))


REVERSE_CASES = [
    (ConnectionGraph(2, frozenset({2})), P2, 4, 400),
    (ConnectionGraph(2, frozenset({1, 2})), P1t, 3, 400),
    (ConnectionGraph(3, frozenset({3})), P3, 3, 500),
    (ConnectionGraph(3, frozenset({2, 3})), P, 3, 500),
    (ConnectionGraph(4, frozenset({4})), P4, 2, 500),
]


@pytest.mark.parametrize("cg,start,depth,limit", REVERSE_CASES, ids=["r2a", "r2b", "r3a", "r3b", "r4"])
def test_reverse_loop_gives_inverse(cg, start, depth, limit):
    """Reversal inverts the value whenever both traversals compose.

    The end-of-loop repair at a maximal-degree base vertex is one-directional:
    a chain consuming it has an inadmissible reversal, which evaluates to the
    identity by convention.  Those are the only one-sided cases.
    """
    for chain in sample_chains(cg, start, depth, limit):
        fwd_ok = is_admissible(cg, chain).admissible
        back_ok = is_admissible(cg, reversed_chain(chain)).admissible
        if fwd_ok == back_ok:
            assert evaluate(cg, reversed_chain(chain)) == inverse(evaluate(cg, chain))
        else:
            assert cg.epsilon_degree(start) == cg.order + 1


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


def test_inadmissible_always_identity(order3_one_chord):
    cg = order3_one_chord
    seen = 0
    for chain in sample_chains(cg, P, 3, 2000):
        if not is_admissible(cg, chain).admissible:
            seen += 1
            assert evaluate(cg, chain) == identity_perm(3)
    assert seen > 0


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
        for j in range(order + 2):
            cg = ConnectionGraph(order, frozenset(range(j, order + 1)))
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
    from spinatlas.faces import cells_of, class_mask, direct_images, face_cycles, neighbour_ids

    # per step, the maps built for it
    built: dict[tuple[int, int], int] = {}

    def counted(order, connected, cell, cycle, a, b):
        built[a, b] = built.get((a, b), 0) + 1
        return direct_images(order, connected, cell, cycle, a, b)

    def sends(mapping):
        return [(c, t) for c, t in enumerate(mapping) if t >= 0]

    monkeypatch.setattr(chains, "direct_images", counted)
    part_listed = steps = pairs = inverses = 0
    for order in range(7):
        for j in range(order + 2):
            cg = ConnectionGraph(order, frozenset(range(j, order + 1)))
            table = StepTable(cg)
            built.clear()
            # no class has a chordless graph, where the group at P stays A_n and the search walks its budget
            for v in searched_vertices(cg) if cg.connected else ():
                spin_group_at(cg, v, table=table)
            near = neighbour_ids(cg)
            for a, b in itertools.permutations(range(len(table.vertices)), 2):
                cycles = face_cycles(near, a, b)
                eager = [(cell, cycle) for cycle in cycles for cell in cells_of(order, class_mask(cycle))]
                part_listed += 0 < built.get((a, b), 0) < len(eager)
                for k, (choice, _) in enumerate(table.steps(a, b)):
                    assert choice == eager[k]
                listed = table.steps(a, b)
                assert isinstance(listed, list) and [choice for choice, _ in listed] == eager
                assert built.get((a, b), 0) == len(eager)
                steps += 1
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
        for j in range(order + 2):
            cg = ConnectionGraph(order, frozenset(range(j, order + 1)))
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

    found, read = [], set()
    face_cycles, steps = chains.face_cycles, StepTable.steps

    def counted(near, a, b):
        found.append(frozenset((a, b)))
        return face_cycles(near, a, b)

    def reading(table, a, b):
        read.add(frozenset((a, b)))
        return steps(table, a, b)

    monkeypatch.setattr(chains, "face_cycles", counted)
    monkeypatch.setattr(StepTable, "steps", reading)
    searched = pairs = 0
    for order in range(7):
        for j in range(order + 2):
            cg = ConnectionGraph(order, frozenset(range(j, order + 1)))
            table = StepTable(cg)
            found.clear()
            read.clear()
            # no class has a chordless graph, where the group at P stays A_n and the search walks its budget
            for v in searched_vertices(cg) if cg.connected else ():
                spin_group_at(cg, v, table=table)
                searched += 1
            assert sorted(found, key=sorted) == sorted(read, key=sorted)
            for a, b in itertools.permutations(range(len(table.vertices)), 2):
                list(table.steps(a, b))
            assert len(found) == len(set(found)) == len(table.vertices) * (len(table.vertices) - 1) // 2
            pairs += len(found)
    assert searched == 49 and pairs == 1680


def test_chains_rebuilt_from_paths_build_no_face_map(monkeypatch):
    """`StepTable.chain` and `SpinGroupResult.witnesses`, on a table no search has read, build no face
    map, and give the chains whose steps the search took: each evaluates to its kept generator."""
    from spinatlas import chains
    from spinatlas.chains import ChainStep
    from spinatlas.classify import spin_group_at

    built = []
    direct_images = chains.direct_images

    def counted(*args):
        built.append(args)
        return direct_images(*args)

    monkeypatch.setattr(chains, "direct_images", counted)
    witnesses = 0
    for order in range(2, 7):
        for j in range(order + 1):
            cg = ConnectionGraph(order, frozenset(range(j, order + 1)))
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
    assert close_out(pos, ((0, 1, 2, 3), (1, 2, 3, 0))) == (1, 2, 3, 0)
    # one label lost on return to the base: it goes to the one image left over
    assert close_out(pos, ((0, 1, 3), (2, 0, 1))) == (2, 0, 3, 1)
    with pytest.raises(AssertionError):
        close_out(pos, ((0, 1), (2, 0)))
    with pytest.raises(AssertionError):
        close_out(pos, ((0, 1, 2), (1, 1, 3)))


def test_evaluate_composes_once(order3_one_chord, monkeypatch):
    from spinatlas import chains

    calls = []
    face_maps = chains._face_map_pairs

    def counted(*args):
        calls.append(args)
        return face_maps(*args)

    monkeypatch.setattr(chains, "_face_map_pairs", counted)
    witness = mk_chain(P3, (CELL3, F(P, P1, P2t, P3), P), (CELL3, F(P, P1, P3t, P3), P3))
    assert evaluate(order3_one_chord, witness) != identity_perm(4)
    assert len(calls) == 2


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


def test_basic_chains_generate_even_rotations(order3_one_chord):
    """Two-step skeleton loops close into the 3-element alternating group on the core labels."""
    from spinatlas.groups import closure, recognize

    cg = order3_one_chord
    for start in (P, P3):
        perms = set()
        for chain in sample_chains(cg, start, 2, 5000):
            if is_basic(cg, chain):
                perms.add(evaluate(cg, chain))
        n = len(cg.label_classes(start))
        group = closure(perms, n)
        assert len(group) == 3
        assert all(parity(g) == 0 for g in group)
        if start == P3:
            # the own-class label never moves under skeleton chains
            own_pos = cg.label_classes(start).index(start.cls)
            assert all(g[own_pos] == own_pos for g in group)
