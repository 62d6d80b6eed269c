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
    conjugate_face,
    cycle_type,
    enumerate_chains,
    is_basic,
    mk_chain,
    parity,
    reversed_chain,
)
from spinatlas.chains import ChainStructureError, SpinChain, evaluate, is_admissible, validate_structure
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


def entry_faces(table, a: int, b: int) -> tuple[tuple[frozenset[int], Face], ...]:
    """A step-table entry's (cell, face) choices, each id cycle turned into its `Face`."""
    return tuple((cell, Face(tuple(map(table.vertices.__getitem__, cycle)))) for cell, cycle in table.entry(a, b)[0])


def test_enumeration_reaches_published_four_step_loop(order3_one_chord):
    # every step of the four-step witness is a (cell, face) choice of the search's
    # step table, so the depth-4 level of the search walks the whole chain
    from spinatlas.chains import step_table

    cg = order3_one_chord
    chain = mk_chain(
        P3,
        (CELL3, BASIC3_FACES["F1'"], P1t),
        (CELL3, BASIC3_FACES["F1'"], Pt),
        (CELL3, BASIC3_FACES["F3"], P3t),
        (CELL3, CHORD3_FACES["F5"], P3),
    )
    validate_structure(cg, chain)
    table = step_table(cg)
    current = chain.start
    for step in chain.steps:
        choices = entry_faces(table, table.vertices.index(current), table.vertices.index(step.target))
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
    from spinatlas.chains import step_table
    from spinatlas.classify import _admissible_evaluations

    plain = [
        (chain, evaluate(cg, chain)) for chain in enumerate_chains(cg, start, 3) if is_admissible(cg, chain).admissible
    ]
    assert plain
    table = step_table(cg)
    assert [(table.chain(start, path), perm) for path, perm in _admissible_evaluations(cg, start, 3)] == plain


def test_step_entries_list_the_faces_through_both_vertices():
    from spinatlas.chains import StepTable
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
                assert entry_faces(table, a, b) == choices
                pairs += 1
    assert pairs == 5520


def test_step_table_fill_matches_the_direct_builder():
    # orders <= 3 build the map directly from the Face; from order 4 on `fill` lifts it from ids
    from spinatlas.chains import StepTable
    from spinatlas.faces import _build_face_map

    maps = 0
    for order in range(2, 6):
        for j in range(order + 2):
            cg = ConnectionGraph(order, frozenset(range(j, order + 1)))
            table = StepTable(cg)
            for a, b in itertools.permutations(range(len(table.vertices)), 2):
                for k, (cell, face) in enumerate(entry_faces(table, a, b)):
                    direct = _build_face_map(cg, cell, face, table.vertices[a], table.vertices[b])
                    assert table.fill(a, b, k) == tuple(direct.get(c, -1) for c in cg.classes)
                    maps += 1
    assert maps == 33792


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
