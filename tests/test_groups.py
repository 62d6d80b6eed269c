"""Stabilizer chain, closure, recognition, predictions, and per-vertex group computation."""
from __future__ import annotations

import itertools
import math
import random

import pytest

from conftest import P, P1, P1t, P2, P2t, P3, P3t, P4, P4t, Pt, V, cycle_type, parity, parse_verdict
from spinatlas.classify import predict_group, spin_group_at, verify_class
from spinatlas.graph import ConnectionGraph, Vertex, build_connection_graph
from spinatlas.groups import (
    C2,
    C3,
    CapExceededError,
    GroupVerdict,
    StabChain,
    TRIVIAL,
    alternating,
    closure,
    compose,
    cycles_str,
    identity_perm,
    inverse,
    recognize,
    symmetric,
)
from spinatlas.params import GraphClass, enumerate_classes


def brute_closure(gens, n):
    """Oracle: saturate by multiplying the newest elements by each generator until nothing new
    appears.  In a finite group every element is a product of generators, so this is the group."""
    gens = [tuple(g) for g in gens]
    elems = {identity_perm(n), *gens}
    fresh = set(elems)
    while fresh:
        fresh = {compose(a, g) for a in fresh for g in gens} - elems
        elems |= fresh
    return frozenset(elems)


def random_perm(rng, n):
    seq = list(range(n))
    rng.shuffle(seq)
    return tuple(seq)


def test_closure_fixtures():
    assert closure([], 3) == (identity_perm(3),)
    assert len(closure([(1, 2, 0)], 3)) == 3
    # frozen from brute_closure: a transposition and a 3-cycle give all 6 elements
    assert len(closure([(1, 0, 2), (1, 2, 0)], 3)) == 6
    assert set(closure([(1, 0, 2), (1, 2, 0)], 3)) == set(brute_closure([(1, 0, 2), (1, 2, 0)], 3))


def test_closure_matches_brute_force_randomized():
    rng = random.Random(20240817)
    for _ in range(300):
        n = rng.randint(1, 5)
        gens = [random_perm(rng, n) for _ in range(rng.randint(0, 3))]
        assert set(closure(gens, n)) == brute_closure(gens, n)


def sifted_chain(gens, n):
    chain = StabChain(n)
    for g in gens:
        chain.add(g)
    return chain


def test_stab_chain_matches_brute_closure():
    rng = random.Random(20261017)
    for _ in range(200):
        n = rng.randint(1, 6)
        gens = [random_perm(rng, n) for _ in range(rng.randint(0, 3))]
        chain = sifted_chain(gens, n)
        group = brute_closure(gens, n)
        assert chain.order() == len(group)
        for perm in itertools.permutations(range(n)):
            assert (perm in chain) == (perm in group)


def test_stab_chain_add_reports_new_members():
    chain = StabChain(4)
    assert not chain.add(identity_perm(4))
    assert chain.add((1, 2, 0, 3))
    assert not chain.add((2, 0, 1, 3))  # the square of the 3-cycle is already a member
    assert chain.add((1, 0, 2, 3))
    assert chain.order() == 6
    assert (0, 1, 3, 2) not in chain


def test_stab_chain_matches_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(7)
    cases = [
        (n, [(1, 0, *range(2, n)), (*range(1, n), 0)]) for n in (9, 10)  # S9 and S10 from two generators
    ]
    for _ in range(60):
        n = rng.randint(2, 10)
        cases.append((n, [random_perm(rng, n) for _ in range(rng.randint(1, 3))]))
    for n, gens in cases:
        chain = sifted_chain(gens, n)
        oracle = combinatorics.PermutationGroup([combinatorics.Permutation(list(g)) for g in gens])
        assert chain.order() == oracle.order(), gens
        probes = [*gens, *(random_perm(rng, n) for _ in range(20))]
        probes += [compose(a, b) for a, b in zip(gens, reversed(gens))]
        for perm in probes:
            assert (perm in chain) == oracle.contains(combinatorics.Permutation(list(perm))), (gens, perm)


def test_full_orbit_cut_off_matches_sympy():
    """Add results, orders and membership while the tail levels fill up, and after S_n is reached."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    Perm, Group = combinatorics.Permutation, combinatorics.PermutationGroup
    rng = random.Random(20261018)
    tails_full = 0
    for _ in range(40):
        n = rng.randint(2, 10)
        k = rng.randint(0, n - 2)
        # a transposition and a cycle on k..n-1 make every level from k on full, below it nothing moves
        seq = [(*range(k), k + 1, k, *range(k + 2, n)), (*range(k), *range(k + 1, n), k)]
        if k >= 2:
            seq.append((1, 0, *range(2, n)))  # a low level grows, still short of full
        seq += [random_perm(rng, n) for _ in range(rng.randint(1, 3))]
        seq += [(1, 0, *range(2, n)), (*range(1, n), 0)]  # S_n by here at the latest
        seq += [random_perm(rng, n) for _ in range(3)]
        chain, gens = StabChain(n), [identity_perm(n)]
        for g in seq:
            before = Group([Perm(list(h)) for h in gens])
            assert chain.add(g) == (not before.contains(Perm(list(g)))), (gens, g)
            gens.append(g)
            group = Group([Perm(list(h)) for h in gens])
            assert chain.order() == group.order(), gens
            tails_full += chain._full <= k
            probes = [random_perm(rng, n) for _ in range(10)]
            probes += [(*range(k), *(k + x for x in random_perm(rng, n - k))) for _ in range(5)]
            probes += [compose(rng.choice(gens), rng.choice(gens)) for _ in range(5)]
            for perm in probes:
                assert (perm in chain) == group.contains(Perm(list(perm))), (gens, perm)
        assert chain.order() == math.factorial(n)
    assert tails_full > 200


def test_closure_cap():
    with pytest.raises(CapExceededError):
        closure([(1, 0, 2, 3), (1, 2, 3, 0)], 4, cap=10)


def test_closure_rejects_non_permutations():
    with pytest.raises(ValueError):
        closure([(0, 0, 1)], 3)


def test_perm_helpers():
    assert compose((1, 2, 0), (2, 0, 1)) == (0, 1, 2)
    assert inverse((1, 2, 0)) == (2, 0, 1)
    assert cycle_type((1, 0, 3, 2)) == (2, 2)
    assert parity((1, 0, 3, 2)) == 0
    assert parity((1, 0, 2)) == 1
    assert cycles_str((1, 2, 0)) == "(1 2 3)"
    assert cycles_str(identity_perm(4)) == "()"


def test_recognize():
    assert recognize(len(closure([], 3)), 3) == TRIVIAL
    assert recognize(len(closure([(1, 0)], 2)), 2) == C2
    assert recognize(len(closure([(1, 2, 0)], 3)), 3) == C3
    assert recognize(len(closure([(1, 0, 2, 3), (1, 2, 3, 0)], 4)), 4) == symmetric(4)
    assert recognize(len(closure([(1, 2, 0, 3), (0, 2, 3, 1)], 4)), 4) == alternating(4)
    a5 = closure([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)], 5)
    assert all(parity(g) == 0 for g in a5)
    assert recognize(len(a5), 5) == alternating(5)
    v4 = closure([(1, 0, 3, 2), (2, 3, 0, 1)], 4)
    assert recognize(len(v4), 4) == GroupVerdict("other", 0, 4)
    d4 = closure([(1, 2, 3, 0), (0, 3, 2, 1)], 4)
    assert recognize(len(d4), 4) == GroupVerdict("other", 0, 8)
    assert str(recognize(len(d4), 4)) == "G[8]"


def test_verdict_strings_round_trip():
    for verdict in (TRIVIAL, C2, C3, alternating(4), symmetric(5), GroupVerdict("other", 0, 8)):
        assert parse_verdict(str(verdict)) == verdict


# ---------------------------------------------------------------- predictions

def test_predictions_low_order():
    for order, connected in [(0, {0}), (1, {1}), (1, {0, 1})]:
        cg = ConnectionGraph(order, frozenset(connected))
        assert all(predict_group(cg, v) == TRIVIAL for v in cg.vertices())


def test_predictions_order2():
    one = ConnectionGraph(2, frozenset({2}))
    assert predict_group(one, P2) == C3
    assert predict_group(one, P2t) == C3
    assert predict_group(one, P) == TRIVIAL
    assert predict_group(one, P1t) == TRIVIAL
    two = ConnectionGraph(2, frozenset({1, 2}))
    assert predict_group(two, P1t) == symmetric(3)
    assert predict_group(two, P) == TRIVIAL
    full = ConnectionGraph(2, frozenset({0, 1, 2}))
    assert all(predict_group(full, v) == symmetric(3) for v in full.vertices())


def test_predictions_by_degree():
    cg = ConnectionGraph(3, frozenset({3}))
    assert predict_group(cg, P) == symmetric(3)
    assert predict_group(cg, P3) == symmetric(4)
    big = ConnectionGraph(5, frozenset({0, 1, 2, 3, 4, 5}))
    assert all(predict_group(big, v) == symmetric(6) for v in big.vertices())
    sparse = ConnectionGraph(4, frozenset({4}))
    assert predict_group(sparse, P1) == symmetric(4)
    assert predict_group(sparse, P4t) == symmetric(5)


# ---------------------------------------------------------------- computed groups

def test_spin_groups_order2_patterns(hexagon_one_chord, hexagon_two_chords, hexagon_full):
    res = spin_group_at(hexagon_one_chord, P2)
    assert res.verdict == C3 and res.match
    assert spin_group_at(hexagon_one_chord, P).verdict == TRIVIAL
    assert spin_group_at(hexagon_one_chord, P1t).verdict == TRIVIAL
    assert spin_group_at(hexagon_two_chords, P1t).verdict == symmetric(3)
    assert spin_group_at(hexagon_two_chords, P).verdict == TRIVIAL
    assert spin_group_at(hexagon_full, P2).verdict == symmetric(3)


def test_spin_groups_order3_patterns(order3_one_chord, order3_three_chords):
    assert spin_group_at(order3_one_chord, P).verdict == symmetric(3)
    assert spin_group_at(order3_one_chord, P3).verdict == symmetric(4)
    assert spin_group_at(order3_three_chords, P2).verdict == symmetric(4)
    assert spin_group_at(order3_three_chords, P).verdict == symmetric(3)


def test_witnesses_are_enumerable_chains(order3_one_chord):
    from spinatlas.chains import evaluate, is_admissible, validate_structure

    res = spin_group_at(order3_one_chord, P3)
    assert res.witnesses
    for chain in res.witnesses:
        validate_structure(order3_one_chord, chain)
        assert chain.start == P3
        assert is_admissible(order3_one_chord, chain).admissible
    perms = [evaluate(order3_one_chord, chain) for chain in res.witnesses]
    group = set(closure(res.generators, 4))
    assert len(group) == res.order
    assert set(closure(perms, 4)) == group


def test_conjugate_vertices_get_equal_verdicts():
    for order, connected in [(2, {2}), (2, {1, 2}), (3, {3}), (3, {2, 3}), (4, {4}), (4, {3, 4})]:
        cg = ConnectionGraph(order, frozenset(connected))
        for v in cg.vertices():
            if not v.tilded:
                assert spin_group_at(cg, v).verdict == spin_group_at(cg, v.conjugate).verdict


def test_conjugated_chains_evaluate_identically(order3_two_chords):
    from conftest import enumerate_chains
    from spinatlas.chains import ChainStep, SpinChain, evaluate

    cg = order3_two_chords
    for chain in itertools.islice(enumerate_chains(cg, P2, 2), 200):
        mirrored = SpinChain(
            chain.start.conjugate,
            tuple(ChainStep(s.cell, s.face.conjugate(), s.target.conjugate) for s in chain.steps),
        )
        assert evaluate(cg, mirrored) == evaluate(cg, chain)


def test_verify_class_matches_everywhere():
    for genus in range(2, 8):
        for gc in enumerate_classes(genus):
            assert verify_class(gc).match_all, gc


def test_fully_chorded_classes_get_full_symmetric():
    for gc in [GraphClass(5, 2, 1, (0, 0)), GraphClass(8, 3, 1, (0, 0, 1))]:
        cg = build_connection_graph(gc)
        if cg.connected != set(cg.classes):
            continue
        rep = verify_class(gc)
        assert all(str(row.computed) == f"S{gc.order + 1}" for row in rep.rows)


def test_exhaustive_mode_never_overshoots(hexagon_one_chord, hexagon_two_chords):
    from spinatlas.classify import _admissible_evaluations

    for cg, v in [(hexagon_one_chord, P2), (hexagon_one_chord, P), (hexagon_two_chords, P)]:
        res = spin_group_at(cg, v, max_steps=4, exhaustive=True)
        n = len(cg.label_classes(v))
        group = set(closure(res.generators, n))
        assert len(group) == res.order <= res.predicted.order
        evaluations = list(_admissible_evaluations(cg, v, 4))
        assert all(perm in group for _, perm in evaluations)
        # every group here (C3 at P2, trivial elsewhere) stays below S_n, so nothing
        # stops the exhaustive search: it consumes the whole budget
        assert res.order < math.factorial(n) and res.chains_tried == len(evaluations)
        assert res.verdict == res.predicted


def test_exhaustive_stops_at_the_full_symmetric_group(order3_one_chord):
    # from order 3 on the prediction is S_n, which no chain can exceed, so the
    # exhaustive search stops exactly where the early-stopping one does
    order4 = ConnectionGraph(4, frozenset({4}))
    for cg, v in [(order3_one_chord, P), (order3_one_chord, P3), (order4, P1), (order4, P4t)]:
        early = spin_group_at(cg, v)
        full = spin_group_at(cg, v, exhaustive=True)
        assert full.order == math.factorial(len(cg.label_classes(v)))
        assert full.generators == early.generators
        assert full.witnesses == early.witnesses
        assert full.chains_tried == early.chains_tried


def test_cap_guard():
    cg = ConnectionGraph(5, frozenset({5}))
    with pytest.raises(CapExceededError):
        spin_group_at(cg, P, closure_cap=10)


def test_label_relabeling_conjugates_the_group(order3_one_chord):
    # relabeling the start's label positions conjugates every element; verdicts are unchanged
    res = spin_group_at(order3_one_chord, P3)
    relabel = (1, 2, 3, 0)
    group = closure(res.generators, 4)
    assert len(group) == res.order
    conjugated = {compose(compose(inverse(relabel), g), relabel) for g in group}
    conjugated_gens = [compose(compose(inverse(relabel), g), relabel) for g in res.generators]
    assert set(closure(conjugated_gens, 4)) == conjugated
    assert recognize(len(conjugated), 4) == res.verdict


def test_pruned_search_agrees_with_plain_stream():
    """The group engine's pruned generator must yield exactly the admissible chains."""
    from conftest import enumerate_chains
    from spinatlas.chains import evaluate, is_admissible, step_table
    from spinatlas.classify import _admissible_evaluations

    for order, connected, start in [(2, {2}, P2), (2, {1, 2}, P1t), (3, {3}, P3), (3, {2, 3}, P1)]:
        cg = ConnectionGraph(order, frozenset(connected))
        plain = {
            (chain, evaluate(cg, chain))
            for chain in enumerate_chains(cg, start, 3)
            if is_admissible(cg, chain).admissible
        }
        table = step_table(cg)
        pruned = {(table.chain(start, path), perm) for path, perm in _admissible_evaluations(cg, start, 3)}
        assert plain
        assert pruned == plain
