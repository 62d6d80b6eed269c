"""Stabilizer chain, closure, recognition, predictions, and per-vertex group computation."""
from __future__ import annotations

import itertools
import math
import random
import re

import pytest

from conftest import P, P1, P1t, P2, P2t, P3, P4t, conjugate_face, cycle_type, parity, parse_verdict
from conftest import ReferenceCertificate, all_cycles, brute_closure, kept_perms, reference_search
from conftest import spy, stab_chain_search, top_slice_graphs
from spinatlas.classify import Engine, predict_group, searched_vertices, spin_group_at, verify_class
from spinatlas.graph import ConnectionGraph, Vertex, build_connection_graph
from spinatlas.groups import (
    C2,
    C3,
    GroupVerdict,
    StabChain,
    SymmetricCertificate,
    TRIVIAL,
    alternating,
    closure,
    compose,
    cycles,
    cycles_str,
    identity_perm,
    inverse,
    power_cycles,
    recognize,
    symmetric,
)
from spinatlas.params import GraphClass, enumerate_classes


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


def test_order2_chords_no_class_has_raise():
    for chords in ({1}, {0}, set()):
        with pytest.raises(ValueError, match=re.escape(f"no class has the order-2 chords {sorted(chords)}")):
            predict_group(ConnectionGraph(2, frozenset(chords)), P)


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
    assert res.verdict == C3 == predict_group(hexagon_one_chord, P2)
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
    group = set(closure(kept_perms(res), 4))
    assert len(group) == res.verdict.order
    assert set(closure(perms, 4)) == group


def test_conjugated_chains_evaluate_identically(order3_two_chords):
    from conftest import enumerate_chains
    from spinatlas.chains import ChainStep, SpinChain, evaluate

    cg = order3_two_chords
    for chain in itertools.islice(enumerate_chains(cg, P2, 2), 200):
        mirrored = SpinChain(
            chain.start.conjugate,
            tuple(ChainStep(s.cell, conjugate_face(s.face), s.target.conjugate) for s in chain.steps),
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
    # every search is exhaustive below S_n: it walks its whole budget, whatever it predicts
    from conftest import admissible_evaluations
    from spinatlas.chains import StepTable

    for cg, v in [(hexagon_one_chord, P2), (hexagon_one_chord, P), (hexagon_two_chords, P)]:
        res = spin_group_at(cg, v, max_steps=4)
        n = len(cg.label_classes(v))
        group = set(closure(kept_perms(res), n))
        evaluations = list(admissible_evaluations(StepTable(cg), v, 4))
        assert len(group) == res.verdict.order and all(perm in group for _, perm in evaluations)
        # every group here (C3 at P2, trivial elsewhere) stays below S_n, so nothing stops the
        # search, not even reaching the prediction: it consumes the whole budget
        assert res.verdict.order < math.factorial(n) and res.chains_tried == len(evaluations)
        assert res.verdict == predict_group(cg, v)
    assert spin_group_at(hexagon_one_chord, P2, max_steps=4).chains_tried == 20


def test_exhaustive_stops_at_the_full_symmetric_group(order3_one_chord):
    # from order 3 on the group is S_n, which no chain can exceed: the search stops at the chain
    # where a stabilizer chain first reaches it, and keeps that search's generators
    order4 = ConnectionGraph(4, frozenset({4}))
    for cg, v in [(order3_one_chord, P), (order3_one_chord, P3), (order4, P1), (order4, P4t)]:
        res, ref = spin_group_at(cg, v), stab_chain_search(cg, v)
        assert res.verdict == ref.verdict == symmetric(len(cg.label_classes(v)))
        assert (res.chains_tried, res.kept()) == (ref.chains_tried, tuple(zip(ref.paths, ref.generators)))


def test_search_settings_below_their_bounds_raise_value_errors():
    # a search of no chains would report the trivial group, against a predicted S4
    cg = build_connection_graph(GraphClass(8, 3, 1, (0, 0, 1)))
    with pytest.raises(ValueError, match="^--max-steps must be >= 2, got 1$"):
        spin_group_at(cg, P, max_steps=1)
    with pytest.raises(ValueError, match="^--max-steps must be >= 2, got 1$"):
        Engine(max_steps=1)


def test_a_step_table_of_another_graph_is_rejected():
    from spinatlas.chains import StepTable

    order4 = ConnectionGraph(4, frozenset({4}))
    other = StepTable(ConnectionGraph(4, frozenset({3, 4})))
    with pytest.raises(ValueError, match="cannot search"):
        spin_group_at(order4, P, table=other)
    own = StepTable(order4)
    assert spin_group_at(order4, P, table=own) == spin_group_at(order4, P)


@pytest.mark.parametrize("v", [Vertex(4, False), Vertex(-1, False), Vertex(2, 2)])
def test_a_vertex_not_in_the_graph_is_rejected(v):
    with pytest.raises(ValueError, match="is not a vertex of"):
        spin_group_at(ConnectionGraph(3, frozenset({3})), v)


def test_a_search_frees_its_walk_state_when_it_returns():
    # the walk's recursive closure is a reference cycle; with the cyclic collector off, only
    # breaking it on return lets the step table (and the walk's memo) go with its last reader
    import gc
    import weakref

    from spinatlas.chains import StepTable

    cg = ConnectionGraph(4, frozenset({4}))
    gc.disable()
    try:
        table = StepTable(cg)
        alive = weakref.ref(table)
        res = spin_group_at(cg, P, table=table)
        del table
        assert alive() is None
    finally:
        gc.enable()
    assert res.verdict == predict_group(cg, P)


def test_label_relabeling_conjugates_the_group(order3_one_chord):
    # relabeling the start's label positions conjugates every element; verdicts are unchanged
    res = spin_group_at(order3_one_chord, P3)
    relabel = (1, 2, 3, 0)
    gens = kept_perms(res)
    group = closure(gens, 4)
    assert len(group) == res.verdict.order
    conjugated = {compose(compose(inverse(relabel), g), relabel) for g in group}
    conjugated_gens = [compose(compose(inverse(relabel), g), relabel) for g in gens]
    assert set(closure(conjugated_gens, 4)) == conjugated
    assert recognize(len(conjugated), 4) == res.verdict


def test_pruned_search_agrees_with_plain_stream():
    """The group engine's pruned generator must yield exactly the admissible chains."""
    from conftest import admissible_evaluations, enumerate_chains
    from spinatlas.chains import StepTable, evaluate, is_admissible

    for order, connected, start in [(2, {2}, P2), (2, {1, 2}, P1t), (3, {3}, P3), (3, {2, 3}, P1)]:
        cg = ConnectionGraph(order, frozenset(connected))
        plain = {
            (chain, evaluate(cg, chain))
            for chain in enumerate_chains(cg, start, 3)
            if is_admissible(cg, chain).admissible
        }
        table = StepTable(cg)
        pruned = {(table.chain(start, path), perm) for path, perm in admissible_evaluations(table, start, 3)}
        assert plain
        assert pruned == plain


def cycle_perm(n, support):
    """The cycle on `support`, in order, as a permutation of n points."""
    perm = list(range(n))
    for a, b in zip(support, [*support[1:], support[0]]):
        perm[a] = b
    return tuple(perm)


def certify(perms, n):
    """Whether a `SymmetricCertificate` fed `perms` in order certifies S_n by the last of them."""
    certificate = SymmetricCertificate(n)
    return any([certificate.add(g) for g in perms])


def sympy_order(perms, n):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    perms = list(perms) or [identity_perm(n)]
    return combinatorics.PermutationGroup([combinatorics.Permutation(list(g)) for g in perms]).order()


def test_power_cycles_are_powers_of_their_permutation():
    for g, expected in [
        ((1, 0, 3, 4, 2), [[0, 1], [2, 3, 4]]),  # (0 1)(2 3 4): both
        ((1, 0, 3, 4, 5, 2), []),  # (0 1)(2 3 4 5): g^4 = 1, g^2 = (2 4)(3 5)
        ((1, 0, 3, 2, 5, 6, 4), [[4, 5, 6]]),  # two 2-cycles: neither
        ((1, 2, 0, 4, 5, 3, 7, 6), [[6, 7]]),  # two 3-cycles: neither
        ((1, 2, 3, 4, 5, 0, 7, 8, 6), []),  # a 6-cycle beside a 3-cycle
        ((0, 2, 1, 3, 5, 6, 4), [[1, 2], [4, 5, 6]]),  # (1 2)(4 5 6) beside the fixed points 0 and 3
    ]:
        # the nontrivial cycles, and the decomposition that lists the fixed points too
        assert power_cycles(cycles(g)) == power_cycles(all_cycles(g)) == expected, g
    rng = random.Random(20261018)
    found = fixed = 0
    for _ in range(400):
        n = rng.randint(2, 8)
        g = random_perm(rng, n)
        powers, h = set(), g
        while h not in powers:
            powers.add(h)
            h = compose(h, g)
        assert cycles(g) == [cyc for cyc in all_cycles(g) if len(cyc) > 1]
        assert power_cycles(cycles(g)) == power_cycles(all_cycles(g)), g
        fixed += len(cycles(g)) < len(all_cycles(g))
        for cyc in power_cycles(cycles(g)):
            found += 1
            assert len(cyc) in (2, 3) and cycle_perm(n, cyc) in powers, (g, cyc)
    assert found > 100 and fixed > 100


def certificate_parts(certificate):
    """A `SymmetricCertificate`'s partition of the points, as a set of frozensets."""
    by_name = {}
    for p, name in enumerate(certificate._part):
        by_name.setdefault(name, set()).add(p)
    return set(map(frozenset, by_name.values()))


def test_certificate_matches_the_full_path_reference():
    """Seeded random permutations, many moving only points of one part, before and after an odd one
    is met: such an add may change the parity and joins nothing.  After every add, the return value,
    the odd flag and the partition equal those of the reference, which decomposes every permutation
    in full, fixed points included."""
    rng = random.Random(20261020)
    one_part = {False: 0, True: 0}  # by whether an odd element was known before the add
    decided = 0
    for _ in range(400):
        n = rng.randint(2, 10)
        certificate, reference = SymmetricCertificate(n), ReferenceCertificate(n)
        for _ in range(rng.randint(1, 12)):
            kind = rng.random()
            if kind < 0.5:
                # a permutation of some points of one part: the parity changes, the parts must not
                part = sorted(rng.choice(sorted(reference.parts, key=min)))
                points = rng.sample(part, rng.randint(1, len(part)))
                image = rng.sample(points, len(points))
                g = list(range(n))
                for p, q in zip(points, image):
                    g[p] = q
                g = tuple(g)
            elif kind < 0.8:
                g = cycle_perm(n, rng.sample(range(n), rng.randint(2, min(n, 3))))
            else:
                g = random_perm(rng, n)
            moved = {p for p in range(n) if g[p] != p}
            if any(moved <= part for part in reference.parts):
                one_part[reference.odd] += 1
            result = certificate.add(g)
            assert result == reference.add(g), g
            assert certificate._odd == reference.odd, g
            assert certificate_parts(certificate) == reference.parts, g
            decided += result
    assert min(one_part.values()) >= 300 and decided >= 100, (one_part, decided)


def test_certificate_on_transpositions_and_three_cycles_matches_sympy():
    rng = random.Random(20261019)
    seen = {"S_n": 0, "A_n": 0, "not connected": 0}
    for _ in range(300):
        n = rng.randint(2, 8)
        lengths = (3,) if n >= 3 and rng.random() < 0.4 else (2, 3) if n >= 3 else (2,)
        supports = [rng.sample(range(n), rng.choice(lengths)) for _ in range(rng.randint(1, n + 1))]
        perms = [cycle_perm(n, s) for s in supports]
        order = sympy_order(perms, n)
        parts = {frozenset([p]) for p in range(n)}
        for s in supports:
            joined = {part for part in parts if part & set(s)}
            parts = (parts - joined) | {frozenset().union(*joined)}
        if len(parts) > 1:
            seen["not connected"] += 1
        elif any(len(s) == 2 for s in supports):
            seen["S_n"] += 1
            assert order == math.factorial(n) and certify(perms, n), supports
        else:
            # 3-cycles alone are even: they give A_n, which must not certify
            seen["A_n"] += 1
            assert order == math.factorial(n) // 2 and not certify(perms, n), supports
        if certify(perms, n):
            assert order == math.factorial(n), supports
    assert min(seen.values()) >= 20, seen


def test_certificate_on_random_permutations_matches_sympy():
    rng = random.Random(20261020)
    fired = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        perms = [random_perm(rng, n) for _ in range(rng.randint(1, 4))]
        if certify(perms, n):
            fired += 1
            assert sympy_order(perms, n) == math.factorial(n), perms
    assert fired >= 50
    # (2 3) and (0 2 3 1) give S4: the 4-cycle's powers hold no 2- or 3-cycle, but it maps
    # the transposition's support {2, 3} to {3, 1}, then {1, 0}, and is odd
    perms = [cycle_perm(4, [2, 3]), cycle_perm(4, [0, 2, 3, 1])]
    assert certify(perms, 4) and sympy_order(perms, 4) == 24


def test_parity_matches_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(20261022)
    odd = 0
    for _ in range(400):
        n = rng.randint(3, 12)
        perm = random_perm(rng, n)
        # even 3-cycles join every point into one part, so the certificate then waits on perm's parity alone
        certificate = SymmetricCertificate(n)
        assert not any([certificate.add(cycle_perm(n, [k, k + 1, k + 2])) for k in range(n - 2)])
        expected = combinatorics.Permutation(list(perm)).is_odd
        assert certificate.add(perm) == expected, perm
        odd += expected
    assert 150 < odd < 250
    # once its parts are joined, the certificate waits on parity alone
    certificate = SymmetricCertificate(5)
    assert not certificate.add(cycle_perm(5, [0, 1, 2])) and not certificate.add(cycle_perm(5, [2, 3, 4]))
    assert not certificate.add(cycle_perm(5, [0, 1, 2, 3, 4])) and not certificate.add((1, 0, 3, 2, 4))
    assert certificate.add(cycle_perm(5, [0, 3, 1, 4]))


def test_certificate_needs_an_odd_element_and_a_cycle_in_the_group():
    even = [cycle_perm(5, [0, 1, 2]), cycle_perm(5, [2, 3, 4])]
    assert not certify(even, 5) and sympy_order(even, 5) == 60
    # S3 on the block {0, 2, 4}, and (0 1)(2 3 4 5), which swaps it with the block {1, 3, 5}:
    # the wreath product of order 72; joining (0 1) would connect the blocks
    blocks = [cycle_perm(6, [0, 2, 4]), cycle_perm(6, [0, 2]), (1, 0, 3, 4, 5, 2)]
    assert not certify(blocks, 6) and sympy_order(blocks, 6) == 72
    assert certify([*even, cycle_perm(5, [3, 4])], 5)


def _representatives(genera):
    graphs = sorted({build_connection_graph(gc) for genus in genera for gc in enumerate_classes(genus)})
    return [(cg, v) for cg in graphs for v in searched_vertices(cg)]


def test_certificate_stops_where_the_stabilizer_chain_does_and_the_lazy_fields_match_it():
    """Every searched (graph, vertex) of genus 2..16: the certificate fires on the chain at which
    a stabilizer chain first reaches S_n, and the kept generators read from the sift equal that search's."""
    from spinatlas.chains import StepTable

    reps = _representatives(range(2, 17))
    table = None
    for cg, v in reps:
        if table is None or table.cg != cg:
            # the graph's one step table, which both searches walk
            table = StepTable(cg)
        res = spin_group_at(cg, v, table=table)
        ref = stab_chain_search(cg, v, table=table)
        # a verdict carries its group's order, so equal verdicts mean equal orders
        assert (res.verdict, res.kept(), res.chains_tried) == (
            ref.verdict,
            tuple(zip(ref.paths, ref.generators)),
            ref.chains_tried,
        ), (cg, v)
        if cg.order <= 8:
            # each read of `kept()` or `witnesses` is one sift again, so the larger graphs check one read alone
            assert (kept_perms(res), tuple(path for path, _ in res.kept())) == (ref.generators, ref.paths)
            assert res.witnesses == tuple(table.chain(v, path) for path in ref.paths)
        predicted = predict_group(cg, v)
        if predicted == symmetric(len(cg.label_classes(v))):
            assert res.verdict == predicted
    assert len(reps) == 136


def test_every_vertex_to_order_6_matches_the_stabilizer_chain_search():
    """Every vertex, tilded ones too, of every top-slice graph of orders 0..6 (280 vertices): the
    verdict, order and kept generators (which `classify` prints) equal the stabilizer-chain search's,
    and so do the chains tried, but for the two vertices where the certificate proves S_n one chain
    after the stabilizer chain is full."""
    from spinatlas.chains import StepTable

    late, vertices = {}, 0
    for order in range(7):
        for cg in top_slice_graphs(order):
            table = StepTable(cg)
            for v in cg.vertices():
                res = spin_group_at(cg, v, table=table)
                ref = stab_chain_search(cg, v, table=table)
                kept = tuple(zip(ref.paths, ref.generators))
                assert (res.verdict, res.kept()) == (ref.verdict, kept), (cg, v)
                # the certificate is sound, so it can never fire before the stabilizer chain is full
                assert res.chains_tried >= ref.chains_tried
                if res.chains_tried > ref.chains_tried:
                    late[order, tuple(sorted(cg.connected)), v.name] = (res.chains_tried, ref.chains_tried)
                vertices += 1
    assert vertices == 280
    assert late == {(3, (1, 2, 3), "P2~"): (13, 12), (3, (1, 2, 3), "P3~"): (13, 12)}


def test_a_search_never_reads_the_prediction(monkeypatch):
    """Every vertex of every top-slice graph of orders 0..6 (280 vertices): with the prediction made
    to raise, each search still finds, meets and tries what it does unpatched, so no verdict can
    be shaped by the closed form it is checked against."""
    from spinatlas import classify
    from spinatlas.chains import StepTable

    graphs = [cg for order in range(7) for cg in top_slice_graphs(order)]

    def searches():
        out = {}
        for cg in graphs:
            table = StepTable(cg)
            for v in cg.vertices():
                res = spin_group_at(cg, v, table=table)
                out[cg, v] = res.verdict, res.distinct, res.chains_tried
        return out

    plain = searches()
    assert len(plain) == 280

    def unreadable(cg, v):
        raise AssertionError(f"the search at {v.name} of {cg} read the prediction")

    monkeypatch.setattr(classify, "predict_group", unreadable)
    assert searches() == plain


def test_witness_oracle_over_orders_3_to_8(capsys):
    # at both searched vertices of every top-slice graph, each kept generator's chain, evaluated from its
    # faces alone, gives the generator, and sympy's order of the kept generators is the search's and S_n's
    from witness_oracle import main as witness_oracle

    assert witness_oracle(["3..8"]) == 0
    assert capsys.readouterr().out.startswith("39 graphs, 72 vertices, 0 differences, ")


def test_a_repeated_walk_state_is_counted_not_walked(monkeypatch):
    # order 1 with chords {0, 1} at P: every one of the 273 chains is the identity, so the
    # search walks its whole budget, and most of its states are reached more than once
    import conftest
    from spinatlas import classify

    cg = ConnectionGraph(1, frozenset({0, 1}))
    steps = [spy(monkeypatch, walker, "carry") for walker in (classify, conftest)]
    closes = spy(monkeypatch, classify, "close_out")
    res, ref = spin_group_at(cg, P), reference_search(cg, P)
    assert (res.chains_tried, res.distinct, res.verdict) == (273, (), TRIVIAL)
    assert (ref.chains_tried, ref.distinct) == (273, ())
    # the reference walk takes a step per chain prefix, each through `carry`; the search, only the steps
    # below each new state, its last step back to the base through `close_out` instead: 63 in all
    assert (len(steps[0]), len(closes), len(steps[1])) == (60, 3, 810)


def test_kept_stops_at_the_first_full_order():
    # order 3 with chords {2, 3} at P2: (3 4) and (1 3 4 2) give S4 at chain 3
    cg = ConnectionGraph(3, frozenset({2, 3}))
    res = spin_group_at(cg, P2)
    assert (res.chains_tried, len(res.kept())) == (3, 2)
    # a permutation met after the group is full is never kept
    extra = (((0, 0), (5, 0)), cycle_perm(4, [0, 2, 1]))
    later = res._replace(distinct=res.distinct + (extra,), chains_tried=res.chains_tried + 1)
    assert later.kept() == res.kept()


def test_kept_generator_orders_match_sympy():
    """A seeded sample of searched vertices of genus 2..12, tilded ones at order <= 6 too: the
    group of the kept generators, read from the sift, has the result's order."""
    reps = _representatives(range(2, 13))
    tilded = [(cg, v.conjugate) for cg, v in reps if cg.order <= 6]
    sample = random.Random(20261021).sample(reps + tilded, 24)
    for cg, v in sample:
        res = spin_group_at(cg, v)
        assert sympy_order(kept_perms(res), len(cg.label_classes(v))) == res.verdict.order, (cg, v)
