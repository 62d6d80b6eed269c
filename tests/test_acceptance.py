"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""
from __future__ import annotations

import itertools
import random
import time

import pytest

from conftest import (
    BASIC3_FACES,
    CELL2,
    CELL3,
    CHORD2_FACES,
    CHORD3_FACES,
    F,
    G1,
    G2,
    G3,
    G4,
    G5,
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
    REVERSE_CASES,
    SAMPLE_GRAPHS,
    around_face,
    brute_closure,
    conjugate_face,
    cycle_type,
    enumerate_chains,
    inadmissible_values,
    mk_chain,
    parity,
    parse_record,
    reversal_holds,
    skeleton_group,
)
from spinatlas.chains import SpinChain, StepTable, evaluate, is_admissible
from spinatlas.classify import Engine, spin_group_at, verify_class
from spinatlas.cli import main
from spinatlas.faces import enumerate_faces, cells_containing, vertex_id
from spinatlas.graph import ConnectionGraph
from spinatlas.groups import closure, cycles_str, identity_perm
from spinatlas.params import InvalidClassError, enumerate_classes


def report(number: int, ok: bool, detail: str, elapsed: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {number}: {status} - {detail}{timing}")
    assert ok, f"criterion {number} failed: {detail}"


def misclassified(genera, orders, want) -> list[tuple]:
    """Each `verify` row of the classes of the given genera and orders (below the genus) whose computed
    verdict is not `want(gc, row)`, or that does not match its prediction."""
    engine = Engine()
    return [
        (gc, row.vertex.name, str(row.computed))
        for genus in genera
        for order in orders
        if order < genus
        for gc in enumerate_classes(genus, order)
        for row in verify_class(gc, engine=engine).rows
        if str(row.computed) != want(gc, row) or not row.match
    ]


def test_criterion_1_order2_classification():
    def want(gc, row) -> str:
        if gc.k[0] == gc.k[1] == 1:
            return "C3" if row.vertex.cls == 2 else "1"
        if gc.k[0] == 1:
            return "S3" if row.vertex.cls in (1, 2) else "1"
        return "S3"

    t0 = time.perf_counter()
    failures = misclassified(range(3, 9), (2,), want)
    elapsed = time.perf_counter() - t0
    report(1, not failures and elapsed < 1.0, f"order-2 case split over genus 3..8, {elapsed:.2f}s < 1s", elapsed)


def test_criterion_2_order3_classification():
    t0 = time.perf_counter()
    failures = misclassified(range(4, 9), (3,), lambda gc, row: "S3" if row.degree == 3 else "S4")
    elapsed = time.perf_counter() - t0
    report(2, not failures and elapsed < 5.0, f"order-3 S3/S4 split over genus 4..8, {elapsed:.2f}s < 5s", elapsed)


def test_criterion_3_order4_and_5_classification():
    t0 = time.perf_counter()
    failures = misclassified(range(5, 10), (4, 5), lambda gc, row: f"S{row.degree}")
    elapsed = time.perf_counter() - t0
    report(3, not failures and elapsed < 60.0, f"orders 4-5 S(r)/S(r+1) split up to genus 9, {elapsed:.2f}s < 60s", elapsed)


def test_criterion_4_low_order_triviality():
    t0 = time.perf_counter()
    failures = misclassified(range(2, 9), (0, 1), lambda gc, row: "1")
    elapsed = time.perf_counter() - t0
    report(4, not failures and elapsed < 1.0, f"orders 0-1 trivial everywhere, {elapsed:.2f}s < 1s", elapsed)


def _witnesses():
    """Published chain examples: label, graph, chain and the exact permutation it evaluates to, whose cycle
    type is the published one (its one-based cycles, as `groups.cycles_str` prints them, in the comment)."""
    r2a = ConnectionGraph(2, frozenset({2}))
    r2b = ConnectionGraph(2, frozenset({1, 2}))
    r2c = ConnectionGraph(2, frozenset({0, 1, 2}))
    r3a = ConnectionGraph(3, frozenset({3}))
    r3b = ConnectionGraph(3, frozenset({2, 3}))
    r4a = ConnectionGraph(4, frozenset({4}))
    r4b = ConnectionGraph(4, frozenset({3, 4}))

    fa = F(P, P1, P2t, P2)
    f1b, f3b = F(P, P1, P1t, P2), F(P1, P1t, P2, P2t)
    f1c, f2c = F(P, Pt, P2t, P1), F(P, Pt, P2t, P2)
    kc, tp12 = F(P, P1, P2t, P2), F(P1, P1t, P2, P2t)
    e1, e2, e3 = F(P, P2, P4t, P4), F(P, P1, P4t, P4), F(P1t, P2, P4t, P4)
    e2b = F(P, P1, P3t, P4)
    h1, h2 = F(P, P2, P3t, P3), F(P3, P4t, P4, P3t)
    h3, h4 = F(P4, P3t, P3, P2t), F(P3t, P2, P4t, P3)

    return [
        ("3.2a three-cycle", r2a, mk_chain(
            P2, (CELL2, fa, P2t), (CELL2, conjugate_face(fa), P2)), (1, 2, 0)),  # (1 2 3)
        # the three-cycle walked backwards, its inverse
        ("3.2a inverse", r2a, mk_chain(P2, (CELL2, conjugate_face(fa), P2t), (CELL2, fa, P2)), (2, 0, 1)),  # (1 3 2)
        ("3.2b swap one", r2b, mk_chain(P1t, (CELL2, f1b, P1), (CELL2, f3b, P1t)), (2, 1, 0)),  # (1 3)
        ("3.2b swap two", r2b, mk_chain(P1t, (CELL2, conjugate_face(f1b), P1), (CELL2, f3b, P1t)), (1, 0, 2)),  # (1 2)
        ("3.2c swap", r2c, mk_chain(P1, (CELL2, kc, P2t), (CELL2, tp12, P1)), (2, 1, 0)),  # (1 3)
        ("3.2c three-cycle", r2c, mk_chain(P, (CELL2, f1c, P2t), (CELL2, f2c, P)), (1, 2, 0)),  # (1 2 3)
        ("4.1 swap", r3a, mk_chain(
            P, (CELL3, CHORD3_FACES["F5"], P2), (CELL3, BASIC3_FACES["F1"], P)), (2, 1, 0)),  # (1 3)
        ("4.1 three-cycle", r3a, mk_chain(
            P3, (CELL3, CHORD3_FACES["F4"], P3t), (CELL3, CHORD3_FACES["F5"], P3)), (0, 2, 3, 1)),  # (2 3 4)
        ("4.1 four-cycle", r3a, mk_chain(
            P3, (CELL3, BASIC3_FACES["F1'"], P1t), (CELL3, BASIC3_FACES["F1'"], Pt),
            (CELL3, BASIC3_FACES["F3"], P3t), (CELL3, CHORD3_FACES["F5"], P3)), (1, 2, 3, 0)),  # (1 2 3 4)
        ("4.2 three-cycle", r3b, mk_chain(
            P, (CELL3, BASIC3_FACES["F3'"], P2), (CELL3, CHORD2_FACES["F10"], P3t),
            (CELL3, CHORD3_FACES["F4"], P1), (CELL3, BASIC3_FACES["F2"], P)), (1, 2, 0)),  # (1 2 3)
        ("4.2 swap short", r3b, mk_chain(
            P, (CELL3, CHORD2_FACES["F8"], P1), (CELL3, BASIC3_FACES["F1"], P)), (2, 1, 0)),  # (1 3)
        ("4.2 swap long", r3b, mk_chain(
            P, (CELL3, BASIC3_FACES["F3'"], P2), (CELL3, CHORD2_FACES["F10"], P3t),
            (CELL3, CHORD2_FACES["F10"], P3), (CELL3, BASIC3_FACES["F2"], P)), (2, 1, 0)),  # (1 3)
        ("4.2 four-cycle", r3b, mk_chain(
            P2, (CELL3, CHORD2_FACES["F10"], P3t), (CELL3, BASIC3_FACES["F2'"], P2)), (2, 0, 3, 1)),  # (1 3 4 2)
        ("5.I three-cycle", r4a, mk_chain(
            P, (G1, e1, P4), (G3, e2, P4t), (G5, e3, P2), (G1, e1, P)), (3, 1, 0, 2)),  # (1 4 3)
        ("5.I swap", r4a, mk_chain(P, (G3, e2, P1), (G2, e2b, P)), (2, 1, 0, 3)),  # (1 3)
        ("5.II swap", r4b, mk_chain(
            P2, (G4, h1, P3t), (G2, h2, P4), (G5, h3, P3t), (G5, h4, P2)), (1, 0, 2, 3)),  # (1 2)
    ]


def _blocked_witnesses():
    """Published chains that do not compose: label, graph, chain and the step at which its labels stop
    matching (the `DomainMismatch` of `is_admissible`)."""
    r3a = ConnectionGraph(3, frozenset({3}))
    r3b = ConnectionGraph(3, frozenset({2, 3}))
    r4a = ConnectionGraph(4, frozenset({4}))
    e1 = F(P, P2, P4t, P4)
    e2 = F(P, P1, P4t, P4)
    f2g = F(P4, P3t, Pt, P1t)
    f3g = F(P3t, P1, P4t, P2)
    return [
        ("4.1 blocked", r3a, mk_chain(P, (CELL3, CHORD3_FACES["F5"], P3), (CELL3, BASIC3_FACES["F2"], P)), 2),
        ("4.2 blocked", r3b, mk_chain(
            P, (CELL3, BASIC3_FACES["F3'"], P2), (CELL3, CHORD2_FACES["F10"], P3t),
            (CELL3, CHORD3_FACES["F6"], P1), (CELL3, BASIC3_FACES["F2"], P)), 3),
        ("5.I blocked", r4a, mk_chain(P, (G1, e1, P4), (G2, f2g, P3t), (G5, f3g, P1), (G3, e2, P)), 2),
    ]


def test_criterion_5_published_chain_witnesses():
    failures = []
    for label, cg, chain, want in _witnesses():
        perm = evaluate(cg, chain)
        if not is_admissible(cg, chain).admissible:
            failures.append(f"{label}: unexpectedly inadmissible")
        elif perm != want:
            failures.append(f"{label}: got {perm}, {cycles_str(perm)}, want {want}, {cycles_str(want)}")
    for label, cg, chain, step in _blocked_witnesses():
        verdict = is_admissible(cg, chain)
        if verdict != (False, step, "DomainMismatch"):
            failures.append(f"{label}: {verdict}, want a DomainMismatch at step {step}")
        elif evaluate(cg, chain) != identity_perm(len(cg.label_classes(chain.start))):
            failures.append(f"{label}: inadmissible chain moved labels")
    detail = "published witnesses reproduce their exact permutations and blocked steps"
    report(5, not failures, ("; ".join(failures) or detail) + " (one documented discrepancy checked separately)")


def _discrepant_loop() -> tuple[ConnectionGraph, SpinChain]:
    """The published six-step loop at P2 of the order-3 graph with chords {2, 3}: README, section "Criterion 5"."""
    cg = ConnectionGraph(3, frozenset({2, 3}))
    return cg, mk_chain(
        P2,
        (CELL3, CHORD2_FACES["F7"], P),
        (CELL3, BASIC3_FACES["F2"], P3),
        (CELL3, CHORD2_FACES["F10"], P2t),
        (CELL3, CHORD2_FACES["F8"], P1),
        (CELL3, CHORD2_FACES["F9"], P3t),
        (CELL3, CHORD2_FACES["F10"], P2),
    )


@pytest.mark.xfail(
    strict=True,
    reason="documented source inconsistency: the six-step loop built from the published face "
    "identifications evaluates to an even double swap, not a 3-cycle; see README, section \"Criterion 5\"",
)
def test_criterion_5_known_discrepant_witness():
    cg, chain = _discrepant_loop()
    assert is_admissible(cg, chain).admissible
    assert cycle_type(evaluate(cg, chain)) == (3, 1)


def test_criterion_5_one_face_edits_of_the_discrepant_witness():
    # the discrepant loop rebuilt from the step table's choices, and each loop that takes one other
    # choice at one step: exactly four of the 28 are admissible 3-cycles
    cg, published = _discrepant_loop()
    table = StepTable(cg)
    ids = [table.vertices.index(v) for v in published.loop()]
    choices = [[choice for choice, _ in table.steps(a, b)] for a, b in zip(ids, ids[1:])]
    assert [len(listed) for listed in choices] == [5, 5, 7, 5, 5, 7]
    taken = [(s.cell, tuple(map(vertex_id, s.face.cycle))) for s in published.steps]
    picked = [listed.index(choice) for listed, choice in zip(choices, taken)]
    assert picked == [3, 0, 6, 0, 3, 6]
    path = tuple(zip(ids[1:], picked))
    assert table.chain(P2, path) == published and evaluate(cg, published) == (1, 0, 3, 2)
    edits, three_cycles = 0, []
    for s, listed in enumerate(choices):
        for k in range(len(listed)):
            if k != picked[s]:
                edited = table.chain(P2, (*path[:s], (ids[s + 1], k), *path[s + 1:]))
                perm = evaluate(cg, edited)
                if is_admissible(cg, edited).admissible and cycle_type(perm) == (3, 1):
                    three_cycles.append((s + 1, edited.steps[s].face.name, perm))
                edits += 1
    assert edits == 28
    assert three_cycles == [
        (1, "P-P1-P2~-P2", (3, 1, 0, 2)),
        (2, "P-P2-P1~-P3", (2, 0, 1, 3)),
        (5, "P-P1-P3~-P2", (0, 2, 3, 1)),
        (5, "P~-P2~-P1-P3~", (1, 2, 0, 3)),
    ]
    # step 1's edit is F8, the face step 4 takes
    assert three_cycles[0][1] == published.steps[3].face.name == CHORD2_FACES["F8"].name


def test_criterion_6_enumeration_fixtures():
    failures = []
    fixtures = {
        (2, 1): {(0, (1,))},
        (3, 1): {(0, (2,)), (1, (0,))},
        (4, 1): {(0, (3,)), (1, (1,))},
        (5, 1): {(0, (4,)), (1, (2,)), (2, (0,))},
        (3, 2): {(0, (0, 1))},
        (4, 2): {(0, (0, 2)), (0, (1, 0))},
        (5, 2): {(0, (1, 1)), (0, (0, 3)), (1, (0, 0))},
    }
    for (genus, order), want in fixtures.items():
        got = {(gc.i, gc.p) for gc in enumerate_classes(genus, order)}
        if got != want:
            failures.append(f"classes g={genus} r={order}: {got}")
    try:
        enumerate_classes(2, 2)
        failures.append("genus 2 must reject order 2 (order < genus)")
    except InvalidClassError:
        pass
    counts = [
        (len(enumerate_faces(ConnectionGraph(3, frozenset()))), 6, "skeleton order-3 faces"),
        (len(enumerate_faces(ConnectionGraph(2, frozenset({2})))), 2, "one-chord hexagon faces"),
        (len(enumerate_faces(ConnectionGraph(2, frozenset({1, 2})))), 5, "two-chord hexagon faces"),
    ]
    for got, want, what in counts:
        if got != want:
            failures.append(f"{what}: {got} != {want}")
    cg4 = ConnectionGraph(4, frozenset({4}))
    cells = {cell for face in enumerate_faces(cg4) for cell in cells_containing(cg4, face)}
    if len(cells) != 5:
        failures.append(f"order-4 cells: {len(cells)} != 5")
    report(6, not failures, "enumeration fixtures (classes, face counts, five cells)" if not failures else "; ".join(failures))


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    failures = []

    # reverse-loop inversion wherever both traversals compose
    for cg, start, depth, limit in REVERSE_CASES:
        for chain in itertools.islice(enumerate_chains(cg, start, depth), limit):
            if not reversal_holds(cg, start, chain):
                failures.append(f"reversal fails at {chain.describe()}")

    # conjugation equivariance of verdicts
    for order, connected in [(2, {2}), (2, {1, 2}), (3, {3}), (3, {2, 3}), (4, {4}), (4, {3, 4})]:
        cg = ConnectionGraph(order, frozenset(connected))
        for v in cg.vertices():
            if not v.tilded and spin_group_at(cg, v).verdict != spin_group_at(cg, v.conjugate).verdict:
                failures.append(f"conjugation inequivalence at r={order} {sorted(connected)} {v.name}")

    # skeleton chains close into the 3-element alternating group on the core labels; P3's own label stays put
    r3 = ConnectionGraph(3, frozenset({3}))
    own = r3.label_classes(P3).index(3)
    for start in (P, P3):
        group = skeleton_group(r3, start)
        if len(group) != 3 or any(parity(g) for g in group):
            failures.append(f"skeleton chains at {start.name} gave order {len(group)}")
        if start == P3 and any(g[own] != own for g in group):
            failures.append("skeleton chains at P3 moved its own label")

    # face maps compose to the identity around every face
    for cg in SAMPLE_GRAPHS:
        for face in enumerate_faces(cg):
            for cell in cells_containing(cg, face):
                for label, image in around_face(cg, cell, face).items():
                    if image != label:
                        failures.append(f"cyclic composition moved {label} on {face.name} in {sorted(cell)} of {cg}")

    # closure against the saturation oracle, fixed seed
    rng = random.Random(0)
    for _ in range(10_000):
        n = rng.randint(1, 5)
        gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(0, 3))]
        if set(closure(gens, n)) != brute_closure(gens, n):
            failures.append(f"closure mismatch on {gens}")
            break

    # inadmissible chains never move labels
    values = inadmissible_values(r3, P, 3)
    failures += [f"inadmissible chain moved labels: {c.describe()}" for c, v in values.items() if v != identity_perm(3)]
    if not values:
        failures.append("no inadmissible chain sampled")

    elapsed = time.perf_counter() - t0
    report(7, not failures and elapsed < 30.0, f"property suites under fixed seed, {elapsed:.2f}s < 30s", elapsed)


def test_criterion_8_determinism(capsys):
    code1 = main(["verify", "--genus", "2..6"])
    out1 = capsys.readouterr().out
    code2 = main(["verify", "--genus", "2..6"])
    out2 = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and out1 == out2 and out1.encode() == out2.encode()
    summary = parse_record(out1.splitlines()[-1])
    ok = ok and summary["mismatches"] == "0"
    report(8, ok, "verify --genus 2..6 twice: byte-identical reports, exit 0")
