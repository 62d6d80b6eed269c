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
from spinatlas.chains import evaluate, is_admissible
from spinatlas.classify import clear_caches, spin_group_at, verify_class
from spinatlas.cli import main, parse_record
from spinatlas.faces import enumerate_faces, cells_containing, face_map
from spinatlas.graph import ConnectionGraph, Vertex
from spinatlas.groups import closure, identity_perm, inverse, recognize
from spinatlas.params import InvalidClassError, enumerate_classes

G1 = frozenset({0, 2, 3, 4})
G2 = frozenset({0, 1, 3, 4})
G3 = frozenset({0, 1, 2, 4})
G4 = frozenset({0, 1, 2, 3})
G5 = frozenset({1, 2, 3, 4})


def report(number: int, ok: bool, detail: str, elapsed: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {number}: {status} - {detail}{timing}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_order2_classification():
    clear_caches()
    t0 = time.perf_counter()
    failures = []
    for genus in range(3, 9):
        for gc in enumerate_classes(genus, 2):
            rep = verify_class(gc)
            k = gc.k
            for row in rep.rows:
                want = str(row.predicted)
                if k[0] == k[1] == 1:
                    want = "C3" if row.vertex.cls == 2 else "1"
                elif k[0] == 1:
                    want = "S3" if row.vertex.cls in (1, 2) else "1"
                else:
                    want = "S3"
                if str(row.computed) != want or not row.match:
                    failures.append((gc, row.vertex.name, want, str(row.computed)))
    elapsed = time.perf_counter() - t0
    report(1, not failures and elapsed < 1.0, f"order-2 case split over genus 3..8, {elapsed:.2f}s < 1s", elapsed)


def test_criterion_2_order3_classification():
    clear_caches()
    t0 = time.perf_counter()
    failures = []
    for genus in range(4, 9):
        for gc in enumerate_classes(genus, 3):
            rep = verify_class(gc)
            for row in rep.rows:
                want = "S3" if row.degree == 3 else "S4"
                if str(row.computed) != want or not row.match:
                    failures.append((gc, row.vertex.name))
    elapsed = time.perf_counter() - t0
    report(2, not failures and elapsed < 5.0, f"order-3 S3/S4 split over genus 4..8, {elapsed:.2f}s < 5s", elapsed)


def test_criterion_3_order4_and_5_classification():
    clear_caches()
    t0 = time.perf_counter()
    failures = []
    for genus in range(5, 10):
        for order in (4, 5):
            if order >= genus:
                continue
            for gc in enumerate_classes(genus, order):
                rep = verify_class(gc)
                for row in rep.rows:
                    want = f"S{row.degree}"
                    if str(row.computed) != want or not row.match:
                        failures.append((gc, row.vertex.name))
    elapsed = time.perf_counter() - t0
    report(3, not failures and elapsed < 60.0, f"orders 4-5 S(r)/S(r+1) split up to genus 9, {elapsed:.2f}s < 60s", elapsed)


def test_criterion_4_low_order_triviality():
    clear_caches()
    t0 = time.perf_counter()
    failures = []
    for genus in range(2, 9):
        for order in (0, 1):
            if order >= genus:
                continue
            for gc in enumerate_classes(genus, order):
                rep = verify_class(gc)
                for row in rep.rows:
                    if str(row.computed) != "1" or not row.match:
                        failures.append((gc, row.vertex.name))
    elapsed = time.perf_counter() - t0
    report(4, not failures and elapsed < 1.0, f"orders 0-1 trivial everywhere, {elapsed:.2f}s < 1s", elapsed)


def _witnesses():
    """Published chain examples: graph, chain, expected cycle type, expected parity."""
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
        # (label, graph, chain, cycle type, parity)
        ("3.2a three-cycle", r2a, mk_chain(P2, (CELL2, fa, P2t), (CELL2, conjugate_face(fa), P2)), (3,), 0),
        ("3.2a inverse", r2a, mk_chain(P2, (CELL2, conjugate_face(fa), P2t), (CELL2, fa, P2)), (3,), 0),
        ("3.2b swap one", r2b, mk_chain(P1t, (CELL2, f1b, P1), (CELL2, f3b, P1t)), (2, 1), 1),
        ("3.2b swap two", r2b, mk_chain(P1t, (CELL2, conjugate_face(f1b), P1), (CELL2, f3b, P1t)), (2, 1), 1),
        ("3.2c swap", r2c, mk_chain(P1, (CELL2, kc, P2t), (CELL2, tp12, P1)), (2, 1), 1),
        ("3.2c three-cycle", r2c, mk_chain(P, (CELL2, f1c, P2t), (CELL2, f2c, P)), (3,), 0),
        ("4.1 swap", r3a, mk_chain(P, (CELL3, CHORD3_FACES["F5"], P2), (CELL3, BASIC3_FACES["F1"], P)), (2, 1), 1),
        ("4.1 three-cycle", r3a, mk_chain(P3, (CELL3, CHORD3_FACES["F4"], P3t), (CELL3, CHORD3_FACES["F5"], P3)), (3, 1), 0),
        (
            "4.1 four-cycle",
            r3a,
            mk_chain(
                P3,
                (CELL3, BASIC3_FACES["F1'"], P1t),
                (CELL3, BASIC3_FACES["F1'"], Pt),
                (CELL3, BASIC3_FACES["F3"], P3t),
                (CELL3, CHORD3_FACES["F5"], P3),
            ),
            (4,),
            1,
        ),
        ("4.2 three-cycle", r3b, mk_chain(
            P, (CELL3, BASIC3_FACES["F3'"], P2), (CELL3, CHORD2_FACES["F10"], P3t),
            (CELL3, CHORD3_FACES["F4"], P1), (CELL3, BASIC3_FACES["F2"], P)), (3,), 0),
        ("4.2 swap short", r3b, mk_chain(
            P, (CELL3, CHORD2_FACES["F8"], P1), (CELL3, BASIC3_FACES["F1"], P)), (2, 1), 1),
        ("4.2 swap long", r3b, mk_chain(
            P, (CELL3, BASIC3_FACES["F3'"], P2), (CELL3, CHORD2_FACES["F10"], P3t),
            (CELL3, CHORD2_FACES["F10"], P3), (CELL3, BASIC3_FACES["F2"], P)), (2, 1), 1),
        ("4.2 four-cycle", r3b, mk_chain(
            P2, (CELL3, CHORD2_FACES["F10"], P3t), (CELL3, BASIC3_FACES["F2'"], P2)), (4,), 1),
        ("5.I three-cycle", r4a, mk_chain(
            P, (G1, e1, P4), (G3, e2, P4t), (G5, e3, P2), (G1, e1, P)), (3, 1), 0),
        ("5.I swap", r4a, mk_chain(P, (G3, e2, P1), (G2, e2b, P)), (2, 1, 1), 1),
        ("5.II swap", r4b, mk_chain(
            P2, (G4, h1, P3t), (G2, h2, P4), (G5, h3, P3t), (G5, h4, P2)), (2, 1, 1), 1),
    ]


def _inadmissible_witnesses():
    r3a = ConnectionGraph(3, frozenset({3}))
    r4a = ConnectionGraph(4, frozenset({4}))
    e1 = F(P, P2, P4t, P4)
    e2 = F(P, P1, P4t, P4)
    f2g = F(P4, P3t, Pt, P1t)
    f3g = F(P3t, P1, P4t, P2)
    return [
        ("4.1 blocked", r3a, mk_chain(P, (CELL3, CHORD3_FACES["F5"], P3), (CELL3, BASIC3_FACES["F2"], P))),
        ("5.I blocked", r4a, mk_chain(P, (G1, e1, P4), (G2, f2g, P3t), (G5, f3g, P1), (G3, e2, P))),
    ]


def test_criterion_5_published_chain_witnesses():
    failures = []
    for label, cg, chain, want_type, want_parity in _witnesses():
        perm = evaluate(cg, chain)
        if not is_admissible(cg, chain).admissible:
            failures.append(f"{label}: unexpectedly inadmissible")
        elif cycle_type(perm) != want_type or parity(perm) != want_parity:
            failures.append(f"{label}: got {cycle_type(perm)} parity {parity(perm)}")
    for label, cg, chain in _inadmissible_witnesses():
        if is_admissible(cg, chain).admissible:
            failures.append(f"{label}: unexpectedly admissible")
        elif evaluate(cg, chain) != identity_perm(len(cg.label_classes(chain.start))):
            failures.append(f"{label}: inadmissible chain moved labels")
    detail = "published witnesses reproduce cycle types and parities" if not failures else "; ".join(failures)
    report(5, not failures, detail + " (one documented discrepancy checked separately)")


@pytest.mark.xfail(
    strict=True,
    reason="documented source inconsistency: the six-step loop built from the published face "
    "identifications evaluates to an even double swap, not a 3-cycle; see the decisions ledger",
)
def test_criterion_5_known_discrepant_witness():
    cg = ConnectionGraph(3, frozenset({2, 3}))
    chain = mk_chain(
        P2,
        (CELL3, CHORD2_FACES["F7"], P),
        (CELL3, BASIC3_FACES["F2"], P3),
        (CELL3, CHORD2_FACES["F10"], P2t),
        (CELL3, CHORD2_FACES["F8"], P1),
        (CELL3, CHORD2_FACES["F9"], P3t),
        (CELL3, CHORD2_FACES["F10"], P2),
    )
    assert is_admissible(cg, chain).admissible
    assert cycle_type(evaluate(cg, chain)) == (3, 1)


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
    for cg, start, depth, limit in [
        (ConnectionGraph(2, frozenset({2})), P2, 4, 300),
        (ConnectionGraph(3, frozenset({3})), P3, 3, 400),
        (ConnectionGraph(3, frozenset({2, 3})), P, 3, 400),
    ]:
        for chain in itertools.islice(enumerate_chains(cg, start, depth), limit):
            fwd_ok = is_admissible(cg, chain).admissible
            rev = reversed_chain(chain)
            if fwd_ok == is_admissible(cg, rev).admissible:
                if evaluate(cg, rev) != inverse(evaluate(cg, chain)):
                    failures.append(f"reversal mismatch at {chain.describe()}")
            elif cg.epsilon_degree(start) != cg.order + 1:
                failures.append(f"one-sided admissibility off a repairable base: {chain.describe()}")

    # conjugation equivariance of verdicts
    for order, connected in [(2, {2}), (2, {1, 2}), (3, {3}), (3, {2, 3}), (4, {3, 4})]:
        cg = ConnectionGraph(order, frozenset(connected))
        for v in cg.vertices():
            if not v.tilded and spin_group_at(cg, v).verdict != spin_group_at(cg, v.conjugate).verdict:
                failures.append(f"conjugation inequivalence at r={order} {sorted(connected)} {v.name}")

    # skeleton chains close into the 3-element alternating group on the core labels
    r3 = ConnectionGraph(3, frozenset({3}))
    for start in (P, P3):
        perms = {
            evaluate(r3, chain)
            for chain in itertools.islice(enumerate_chains(r3, start, 2), 4000)
            if is_basic(r3, chain)
        }
        group = closure(perms, len(r3.label_classes(start)))
        if len(group) != 3 or any(parity(g) for g in group):
            failures.append(f"skeleton chains at {start.name} gave order {len(group)}")

    # face maps compose to the identity around every face
    for cg in (ConnectionGraph(3, frozenset({2, 3})), ConnectionGraph(4, frozenset({4}))):
        for face in enumerate_faces(cg):
            for cell in cells_containing(cg, face):
                a, b, c, d = face.cycle
                for src, val in face_map(cg, cell, face, a, b).items():
                    for hop, nxt in ((b, c), (c, d), (d, a)):
                        step = face_map(cg, cell, face, hop, nxt)
                        if val not in step:
                            val = None
                            break
                        val = step[val]
                    if val is not None and val != src:
                        failures.append(f"cyclic composition moved {src} on {face.name}")

    # closure against an independent saturation oracle, fixed seed
    rng = random.Random(0)
    tail = bytes(range(256))
    for _ in range(10_000):
        n = rng.randint(1, 5)
        gens = [rng.sample(range(n), n) for _ in range(rng.randint(0, 3))]
        padded = [bytes(g) + tail[n:] for g in gens]
        sat = {tail} | set(padded)
        while True:
            fresh = {a.translate(b) for a in sat for b in sat} - sat
            if not fresh:
                break
            sat |= fresh
        got = closure([tuple(g) for g in gens], n)
        if {bytes(g) + tail[n:] for g in got} != sat:
            failures.append(f"closure mismatch on {gens}")
            break

    # inadmissible chains never move labels
    bad_seen = 0
    for chain in itertools.islice(enumerate_chains(r3, P, 3), 3000):
        if not is_admissible(r3, chain).admissible:
            bad_seen += 1
            if evaluate(r3, chain) != identity_perm(3):
                failures.append(f"inadmissible chain moved labels: {chain.describe()}")
    if bad_seen == 0:
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
