"""Class parameters: multiplicity tuples, the genus formula, enumeration, heads."""
from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import spy
from spinatlas import params
from spinatlas.params import GraphClass, enumerate_classes, genus_of, heads, k_tuple


def brute_force_classes(genus: int, order: int) -> set[tuple[int, tuple[int, ...]]]:
    """Oracle: scan all nondecreasing k-tuples with k_l >= 1 and (k_0 - 1) + sum = genus."""
    found = set()

    def rec(prefix: list[int], remaining: int):
        if len(prefix) == order + 1:
            if remaining == 0:
                i = prefix[0] - 1
                p = tuple(prefix[l] - prefix[l - 1] for l in range(1, order + 1))
                found.add((i, p))
            return
        lo = prefix[-1] if prefix else 1
        # for the head entry only i = k_0 - 1 counts against the genus
        for k in range(lo, remaining + 2):
            cost = k - 1 if not prefix else k
            if cost <= remaining:
                rec(prefix + [k], remaining - cost)

    rec([], genus)
    return found


def test_k_tuple_formula():
    assert k_tuple(0, (0, 1)) == (1, 1, 2)
    assert k_tuple(1, (0, 0)) == (2, 2, 2)
    assert k_tuple(0, ()) == (1,)
    assert k_tuple(2, (0,)) == (3, 3)


def test_genus_of_small_orders():
    assert genus_of(1, 2, (0,)) == 5
    assert genus_of(3, 0, (0, 0, 1)) == 4
    assert genus_of(2, 1, (0, 0)) == 5
    assert genus_of(2, 0, (0, 1)) == 3
    # frozen from the brute-force oracle over k-tuples
    assert genus_of(4, 0, (0, 0, 0, 0)) == 4


@settings(max_examples=300, derandomize=True)
@given(
    order=st.integers(min_value=1, max_value=6),
    i=st.integers(min_value=0, max_value=5),
    data=st.data(),
)
def test_genus_matches_k_tuple_sum(order, i, data):
    p = tuple(data.draw(st.lists(st.integers(0, 4), min_size=order, max_size=order)))
    ks = k_tuple(i, p)
    assert genus_of(order, i, p) == i + sum(ks[1:])


@pytest.mark.parametrize("genus", range(2, 10))
@pytest.mark.parametrize("order", range(0, 6))
def test_enumeration_agrees_with_brute_force(genus, order):
    if order >= genus:
        return
    got = {(gc.i, gc.p) for gc in enumerate_classes(genus, order)}
    assert got == brute_force_classes(genus, order)


def test_enumeration_fixtures():
    # acceptance criterion 6 holds the (i, p) fixtures; these are their k-tuples
    assert [gc.k for gc in enumerate_classes(4, 1)] == [(1, 4), (2, 3)]
    assert {gc.k for gc in enumerate_classes(5, 2)} == {(1, 2, 3), (1, 1, 4), (2, 2, 2)}


def test_enumeration_sorted_and_order_bounded():
    for genus in range(2, 25):
        classes = list(enumerate_classes(genus))
        keys = [(gc.order, gc.i, gc.p) for gc in classes]
        assert keys == sorted(keys)
        assert all(gc.order < genus for gc in classes)
        for gc in classes:
            ks = gc.k
            assert all(ks[l] <= ks[l + 1] for l in range(len(ks) - 1))
            assert gc.i <= (gc.genus - gc.order) // (gc.order + 1)
            # the closed-form top slice against the reference: the classes with k_l >= 2
            assert set(gc.connected_pairs) == {l for l, kl in enumerate(ks) if kl >= 2}


def test_enumeration_builds_each_class_as_it_is_read(monkeypatch):
    # the call checks its arguments and builds nothing; the first class read is the only one built,
    # by `_make`, which skips the checks of `GraphClass` (every class listed passes them)
    built = spy(monkeypatch, params.GraphClass, "_make")
    classes = enumerate_classes(30)
    assert built == []
    assert next(classes) == GraphClass(30, 0, 30, ()) and built == [mock.call((30, 0, 30, ()))]
    assert all(GraphClass(*gc) == gc for genus in range(2, 16) for gc in enumerate_classes(genus))


def test_heads():
    assert heads(GraphClass(3, 2, 0, (0, 1))) == {0, 1}
    assert heads(GraphClass(5, 2, 1, (0, 0))) == {0, 1, 2}
    assert heads(GraphClass(4, 2, 0, (1, 0))) == {0}
    for genus in range(2, 13):
        for gc in enumerate_classes(genus):
            hs = heads(gc)
            assert 0 in hs and hs <= set(range(gc.order + 1))


def test_enumeration_oracle_over_genus_2_to_30(capsys):
    # every (genus, order) lists as many distinct classes as the generating function counts
    from enumeration_oracle import main as enumeration_oracle

    assert enumeration_oracle(["2..30"]) == 0
    assert capsys.readouterr().out.startswith("35438 classes, 0 differences, ")
