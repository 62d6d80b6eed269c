"""Enumeration oracle: class counts per (genus, order) against generating-function coefficients.

At order r a class of genus g is an exponent i >= 0 and increments p_1..p_r >= 0
with (r+1)(i+1) - 1 + sum_l (r+1-l) p_l = g.  For a fixed i the increments
weigh r, r-1, ..., 1, so they number the coefficient of q^t in
prod_{w=1..r} 1/(1 - q^w), the partitions of t = g - r - (r+1)i into parts of
at most r.  `class_count` sums those coefficients over i; they come from the
product alone, not from `params._increment_tuples`.  Run as a script over a
range of genera from 2, it compares `enumerate_classes` at every genus and
order with them, checks that no class is listed twice and that each class's
`connected_pairs`, the closed-form top slice, is the set {l : k_l >= 2} read
off its k, and exits 0 with no difference, 1 on any difference and 2 on a bad
range (`conftest.run_oracle`):

    PYTHONPATH=src python3 tests/enumeration_oracle.py 2..40
"""
from __future__ import annotations

import sys
from collections import Counter

from conftest import run_oracle
from spinatlas.params import enumerate_classes


def partition_counts(order: int, top: int) -> list[int]:
    """The coefficients of q^0..q^top in prod_{w=1..order} 1/(1 - q^w)."""
    coeffs = [1] + [0] * top
    for w in range(1, order + 1):
        for n in range(w, top + 1):
            coeffs[n] += coeffs[n - w]
    return coeffs


def class_count(genus: int, order: int, coeffs: list[int]) -> int:
    """The classes of a genus and order: the sum over i >= 0 of the coefficient of q^(genus - r - (r+1)i)."""
    return sum(coeffs[t] for t in range(genus - order, -1, -(order + 1)))


DEFAULT, LOWEST = "2..30", 2


def sweep(lo: int, hi: int) -> tuple[dict[str, int], list[str]]:
    """How many classes genus lo..hi has, each (genus, order) whose listing differs from its count, and
    each class whose chorded classes differ from those with k_l >= 2."""
    coeffs = [partition_counts(order, hi) for order in range(hi)]
    total, out = 0, []
    for genus in range(lo, hi + 1):
        classes = list(enumerate_classes(genus))
        total += len(classes)
        if len(set(classes)) != len(classes):
            out.append(f"genus {genus}: {len(classes) - len(set(classes))} classes listed twice")
        for gc in classes:
            chords = {l for l, kl in enumerate(gc.k) if kl >= 2}
            if set(gc.connected_pairs) != chords:
                out.append(f"{gc}: connected_pairs {list(gc.connected_pairs)}, k_l >= 2 at {sorted(chords)}")
        listed = Counter(gc.order for gc in classes)
        for order in sorted(set(range(genus)) | set(listed)):
            want = class_count(genus, order, coeffs[order]) if 0 <= order < genus else 0
            if listed[order] != want:
                out.append(f"genus {genus} order {order}: {listed[order]} classes listed, {want} counted")
    return {"classes": total}, out


def main(argv: list[str]) -> int:
    return run_oracle(argv, DEFAULT, LOWEST, sweep)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
