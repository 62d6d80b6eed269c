"""Isomorphism-class parameters of exceptional vertex configurations.

A class is described by the order r, the non-negative exponent i of the
conjugate point in the head's divisor, and the r increments p_1..p_r of the
multiplicity tuple k = (k_0, ..., k_r), where k_0 = i + 1 and
k_l = k_{l-1} + p_l.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator


class InvalidClassError(ValueError):
    """Parameters do not describe a valid class; the message names the violated rule."""


def k_tuple(i: int, p: tuple[int, ...]) -> tuple[int, ...]:
    """Multiplicity tuple (k_0, ..., k_r) from the exponent i and increments p."""
    ks = [i + 1]
    for step in p:
        ks.append(ks[-1] + step)
    return tuple(ks)


def genus_of(order: int, i: int, p: tuple[int, ...]) -> int:
    """Genus carrying the class (order, i, p); linear in i and the increments."""
    if order < 0 or i < 0 or len(p) != order or any(x < 0 for x in p):
        raise InvalidClassError(f"malformed parameters (order={order}, i={i}, p={p})")
    return (order + 1) * (i + 1) - 1 + sum((order + 1 - l) * pl for l, pl in enumerate(p, start=1))


class GraphClass(namedtuple("GraphClass", "genus order i p")):
    """One isomorphism class: genus, order r, exponent i and increments p (made a tuple)."""

    __slots__ = ()

    def __new__(cls, genus: int, order: int, i: int, p: tuple[int, ...]) -> "GraphClass":
        if genus < 2:
            raise InvalidClassError(f"genus must be >= 2, got {genus}")
        if not 0 <= order < genus:
            raise InvalidClassError(f"order must satisfy 0 <= r < genus, got r={order}")
        p = tuple(p)
        if genus_of(order, i, p) != genus:
            raise InvalidClassError(f"(i={i}, p={p}) does not produce genus {genus} at order {order}")
        return super().__new__(cls, genus, order, i, p)

    @property
    def k(self) -> tuple[int, ...]:
        return k_tuple(self.i, self.p)

    @property
    def connected_pairs(self) -> range:
        """Conjugate pairs joined by an edge, the classes with k_l >= 2: as k is nondecreasing, the top slice j..r,
        with j = 0 when i >= 1, else the first l with p_l > 0 (a valid class has one, its genus exceeding its order)."""
        return range(0 if self.i else next(l for l, pl in enumerate(self.p, 1) if pl), self.order + 1)

    def label(self) -> str:
        inner = ",".join(str(x) for x in (self.i, *self.p))
        return f"S({inner})"


def heads(gc: GraphClass) -> frozenset[int]:
    """Classes whose vertices carry the minimal own-pair multiplicity k_0."""
    ks = gc.k
    return frozenset(l for l, kl in enumerate(ks) if kl == ks[0])


def _increment_tuples(order: int, total: int):
    """All p with sum((r+1-l) * p_l) == total, in lexicographic order."""
    if order <= 1:  # order 0: only the empty tuple, of sum 0; order 1: p_1, of weight 1, is the whole total
        if order or total == 0:
            yield (total,) * order
        return
    weight = order  # coefficient of p_1
    for first in range(total // weight + 1):
        for rest in _increment_tuples(order - 1, total - weight * first):
            yield (first, *rest)


def enumerate_classes(genus: int, order: int | None = None) -> Iterator[GraphClass]:
    """Every class of the given genus (optionally one order), read lazily once the call has checked its arguments,
    in (order, i, p) order: r, then i, then p, each ascending (`_increment_tuples` is lexicographic)."""
    if genus < 2:
        raise InvalidClassError(f"genus must be >= 2, got {genus}")
    if order is not None and not 0 <= order < genus:
        raise InvalidClassError(f"order must satisfy 0 <= r < genus, got r={order}")
    # each (r, i, p) listed has genus `genus`: `_make` builds its class without `GraphClass`'s checks
    return (
        GraphClass._make((genus, r, i, p)) for r in (range(genus) if order is None else (order,))
        for i in range((genus + 1) // (r + 1))  # the i with (r+1)(i+1) - 1 <= genus
        for p in _increment_tuples(r, genus + 1 - (r + 1) * (i + 1))
    )
