"""Plain tuple permutations, an incremental stabilizer chain, and recognition by order.

The group engine is the deterministic Schreier-Sims algorithm with sifting
(Knuth, "Efficient representation of perm groups", 1991; Seress, *Permutation
Group Algorithms*, 2003, ch. 4), on the fixed base 0..n-1.
"""
from __future__ import annotations

import math
from collections import namedtuple

Perm = tuple[int, ...]


class CapExceededError(RuntimeError):
    """A group, or the full symmetric group on a label set, has order above the cap."""


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(a: Perm, b: Perm) -> Perm:
    """Apply a first, then b."""
    return tuple(map(b.__getitem__, a))


def inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for k, x in enumerate(a):
        out[x] = k
    return tuple(out)


def is_permutation(a: Perm) -> bool:
    return sorted(a) == list(range(len(a)))


def cycles_str(a: Perm) -> str:
    """One-based cycle notation, fixed points suppressed."""
    parts = []
    seen = [False] * len(a)
    for k in range(len(a)):
        if seen[k] or a[k] == k:
            seen[k] = True
            continue
        cyc, j = [], k
        while not seen[j]:
            seen[j] = True
            cyc.append(j + 1)
            j = a[j]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) or "()"


class StabChain:
    """Subgroup of S_n held as a stabilizer chain on the base 0, 1, ..., n-1.

    Level i holds the strong generators added there, which fix 0..i-1, and a
    transversal: for each point p in the orbit of i, an element mapping i to p.
    Every Schreier generator of a level has been sifted into the levels below
    it, so sifting decides membership exactly and the order is the product of
    the orbit lengths.  From level `_full` on every orbit is full (n - i points
    at level i), so the transversal elements there, all members, multiply to
    every permutation that fixes 0.._full-1: sifts and Schreier generators stop there.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        ident = identity_perm(n)
        self._gens: list[list[Perm]] = [[] for _ in range(n)]
        self._trans: list[dict[int, Perm]] = [{i: ident} for i in range(n)]
        self._trans_inv: list[dict[int, Perm]] = [{i: ident} for i in range(n)]
        self._full = max(n - 1, 0)

    def _sift(self, g: Perm, level: int = 0) -> bool:
        """True when g, which fixes 0..level-1, lies in the group of that level."""
        for i in range(level, self._full):
            p = g[i]
            if p != i:
                u_inv = self._trans_inv[i].get(p)
                if u_inv is None:
                    return False
                g = tuple(map(u_inv.__getitem__, g))
        return True

    def __contains__(self, g: Perm) -> bool:
        return self._sift(tuple(g))

    def add(self, g: Perm) -> bool:
        """Extend the group by g; False when g was already a member."""
        return self._add(0, tuple(g))

    def _add(self, level: int, g: Perm) -> bool:
        if self._sift(g, level):
            return False
        self._gens[level].append(g)
        for u in list(self._trans[level].values()):
            self._extend(level, u, g)
        return True

    def _extend(self, level: int, u: Perm, g: Perm) -> None:
        """Enter the coset of u then g at this level: a new orbit point, or a Schreier generator below."""
        if level >= self._full:
            return
        h = compose(u, g)
        p = h[level]
        u_inv = self._trans_inv[level].get(p)
        if u_inv is not None:
            if level + 1 < self._full:
                self._add(level + 1, compose(h, u_inv))
            return
        self._trans[level][p] = h
        self._trans_inv[level][p] = inverse(h)
        while self._full and len(self._trans[self._full - 1]) == self.n - self._full + 1:
            self._full -= 1
        for t in list(self._gens[level]):
            self._extend(level, h, t)

    def order(self) -> int:
        return math.prod(len(t) for t in self._trans)

    def elements(self) -> list[Perm]:
        """Every element, once each, as a product of one transversal element per level."""
        elems = [identity_perm(self.n)]
        for trans in reversed(self._trans):
            elems = [compose(e, u) for e in elems for u in trans.values()]
        return elems


def closure(gens, n: int, cap: int = 400_000) -> tuple[Perm, ...]:
    """Subgroup generated by `gens`, enumerated from its stabilizer chain, in sorted order."""
    gen_list = sorted({tuple(g) for g in gens})
    for g in gen_list:
        if len(g) != n or not is_permutation(g):
            raise ValueError(f"not a permutation of {n} points: {g}")
    chain = StabChain(n)
    for g in gen_list:
        chain.add(g)
    if chain.order() > cap:
        raise CapExceededError(f"closure exceeded cap {cap} on {n} points")
    return tuple(sorted(chain.elements()))


class GroupVerdict(namedtuple("GroupVerdict", "kind degree order")):
    """kind is "trivial", "C2", "C3", "A", "S" or "other"; degree is n for A_n and S_n, else 0."""

    __slots__ = ()

    def __str__(self) -> str:
        if self.kind == "trivial":
            return "1"
        if self.kind in ("C2", "C3"):
            return self.kind
        if self.kind in ("A", "S"):
            return f"{self.kind}{self.degree}"
        return f"G[{self.order}]"


TRIVIAL = GroupVerdict("trivial", 0, 1)
C2 = GroupVerdict("C2", 0, 2)
C3 = GroupVerdict("C3", 0, 3)


def symmetric(n: int) -> GroupVerdict:
    return GroupVerdict("S", n, math.factorial(n))


def alternating(n: int) -> GroupVerdict:
    return GroupVerdict("A", n, max(1, math.factorial(n) // 2))


def recognize(order: int, n: int) -> GroupVerdict:
    """Classify a subgroup of S_n by its order.

    For n >= 2, A_n is the only subgroup of index 2 in S_n, so the order alone
    separates it from the other groups of that order.
    """
    if order == 1:
        return TRIVIAL
    if order == 2:
        return C2
    if order == 3:
        return C3
    full = math.factorial(n)
    if order == full:
        return symmetric(n)
    if 2 * order == full:
        return alternating(n)
    return GroupVerdict("other", 0, order)
