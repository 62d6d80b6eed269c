"""Connection graphs: 2r+2 labelled vertices, bipartite skeleton plus conjugate chords.

Vertices come in conjugate pairs, one pair per class 0..r.  The skeleton joins
two vertices exactly when they sit on opposite sides of the bipartition and are
not conjugate; a chord joins the two vertices of every connected pair.
"""
from __future__ import annotations

from collections import namedtuple

from .params import GraphClass


class UnsupportedOrderError(ValueError):
    """Requested operation is only defined for small orders."""


class Vertex(namedtuple("Vertex", "cls tilded")):
    __slots__ = ()

    @property
    def conjugate(self) -> "Vertex":
        return Vertex(self.cls, not self.tilded)

    @property
    def side(self) -> int:
        return int(self.tilded) ^ int(self.cls == 0)

    @property
    def name(self) -> str:
        base = "P" if self.cls == 0 else f"P{self.cls}"
        return base + ("~" if self.tilded else "")

    @staticmethod
    def parse(text: str) -> "Vertex":
        """The vertex named `text`, exactly as `name` spells it: P, P~, P<k> or P<k>~ with k >= 1."""
        tilded = text.endswith("~")
        digits = text[1:-1] if tilded else text[1:]
        if not text.startswith("P") or digits and not (digits.isascii() and digits.isdigit() and digits[0] != "0"):
            raise ValueError(f"cannot parse vertex name {text!r}")
        return Vertex(int(digits) if digits else 0, tilded)


class ConnectionGraph(namedtuple("ConnectionGraph", "order connected")):
    """An order-r connection graph; `connected` (made a frozenset) holds its chorded classes."""

    __slots__ = ()

    def __new__(cls, order: int, connected: frozenset[int]) -> "ConnectionGraph":
        connected = frozenset(connected)
        if order < 0 or any(not 0 <= c <= order for c in connected):
            raise ValueError(f"bad connection data (order={order}, connected={sorted(connected)})")
        return super().__new__(cls, order, connected)

    @property
    def classes(self) -> range:
        return range(self.order + 1)

    def vertices(self) -> tuple[Vertex, ...]:
        return tuple(Vertex(c, t) for c in self.classes for t in (False, True))

    def adjacent(self, u: Vertex, v: Vertex) -> bool:
        if u == v:
            return False
        if u.cls == v.cls:
            return u.cls in self.connected
        return u.side != v.side

    def epsilon_degree(self, v: Vertex) -> int:
        return self.order + 1 if v.cls in self.connected else self.order

    def label_classes(self, v: Vertex) -> tuple[int, ...]:
        """Classes indexing v's label set: the other classes ascending, own class last if chorded."""
        labels = [c for c in self.classes if c != v.cls]
        if v.cls in self.connected:
            labels.append(v.cls)
        return tuple(labels)


def build_connection_graph(gc: GraphClass) -> ConnectionGraph:
    return ConnectionGraph(gc.order, gc.connected_pairs)


def edge_multiplicities_r_le_2(gc: GraphClass) -> dict[tuple[Vertex, Vertex], int]:
    """Multiplicity labels of the straight edges of the full graph, orders 0..2 only.

    Chord edges carry k_l - 1 (the own-pair exponent); skeleton edges carry k_0
    on the four short sides and k_1 on the two long sides.  Zero-multiplicity
    chords are omitted.  Each call builds a new dict.
    """
    if gc.order > 2:
        raise UnsupportedOrderError(f"full-graph multiplicities are only tabulated for order <= 2, got {gc.order}")
    k = gc.k
    P = Vertex(0, False)
    Pt = Vertex(0, True)

    def edge(a: Vertex, b: Vertex) -> tuple[Vertex, Vertex]:
        return (a, b) if a <= b else (b, a)

    out: dict[tuple[Vertex, Vertex], int] = {}
    for l in range(1, gc.order + 1):
        Pl, Plt = Vertex(l, False), Vertex(l, True)
        out[edge(P, Pl)] = k[0]
        out[edge(Pt, Plt)] = k[0]
        if l in gc.connected_pairs:
            out[edge(Pl, Plt)] = k[l] - 1
    if gc.order == 2:
        out[edge(Vertex(1, False), Vertex(2, True))] = k[1]
        out[edge(Vertex(2, False), Vertex(1, True))] = k[1]
    if gc.i >= 1:
        out[edge(P, Pt)] = gc.i
    return out
