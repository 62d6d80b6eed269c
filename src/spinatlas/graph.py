"""Connection graphs: 2r+2 labelled vertices, bipartite skeleton plus conjugate chords.

Vertices come in conjugate pairs, one pair per class 0..r.  The skeleton joins
two vertices exactly when they sit on opposite sides of the bipartition and are
not conjugate; a chord joins the two vertices of every connected pair.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .params import GraphClass


class UnsupportedOrderError(ValueError):
    """Requested operation is only defined for small orders."""


@dataclass(frozen=True, order=True)
class Vertex:
    cls: int
    tilded: bool

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
        s = text.strip()
        tilded = s.endswith("~")
        if tilded:
            s = s[:-1]
        if not s.startswith("P"):
            raise ValueError(f"cannot parse vertex name {text!r}")
        digits = s[1:]
        cls = int(digits) if digits else 0
        return Vertex(cls, tilded)


@dataclass(frozen=True)
class ConnectionGraph:
    order: int
    connected: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "connected", frozenset(self.connected))
        bad = [c for c in self.connected if not 0 <= c <= self.order]
        if self.order < 0 or bad:
            raise ValueError(f"bad connection data (order={self.order}, connected={sorted(self.connected)})")

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

    def neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        return tuple(w for w in self.vertices() if self.adjacent(v, w))

    def neighbor_of_class(self, v: Vertex, cls: int) -> Vertex:
        """The unique neighbor of v carrying the given class."""
        if cls == v.cls:
            if cls not in self.connected:
                raise ValueError(f"{v.name} has no own-class neighbor (pair {cls} not connected)")
            return v.conjugate
        return Vertex(cls, bool((1 - v.side) ^ int(cls == 0)))

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


@lru_cache(maxsize=None)
def edge_multiplicities_r_le_2(gc: GraphClass) -> MappingProxyType[tuple[Vertex, Vertex], int]:
    """Multiplicity labels of the straight edges of the full graph, orders 0..2 only.

    Chord edges carry k_l - 1 (the own-pair exponent); skeleton edges carry k_0
    on the four short sides and k_1 on the two long sides.  Zero-multiplicity
    chords are omitted.  The result is cached per class, so it is read-only.
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
        if k[l] >= 2:
            out[edge(Pl, Plt)] = k[l] - 1
    if gc.order == 2:
        out[edge(Vertex(1, False), Vertex(2, True))] = k[1]
        out[edge(Vertex(2, False), Vertex(1, True))] = k[1]
    if gc.i >= 1:
        out[edge(P, Pt)] = gc.i
    return MappingProxyType(out)
