"""Quadrilateral faces, standard 3-cells, and the label bijections a face induces.

A face is a 4-cycle of the connection graph.  Between any two of its vertices
it induces a partial bijection of label sets, assembled from four ingredients:

* two "travel" chains that identify, around the cycle, the labels pointing at
  the successor (resp. predecessor) vertex;
* one leftover chain pairing the remaining in-cell label at each vertex;
* identity on every class outside the ambient 4-class cell (and, for faces
  consisting of two conjugate pairs, on every class off the face);
* for two vertices of maximal degree, the label a face suppresses at one end
  is carried to the label suppressed at the other.

At a vertex of degree r+1 a face with at most one conjugate pair suppresses a
single label: its own-class label when the face has no conjugate pair, else
the label of the absent cell class.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .graph import ConnectionGraph, Vertex


class FaceKind(Enum):
    STANDARD = "standard"
    ONE_PAIR = "one-pair"
    TWO_PAIR = "two-pair"


@dataclass(frozen=True, order=True)
class Face:
    cycle: tuple[Vertex, Vertex, Vertex, Vertex]

    @staticmethod
    def from_cycle(cycle: tuple[Vertex, ...]) -> "Face":
        """Canonicalize a 4-cycle: lexicographically least rotation or reflection."""
        if len(cycle) != 4 or len(set(cycle)) != 4:
            raise ValueError(f"a face needs four distinct vertices, got {cycle}")
        # the least sequence starts at the least vertex and goes on to its lesser neighbor
        k = cycle.index(min(cycle))
        a, b, c, d = cycle[k:] + cycle[:k]
        return Face((a, b, c, d) if b < d else (a, d, c, b))

    def __contains__(self, v: Vertex) -> bool:
        return v in self.cycle

    @property
    def vertex_set(self) -> frozenset[Vertex]:
        return frozenset(self.cycle)

    @property
    def classes(self) -> frozenset[int]:
        return frozenset(v.cls for v in self.cycle)

    @property
    def pair_count(self) -> int:
        return sum(1 for v in self.cycle if v.tilded and v.conjugate in self.cycle)

    @property
    def kind(self) -> FaceKind:
        return (FaceKind.STANDARD, FaceKind.ONE_PAIR, FaceKind.TWO_PAIR)[self.pair_count]

    def successor(self, v: Vertex) -> Vertex:
        return self.cycle[(self.cycle.index(v) + 1) % 4]

    def predecessor(self, v: Vertex) -> Vertex:
        return self.cycle[(self.cycle.index(v) - 1) % 4]

    def opposite(self, v: Vertex) -> Vertex:
        return self.cycle[(self.cycle.index(v) + 2) % 4]

    def conjugate(self) -> "Face":
        return Face.from_cycle(tuple(v.conjugate for v in self.cycle))

    @property
    def name(self) -> str:
        return "-".join(v.name for v in self.cycle)


def face_kind(face: Face) -> FaceKind:
    return face.kind


@lru_cache(maxsize=None)
def enumerate_faces(cg: ConnectionGraph) -> tuple[Face, ...]:
    """All 4-cycles, found by pairing same-side vertices with two common neighbors."""
    verts = cg.vertices()
    found: set[Face] = set()
    for a in verts:
        for b in verts:
            if b <= a or a.side != b.side:
                continue
            common = [w for w in verts if cg.adjacent(a, w) and cg.adjacent(b, w)]
            for x in range(len(common)):
                for y in range(x + 1, len(common)):
                    found.add(Face.from_cycle((a, common[x], b, common[y])))
    return tuple(sorted(found))


@lru_cache(maxsize=None)
def cells_containing(cg: ConnectionGraph, face: Face) -> tuple[frozenset[int], ...]:
    """The standard 3-cells (4-class subsets) whose decorated graph contains the face."""
    base = face.classes
    if cg.order < 3:
        return (frozenset(cg.classes),)
    rest = sorted(set(cg.classes) - base)
    need = 4 - len(base)
    out = []
    for combo in _subsets(rest, need):
        out.append(frozenset(base | set(combo)))
    return tuple(sorted(out, key=sorted))


def _subsets(items: list[int], size: int):
    if size == 0:
        yield ()
        return
    for idx, first in enumerate(items):
        for rest in _subsets(items[idx + 1:], size - 1):
            yield (first, *rest)


def localize_vertex(cell_classes: tuple[int, ...], v: Vertex) -> Vertex:
    """Rename v into the order-3 graph of a cell; parity is adjusted so sides carry over."""
    local_cls = cell_classes.index(v.cls)
    tilded = bool(v.tilded ^ (v.cls == 0) ^ (local_cls == 0))
    return Vertex(local_cls, tilded)


@lru_cache(maxsize=None)
def decorated_cell(cg: ConnectionGraph, cell: frozenset[int]) -> tuple[ConnectionGraph, dict[int, int]]:
    """Order-3 connection graph of a cell plus the class renaming used for it."""
    if len(cell) != min(4, cg.order + 1) or not cell <= set(cg.classes):
        raise ValueError(f"not a cell of an order-{cg.order} graph: {sorted(cell)}")
    classes = tuple(sorted(cell))
    renaming = {c: k for k, c in enumerate(classes)}
    local = ConnectionGraph(len(classes) - 1, frozenset(renaming[c] for c in cg.connected & cell))
    return local, renaming


def _whole_cell(cg: ConnectionGraph) -> frozenset[int]:
    return frozenset(cg.classes)


def _absent_class(cell: frozenset[int], face: Face) -> int | None:
    missing = cell - face.classes
    return min(missing) if missing else None


def _build_face_map(cg: ConnectionGraph, cell: frozenset[int], face: Face, u: Vertex, v: Vertex) -> dict[int, int]:
    top = cg.order + 1
    mapping: dict[int, int] = {}
    if face.pair_count == 2:
        # cell-independent: everything off the face stays put
        for c in cg.label_classes(u):
            if c not in face.classes:
                mapping[c] = c
        mapping[face.successor(u).cls] = face.successor(v).cls
        mapping[face.predecessor(u).cls] = face.predecessor(v).cls
        return mapping

    absent = _absent_class(cell, face) if face.pair_count == 1 else None

    def dropped(w: Vertex) -> int | None:
        if cg.epsilon_degree(w) != top:
            return None
        return w.cls if face.pair_count == 0 else absent

    def leftover(w: Vertex) -> int | None:
        used = {face.successor(w).cls, face.predecessor(w).cls, dropped(w)}
        rest = [c for c in cg.label_classes(w) if c in cell and c not in used]
        if len(rest) > 1:
            raise AssertionError(f"ambiguous leftover at {w.name} on {face.name}")
        return rest[0] if rest else None

    mapping[face.successor(u).cls] = face.successor(v).cls
    mapping[face.predecessor(u).cls] = face.predecessor(v).cls
    lu, lv = leftover(u), leftover(v)
    if lu is not None and lv is not None:
        mapping[lu] = lv
    du, dv = dropped(u), dropped(v)
    if du is not None and dv is not None:
        mapping[du] = dv
    for c in cg.label_classes(u):
        if c not in cell:
            mapping[c] = c
    return mapping


@lru_cache(maxsize=None)
def _face_map_pairs(cg: ConnectionGraph, cell: frozenset[int], face: Face, u: Vertex, v: Vertex) -> tuple[int, ...]:
    """The face map as a tuple over classes 0..r: each class's image, -1 off the domain."""
    if u == v or u not in face or v not in face:
        raise ValueError(f"{u.name}->{v.name} is not a vertex pair of face {face.name}")
    if cg.order <= 3:
        mapping = _build_face_map(cg, cell, face, u, v)
    else:
        from . import tables

        classes = tuple(sorted(cell))
        local_cg, _ = decorated_cell(cg, cell)
        local_face = Face.from_cycle(tuple(localize_vertex(classes, w) for w in face.cycle))
        pairs = tables.active_tables().lookup(
            local_cg.connected, local_face, localize_vertex(classes, u), localize_vertex(classes, v)
        )
        mapping = {classes[a]: classes[b] for a, b in pairs}
        for c in cg.label_classes(u):
            if c not in cell:
                mapping[c] = c
    return tuple(mapping.get(c, -1) for c in cg.classes)


def face_map(cg: ConnectionGraph, cell: frozenset[int], face: Face, u: Vertex, v: Vertex) -> dict[int, int]:
    """Partial bijection (label class at u) -> (label class at v) induced by the face.

    Orders up to 3 are built directly; higher orders localize the cell to its
    order-3 pattern, consult the order-3 tables, and lift the answer back,
    mapping every class outside the cell to itself.
    """
    return {c: t for c, t in enumerate(_face_map_pairs(cg, cell, face, u, v)) if t >= 0}
