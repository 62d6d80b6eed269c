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

from collections import namedtuple
from functools import lru_cache
from itertools import combinations

from .graph import ConnectionGraph, Vertex


class Face(namedtuple("Face", "cycle")):
    """A 4-cycle of vertices; `from_cycle` gives the canonical one."""

    __slots__ = ()

    @staticmethod
    def from_cycle(cycle: tuple[Vertex, ...]) -> "Face":
        """Canonicalize a 4-cycle: lexicographically least rotation or reflection."""
        if len(cycle) != 4 or len(set(cycle)) != 4:
            raise ValueError(f"a face needs four distinct vertices, got {cycle}")
        return Face(_canonical(tuple(cycle)))

    def __contains__(self, v: Vertex) -> bool:
        return v in self.cycle

    @property
    def name(self) -> str:
        return "-".join(v.name for v in self.cycle)


def _canonical(cycle: tuple) -> tuple:
    """The least rotation or reflection of a 4-cycle: least vertex first, then its lesser neighbor."""
    k = cycle.index(min(cycle))
    a, b, c, d = cycle[k:] + cycle[:k]
    return (a, b, c, d) if b < d else (a, d, c, b)


def vertex_id(v: Vertex) -> int:
    """A vertex's index in `ConnectionGraph.vertices()`; ids sort like vertices."""
    return 2 * v.cls + v.tilded


def neighbour_ids(cg: ConnectionGraph) -> list[set[int]]:
    """Per vertex id, its neighbours' ids: the other side, less its conjugate unless that pair is chorded."""
    ids = range(2 * cg.order + 2)
    side = [(w & 1) ^ (w < 2) for w in ids]  # `Vertex.side` by id
    across = [{w for w in ids if side[w] != s} for s in (0, 1)]
    return [across[side[a]] - (set() if a >> 1 in cg.connected else {a ^ 1}) for a in ids]


def face_cycles(near: list[set[int]], a: int, b: int) -> list[tuple[int, ...]]:
    """The faces through vertices a and b, as canonical id cycles, sorted; `near` is `neighbour_ids(cg)`.

    The graph is bipartite (chords join the two sides too), so on a face two
    adjacent vertices are neighbours on the cycle, and two that are not are
    opposite corners of one side: only those share neighbours.
    """
    if b in near[a]:
        cycles = [(a, b, x, y) for x in near[b] - {a} for y in near[x] & near[a] - {b}]
    else:
        common = sorted(near[a] & near[b])
        cycles = [(a, x, b, y) for k, x in enumerate(common) for y in common[k + 1:]]
    return sorted(map(_canonical, cycles))


@lru_cache(maxsize=None)
def enumerate_faces(cg: ConnectionGraph) -> tuple[Face, ...]:
    """All 4-cycles: the faces through each pair of non-adjacent vertices, a face's opposite corners."""
    verts = cg.vertices()
    near = neighbour_ids(cg)
    found = {
        cycle for a, b in combinations(range(len(verts)), 2) if b not in near[a] for cycle in face_cycles(near, a, b)
    }
    return tuple(Face(tuple(map(verts.__getitem__, cycle))) for cycle in sorted(found))


def is_face(cg: ConnectionGraph, face: Face) -> bool:
    """Whether `face` is one of `enumerate_faces(cg)`, read off its own cycle: four distinct vertices of
    the graph, each adjacent to the next, in canonical order.  Every edge joins the two sides, so such a
    cycle pairs two same-side vertices through two common neighbors, as the enumerated faces do."""
    cycle = face.cycle
    return (
        len(cycle) == 4
        and len(set(cycle)) == 4
        and all(v.cls in cg.classes and v.tilded in (False, True) for v in cycle)
        and all(cg.adjacent(cycle[k - 1], cycle[k]) for k in range(4))
        and cycle == _canonical(cycle)
    )


@lru_cache(maxsize=None)
def cells_of(order: int, mask: int) -> tuple[frozenset[int], ...]:
    """The standard 3-cells (4-class subsets) of an order-r graph that hold a face on the classes in `mask`."""
    if order < 3:
        return (frozenset(range(order + 1)),)
    classes = frozenset(c for c in range(order + 1) if mask >> c & 1)
    rest = sorted(set(range(order + 1)) - classes)
    return tuple(sorted((classes.union(combo) for combo in combinations(rest, 4 - len(classes))), key=sorted))


def class_mask(cycle: tuple[int, ...]) -> int:
    """The classes of an id cycle, as a bitmask."""
    return sum({1 << (w >> 1) for w in cycle})


def cells_containing(cg: ConnectionGraph, face: Face) -> tuple[frozenset[int], ...]:
    """The standard 3-cells (4-class subsets) whose decorated graph contains the face."""
    return cells_of(cg.order, class_mask(tuple(map(vertex_id, face.cycle))))


def direct_images(
    order: int, chords: frozenset[int], cell: frozenset[int], cycle: tuple[int, ...], u: int, v: int
) -> tuple[int, ...]:
    """The map of pair u -> v on a face, built from the face itself, all by vertex id: per class
    0..r its image, -1 off the domain.  `chords` are the graph's chorded classes and `cycle` the
    face's id 4-cycle, in either orientation, inside the 3-cell `cell`."""
    classes = {w >> 1 for w in cycle}
    pairs = 4 - len(classes)  # conjugate pairs on the face
    # a face of two conjugate pairs is cell-independent: everything off the face stays put
    kept = classes if pairs == 2 else cell
    images = [-1 if c in kept else c for c in range(order + 1)]
    # per end: the classes of its successor and predecessor on the cycle, its leftover and dropped labels
    ends = []
    for w in (u, v):
        k, own = cycle.index(w), w >> 1
        after, before = cycle[k - 3] >> 1, cycle[k - 1] >> 1
        left = dropped = None
        if pairs < 2:
            if own in chords:
                # at maximal degree the face suppresses one label: the own class's, or with a pair the absent class's
                dropped = own if pairs == 0 else min(cell - classes, default=None)
            rest = [c for c in cell if c not in (after, before, dropped) and (c != own or own in chords)]
            if len(rest) > 1:
                raise AssertionError(f"ambiguous leftover at vertex {w} on face {cycle}")
            left = rest[0] if rest else None
        ends.append((after, before, left, dropped))
    (au, bu, lu, du), (av, bv, lv, dv) = ends
    images[au], images[bu] = av, bv
    for a, b in ((lu, lv), (du, dv)):
        if a is not None and b is not None:
            images[a] = b
    return tuple(images)


@lru_cache(maxsize=None)
def _face_map_pairs(cg: ConnectionGraph, cell: frozenset[int], face: Face, u: Vertex, v: Vertex) -> tuple[int, ...]:
    """`direct_images`, memoized, for a vertex pair of the face."""
    if u == v or u not in face or v not in face:
        raise ValueError(f"{u.name}->{v.name} is not a vertex pair of face {face.name}")
    return direct_images(cg.order, cg.connected, cell, tuple(map(vertex_id, face.cycle)), vertex_id(u), vertex_id(v))


def face_map(cg: ConnectionGraph, cell: frozenset[int], face: Face, u: Vertex, v: Vertex) -> dict[int, int]:
    """Partial bijection (label class at u) -> (label class at v) induced by the face.

    Built from the face itself at every order, mapping every class outside the cell to itself.
    """
    return {c: t for c, t in enumerate(_face_map_pairs(cg, cell, face, u, v)) if t >= 0}
