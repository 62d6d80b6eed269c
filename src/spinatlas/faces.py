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
    n = 2 * cg.order + 2
    # `Vertex.side` of id a is (a & 1) ^ (a < 2): side 0 holds ids 1, 2, 4, 6, ..., side 1 ids 0, 3, 5, ...
    across = ({0, *range(3, n, 2)}, {1, *range(2, n, 2)})  # the ids off side 0, then off side 1
    return [across[(a & 1) ^ (a < 2)] - (set() if a >> 1 in cg.connected else {a ^ 1}) for a in range(n)]


def face_cycles(near: list[set[int]], a: int, b: int) -> list[tuple[int, ...]]:
    """The faces through vertices a and b, as canonical id cycles, sorted; `near` is `neighbour_ids(cg)`.

    The graph is bipartite (chords join the two sides too), so on a face two
    adjacent vertices are neighbours on the cycle, and two that are not are
    opposite corners of one side: only those share neighbours.  A face is
    thus two same-side pairs, and its canonical cycle is (least point, lesser
    of the other pair, the least point's partner, greater of the other pair).
    """
    if b in near[a]:
        found, across = [], near[a] - {b}
        for x in near[b] - {a}:
            p, s = (a, x) if a < x else (x, a)
            for y in near[x] & across:
                q, t = (b, y) if b < y else (y, b)
                found.append((p, q, s, t) if p < q else (q, p, t, s))
    else:
        p, s = (a, b) if a < b else (b, a)
        common = sorted(near[a] & near[b])
        found = [(p, x, s, y) if p < x else (x, p, y, s) for k, x in enumerate(common) for y in common[k + 1:]]
    return sorted(found)


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


def cells_of(order: int, classes: frozenset[int]) -> tuple[frozenset[int], ...]:
    """The standard 3-cells (4-class subsets) of an order-r graph that hold a face on `classes`, in the
    order of their sorted classes: a four-class face's one cell is its class set, and adding fixed
    classes to each combination of the rest, taken in order, keeps that order."""
    if order < 3:
        return (frozenset(range(order + 1)),)
    if len(classes) == 4:
        return (classes,)
    rest = [c for c in range(order + 1) if c not in classes]
    return tuple(map(classes.union, combinations(rest, 4 - len(classes))))


def cells_containing(cg: ConnectionGraph, face: Face) -> tuple[frozenset[int], ...]:
    """The standard 3-cells (4-class subsets) whose decorated graph contains the face."""
    return cells_of(cg.order, frozenset(v.cls for v in face.cycle))


def direct_images(
    order: int, chords: frozenset[int], cell: frozenset[int], cycle: tuple[int, ...], u: int, v: int
) -> tuple[int, ...]:
    """The map of pair u -> v on a face, built from the face itself, all by vertex id: per class
    0..r its image, -1 off the domain.  `chords` are the graph's chorded classes and `cycle` the
    face's id 4-cycle, in either orientation, inside the 3-cell `cell`.

    The classes after and before u on the cycle go to those after and before v.  A face of two
    conjugate pairs maps nothing else and fixes every class off the face.  On any other face each
    end has one leftover label: the opposite corner's class, but at an end off the face's one
    conjugate pair, whose opposite corner's class is a neighbour's, its own class if chorded, else
    the cell's class off the face.  A chorded end also drops one label: its own class's on a face of
    four classes (whose one cell is its class set), the cell's class off the face on a face of one
    pair.  Leftover goes to leftover and, between two chorded ends, dropped to dropped; the rest of
    the cell is -1 and every class off the cell is fixed.
    """
    k, j = cycle.index(u), cycle.index(v)
    images = list(range(order + 1))
    a, b, c, d = cycle
    if a >> 1 != b >> 1 != c >> 1 != d >> 1 != a >> 1:  # only adjacent corners can be conjugate
        # four classes, whose set is the face's one cell
        images[cycle[k - 1] >> 1] = cycle[j - 1] >> 1
        images[cycle[k - 2] >> 1] = cycle[j - 2] >> 1
        images[cycle[k - 3] >> 1] = cycle[j - 3] >> 1
        images[u >> 1] = v >> 1 if u >> 1 in chords and v >> 1 in chords else -1
        return tuple(images)
    classes = {a >> 1, b >> 1, c >> 1, d >> 1}
    if len(classes) == 3:
        # one conjugate pair; the cell's class off the face is absent at order 2, where the cell is the face's
        spare = min(cell - classes, default=None)
        ends = []
        for at, w in ((k, u), (j, v)):
            own = w >> 1
            if own in (cycle[at - 1] >> 1, cycle[at - 3] >> 1):  # an end of the pair, so chorded
                ends.append((cycle[at - 2] >> 1, spare))
            else:
                ends.append((own, spare) if own in chords else (spare, None))
        for x in cell:
            images[x] = -1
        for x, y in zip(*ends):  # leftover to leftover, then dropped to dropped
            if x is not None and y is not None:
                images[x] = y
    images[cycle[k - 1] >> 1] = cycle[j - 1] >> 1
    images[cycle[k - 3] >> 1] = cycle[j - 3] >> 1
    return tuple(images)


@lru_cache(maxsize=None)
def _face_map_pairs(cg: ConnectionGraph, cell: frozenset[int], face: Face, u: Vertex, v: Vertex) -> tuple[int, ...]:
    """`direct_images`, memoized, for a vertex pair of the face; `face_map` is its only reader."""
    if u == v or u not in face or v not in face:
        raise ValueError(f"{u.name}->{v.name} is not a vertex pair of face {face.name}")
    return direct_images(cg.order, cg.connected, cell, tuple(map(vertex_id, face.cycle)), vertex_id(u), vertex_id(v))


def face_map(cg: ConnectionGraph, cell: frozenset[int], face: Face, u: Vertex, v: Vertex) -> dict[int, int]:
    """Partial bijection (label class at u) -> (label class at v) induced by the face, every class off the cell
    fixed.  No run reads it: the chain search and `chains.evaluate` call `direct_images` by vertex id."""
    return {c: t for c, t in enumerate(_face_map_pairs(cg, cell, face, u, v)) if t >= 0}
