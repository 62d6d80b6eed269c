"""Order-3 face-map tables, computed in memory; no run reads them.

Every 4-class cell of a higher-order graph reduces to one of five order-3
decoration patterns (no chord, or chords on a top slice of the classes).  The
tables hold, per pattern, per face, per ordered vertex pair, the label map as
class pairs, in one dict keyed by vertex ids.  Every run builds each face map
from its face (`faces.direct_images`); `tests/lift_oracle.py` lifts maps
through these tables to check that a map at order r is its cell's order-3
map, renamed.
"""
from __future__ import annotations

from collections.abc import Iterator
from itertools import permutations

from .graph import ConnectionGraph, Vertex
from .faces import _canonical, direct_images, enumerate_faces, vertex_id

# chord patterns an order-3 cell of a larger graph can carry
PATTERNS: tuple[frozenset[int], ...] = (
    frozenset(),
    frozenset({3}),
    frozenset({2, 3}),
    frozenset({1, 2, 3}),
    frozenset({0, 1, 2, 3}),
)

MapPairs = tuple[tuple[int, int], ...]


class TableError(ValueError):
    """A lookup of a key the tables do not hold."""


# a key of the tables: the chord pattern, a face's canonical cycle and an ordered pair of its corners, all by vertex id
# of the pattern's order-3 graph
Key = tuple[frozenset[int], tuple[int, ...], int, int]


def _entry(pattern: frozenset[int], cycle: tuple[int, ...], u: int, v: int) -> MapPairs:
    """The map of pair u -> v on a face of the pattern's order-3 graph, all by vertex id, as sorted class pairs."""
    images = direct_images(3, pattern, frozenset(range(4)), cycle, u, v)
    return tuple((c, t) for c, t in enumerate(images) if t >= 0)


def _keys() -> Iterator[Key]:
    """Every key of the tables: each pattern, face (in `enumerate_faces` order) and ordered corner pair."""
    for pattern in PATTERNS:
        for face in enumerate_faces(ConnectionGraph(3, pattern)):
            cycle = tuple(map(vertex_id, face.cycle))
            for u, v in permutations(cycle, 2):
                yield pattern, cycle, u, v


def _id_vertex(w: int) -> Vertex:
    return Vertex(w >> 1, bool(w & 1))


class FaceTables:
    """Per (pattern, canonical id cycle, u, v) key, the map of pair u -> v on that face as class pairs."""

    def __init__(self, entries: dict[Key, MapPairs]) -> None:
        self.entries = entries

    def lookup(self, pattern: frozenset[int], cycle: tuple[int, ...], u: int, v: int) -> MapPairs:
        """The map of pair u -> v on the face with this cycle, all as vertex ids of the order-3 graph."""
        key = (pattern, _canonical(cycle), u, v)
        pairs = self.entries.get(key)
        if pairs is None:
            names = [_id_vertex(w).name for w in (*key[1], u, v)]
            where = f"face {'-'.join(names[:4])}, {names[4]}->{names[5]}"
            raise TableError(f"no table entry for pattern {sorted(pattern)}, {where}")
        return pairs


def compute_order3_tables() -> FaceTables:
    """Build the five-pattern atlas directly from the order-3 graphs."""
    return FaceTables({key: _entry(*key) for key in _keys()})


def active_tables() -> None:
    """None: no run loads a table file, and every run builds each face map from its face.

    Kept only because the benchmark's set-up code (`SETUP_CODE` in `perfbench/run.py`) calls it;
    it goes once that code no longer does.
    """
    return None
