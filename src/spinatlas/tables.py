"""Order-3 face-map tables: computation, text serialization, and the store a run starts from.

Every 4-class cell of a higher-order graph reduces to one of five order-3
decoration patterns (no chord, or chords on a top slice of the classes).  The
tables hold, per pattern, per face, per ordered vertex pair, the label map as
class pairs.  The text format is line-oriented and round-trips byte-exactly.
"""
from __future__ import annotations

import os
from functools import lru_cache
from itertools import permutations

from .graph import ConnectionGraph, Vertex
from .faces import Face, _canonical, direct_images, enumerate_faces, neighbour_ids, vertex_id

FORMAT_HEADER = "spin-atlas-face-tables v1"
ENV_VAR = "SPIN_ATLAS_TABLES"

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
    """Malformed or incomplete face-map table data."""


def _entry(pattern: frozenset[int], cycle: tuple[int, ...], u: int, v: int) -> MapPairs:
    """The map of pair u -> v on a face of the pattern's order-3 graph, all by vertex id, as sorted class pairs."""
    images = direct_images(3, pattern, frozenset(range(4)), cycle, u, v)
    return tuple((c, t) for c, t in enumerate(images) if t >= 0)


def _id_vertex(w: int) -> Vertex:
    return Vertex(w >> 1, bool(w & 1))


class FaceTables:
    """Per pattern, per face, per ordered vertex pair, the map as class pairs."""

    def __init__(self, entries: dict[frozenset[int], dict[Face, dict[tuple[Vertex, Vertex], MapPairs]]]) -> None:
        self.entries = entries
        # per pattern, the entries keyed by (canonical cycle, u, v) in vertex ids; built on first lookup
        self._index: dict[frozenset[int], dict] = {}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def lookup(self, pattern: frozenset[int], cycle: tuple[int, ...], u: int, v: int) -> MapPairs:
        """The map of pair u -> v on the face with this cycle, all as vertex ids of the order-3 graph."""
        index = self._index.get(pattern)
        if index is None:
            index = self._index[pattern] = {
                (_canonical(tuple(map(vertex_id, face.cycle))), vertex_id(a), vertex_id(b)): pairs
                for face, per_pair in self.entries.get(pattern, {}).items()
                for (a, b), pairs in per_pair.items()
            }
        cycle = _canonical(cycle)
        pairs = index.get((cycle, u, v))
        return self._missing(pattern, cycle, u, v) if pairs is None else pairs

    def _missing(self, pattern: frozenset[int], cycle: tuple[int, ...], u: int, v: int) -> MapPairs:
        """The entry `lookup` did not find in the index; a store of fixed entries has none to give."""
        names = [_id_vertex(w).name for w in (*cycle, u, v)]
        where = f"face {'-'.join(names[:4])}, {names[4]}->{names[5]}"
        raise TableError(f"no table entry for pattern {sorted(pattern)}, {where}")


class _ComputedTables(FaceTables):
    """Starts empty and builds each entry from its pattern's order-3 graph on first lookup."""

    def _missing(self, pattern: frozenset[int], cycle: tuple[int, ...], u: int, v: int) -> MapPairs:
        if pattern in PATTERNS and u != v and u in cycle and v in cycle and len(set(cycle)) == 4:
            # `lookup` gave the cycle canonical; it is a face when each corner neighbours the one before
            near = neighbour_ids(ConnectionGraph(3, pattern))
            if all(0 <= w < 8 and cycle[k - 1] in near[w] for k, w in enumerate(cycle)):
                pairs = self._index[pattern][(cycle, u, v)] = _entry(pattern, cycle, u, v)
                return pairs
        return super()._missing(pattern, cycle, u, v)


def compute_order3_tables() -> FaceTables:
    """Build the five-pattern atlas directly from the order-3 graphs."""
    entries: dict[frozenset[int], dict[Face, dict[tuple[Vertex, Vertex], MapPairs]]] = {}
    for pattern in PATTERNS:
        per_face = entries[pattern] = {}
        for face in enumerate_faces(ConnectionGraph(3, pattern)):
            cycle = tuple(map(vertex_id, face.cycle))
            per_face[face] = {
                (u, v): _entry(pattern, cycle, vertex_id(u), vertex_id(v)) for u, v in permutations(face.cycle, 2)
            }
    return FaceTables(entries)


def _vertex_token(v: Vertex) -> str:
    return f"{v.cls}{'-' if v.tilded else '+'}"


def _is_number(token: str) -> bool:
    return token.isascii() and token.isdigit()  # `isdigit` alone takes '²', which `int` rejects, and '١'.


def _parse_vertex(token: str, lineno: int) -> Vertex:
    if len(token) != 2 or token[1] not in "+-" or not _is_number(token[0]):
        raise TableError(f"line {lineno}: bad vertex token {token!r}")
    return Vertex(int(token[0]), token[1] == "-")


def _pattern_token(pattern: frozenset[int]) -> str:
    return "".join(str(c) for c in sorted(pattern)) or "-"


def _parse_pattern(token: str, lineno: int) -> frozenset[int]:
    if token == "-":
        return frozenset()
    if not _is_number(token):
        raise TableError(f"line {lineno}: bad pattern token {token!r}")
    return frozenset(int(ch) for ch in token)


def render_tables(tables: FaceTables) -> str:
    lines = [FORMAT_HEADER]
    for pattern in sorted(tables.entries, key=sorted):
        lines.append(f"pattern {_pattern_token(pattern)}")
        per_face = tables.entries[pattern]
        for face in sorted(per_face):
            lines.append("face " + " ".join(_vertex_token(w) for w in face.cycle))
            per_pair = per_face[face]
            for (u, v) in sorted(per_pair):
                sends = " ".join(f"{a}>{b}" for a, b in per_pair[(u, v)])
                lines.append(f"pair {_vertex_token(u)} {_vertex_token(v)} {sends}")
    return "\n".join(lines) + "\n"


def parse_tables(text: str) -> FaceTables:
    """Read the text format.  Each face must be a canonical 4-cycle of its pattern's graph, each map
    injective from the label set at u into the one at v and total on the smaller of the two, and
    every pattern, face and pair present."""
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_HEADER:
        raise TableError(f"missing header line {FORMAT_HEADER!r}")
    entries: dict[frozenset[int], dict[Face, dict[tuple[Vertex, Vertex], MapPairs]]] = {}
    pattern: frozenset[int] | None = None
    face: Face | None = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "pattern" and len(fields) == 2:
            pattern = _parse_pattern(fields[1], lineno)
            if pattern not in PATTERNS:
                raise TableError(f"line {lineno}: {fields[1]!r} is not an order-3 cell pattern")
            graph = ConnectionGraph(3, pattern)
            entries.setdefault(pattern, {})
            face = None
        elif fields[0] == "face" and len(fields) == 5:
            if pattern is None:
                raise TableError(f"line {lineno}: face before any pattern")
            face = Face(tuple(_parse_vertex(t, lineno) for t in fields[1:]))
            if face not in enumerate_faces(graph):
                raise TableError(f"line {lineno}: {face.name} is not a canonical face of its pattern")
            entries[pattern].setdefault(face, {})
        elif fields[0] == "pair" and len(fields) >= 3:
            if pattern is None or face is None:
                raise TableError(f"line {lineno}: pair before pattern/face")
            u, v = _parse_vertex(fields[1], lineno), _parse_vertex(fields[2], lineno)
            sends = []
            for tok in fields[3:]:
                a, sep, b = tok.partition(">")
                if sep != ">" or not _is_number(a) or not _is_number(b):
                    raise TableError(f"line {lineno}: bad map token {tok!r}")
                sends.append((int(a), int(b)))
            srcs, tgts = {a for a, _ in sends}, {b for _, b in sends}
            if u == v or u not in face or v not in face or (u, v) in entries[pattern][face]:
                raise TableError(f"line {lineno}: {u.name}->{v.name} is not a new vertex pair of face {face.name}")
            if not len(srcs) == len(tgts) == len(sends):
                raise TableError(f"line {lineno}: the map {u.name}->{v.name} is not injective")
            if not srcs <= set(graph.label_classes(u)) or not tgts <= set(graph.label_classes(v)):
                raise TableError(f"line {lineno}: the map {u.name}->{v.name} leaves their label sets")
            # a face map pairs every label at the end with fewer labels
            total = min(len(graph.label_classes(u)), len(graph.label_classes(v)))
            if len(sends) < total:
                raise TableError(f"line {lineno}: the map {u.name}->{v.name} pairs {len(sends)} of {total} labels")
            entries[pattern][face][(u, v)] = tuple(sends)
        else:
            raise TableError(f"line {lineno}: unrecognized line {raw!r}")
    for pattern in PATTERNS:
        for face in enumerate_faces(ConnectionGraph(3, pattern)):
            for u, v in permutations(face.cycle, 2):
                if (u, v) not in entries.get(pattern, {}).get(face, {}):
                    where = f"pattern {_pattern_token(pattern)}, face {face.name}, pair {u.name}->{v.name}"
                    raise TableError(f"missing table entry: {where}")
    return FaceTables(entries)


def load_tables(path: str) -> FaceTables:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tables(fh.read())


def shipped_tables_path() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "order3_tables.txt")


@lru_cache(maxsize=1)
def computed_tables() -> FaceTables:
    """The default store: the tables computed from the order-3 graphs, each entry on first use."""
    return _ComputedTables({})


def active_tables() -> FaceTables:
    """The store a run uses when it names no table file: the file $SPIN_ATLAS_TABLES names, else the computed tables.

    Raises OSError or TableError when that file cannot be read or is not a valid table file.
    """
    path = os.environ.get(ENV_VAR)
    return load_tables(path) if path else computed_tables()
