"""Order-3 face-map tables: computation, text serialization, and the active store.

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
from .faces import Face, _build_face_map, _canonical, enumerate_faces, vertex_id

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


def _entry(graph: ConnectionGraph, face: Face, u: Vertex, v: Vertex) -> MapPairs:
    """The map of pair u -> v on a face of an order-3 graph, as sorted class pairs."""
    return tuple(sorted(_build_face_map(graph, frozenset(graph.classes), face, u, v).items()))


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
        if pattern in PATTERNS and u != v and u in cycle and v in cycle:
            graph, face = ConnectionGraph(3, pattern), Face(tuple(map(_id_vertex, cycle)))
            if face in enumerate_faces(graph):
                pairs = self._index[pattern][(cycle, u, v)] = _entry(graph, face, _id_vertex(u), _id_vertex(v))
                return pairs
        return super()._missing(pattern, cycle, u, v)


def compute_order3_tables() -> FaceTables:
    """Build the five-pattern atlas directly from the order-3 graphs."""
    entries: dict[frozenset[int], dict[Face, dict[tuple[Vertex, Vertex], MapPairs]]] = {}
    for pattern in PATTERNS:
        graph = ConnectionGraph(3, pattern)
        entries[pattern] = {
            face: {(u, v): _entry(graph, face, u, v) for u, v in permutations(face.cycle, 2)}
            for face in enumerate_faces(graph)
        }
    return FaceTables(entries)


def _vertex_token(v: Vertex) -> str:
    return f"{v.cls}{'-' if v.tilded else '+'}"


def _is_number(token: str) -> bool:
    return token.isascii() and token.isdigit()  # `isdigit` alone takes '²', which `int` rejects, and '١'.


def _parse_vertex(token: str) -> Vertex:
    if len(token) != 2 or token[1] not in "+-" or not _is_number(token[0]):
        raise TableError(f"bad vertex token {token!r}")
    return Vertex(int(token[0]), token[1] == "-")


def _pattern_token(pattern: frozenset[int]) -> str:
    return "".join(str(c) for c in sorted(pattern)) or "-"


def _parse_pattern(token: str) -> frozenset[int]:
    if token == "-":
        return frozenset()
    if not _is_number(token):
        raise TableError(f"bad pattern token {token!r}")
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
            pattern = _parse_pattern(fields[1])
            if pattern not in PATTERNS:
                raise TableError(f"line {lineno}: {fields[1]!r} is not an order-3 cell pattern")
            graph = ConnectionGraph(3, pattern)
            entries.setdefault(pattern, {})
            face = None
        elif fields[0] == "face" and len(fields) == 5:
            if pattern is None:
                raise TableError(f"line {lineno}: face before any pattern")
            face = Face(tuple(_parse_vertex(t) for t in fields[1:]))
            if face not in enumerate_faces(graph):
                raise TableError(f"line {lineno}: {face.name} is not a canonical face of its pattern")
            entries[pattern].setdefault(face, {})
        elif fields[0] == "pair" and len(fields) >= 3:
            if pattern is None or face is None:
                raise TableError(f"line {lineno}: pair before pattern/face")
            u, v = _parse_vertex(fields[1]), _parse_vertex(fields[2])
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


_active: FaceTables | None = None


@lru_cache(maxsize=1)
def computed_tables() -> FaceTables:
    """The default store: the tables computed from the order-3 graphs, each entry on first use."""
    return _ComputedTables({})


def install_configured(path: str | None = None) -> None:
    """Install the tables at `path`, else at $SPIN_ATLAS_TABLES; with neither, keep the active store.

    Raises OSError or TableError when the file cannot be read or is not a valid table file.
    """
    path = path or os.environ.get(ENV_VAR)
    if path:
        set_active_tables(load_tables(path))


def active_tables() -> FaceTables:
    if _active is None:
        install_configured()
    return computed_tables() if _active is None else _active


def set_active_tables(tables: FaceTables | None) -> None:
    """Install an explicit table store (None restores the computed default)."""
    global _active
    _active = tables
    from . import classify

    classify.clear_caches()
