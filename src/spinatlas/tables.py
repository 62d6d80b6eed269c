"""Order-3 face-map tables: computation, text serialization, and the table file a run may load.

Every 4-class cell of a higher-order graph reduces to one of five order-3
decoration patterns (no chord, or chords on a top slice of the classes).  The
tables hold, per pattern, per face, per ordered vertex pair, the label map as
class pairs, in one dict keyed by vertex ids; the text format, which names
vertices and faces, is line-oriented and round-trips byte-exactly.  A run
that loads a table file lifts its face maps from order 4 on through it
(`faces.lifted_images`); without one, every map is built from its face.
"""
from __future__ import annotations

import os
from collections.abc import Iterator
from itertools import permutations

from .graph import ConnectionGraph, Vertex
from .faces import Face, _canonical, direct_images, enumerate_faces, is_face, vertex_id

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


# a store's key: the chord pattern, a face's canonical cycle and an ordered pair of its corners, all by vertex id
# of the pattern's order-3 graph
Key = tuple[frozenset[int], tuple[int, ...], int, int]


def _entry(pattern: frozenset[int], cycle: tuple[int, ...], u: int, v: int) -> MapPairs:
    """The map of pair u -> v on a face of the pattern's order-3 graph, all by vertex id, as sorted class pairs."""
    images = direct_images(3, pattern, frozenset(range(4)), cycle, u, v)
    return tuple((c, t) for c, t in enumerate(images) if t >= 0)


def _keys() -> Iterator[Key]:
    """Every key a complete store holds: each pattern, face (in `enumerate_faces` order) and ordered corner pair."""
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
    pattern = frozenset(int(ch) for ch in token) if _is_number(token) else frozenset()
    if _pattern_token(pattern) != token:
        raise TableError(f"line {lineno}: bad pattern token {token!r}")
    return pattern


def render_tables(tables: FaceTables) -> str:
    lines = [FORMAT_HEADER]
    last = None
    for key in sorted(tables.entries, key=lambda k: (sorted(k[0]), k[1:])):
        pattern, cycle, u, v = key
        if last is None or pattern != last[0]:
            lines.append(f"pattern {_pattern_token(pattern)}")
        if (pattern, cycle) != last:
            lines.append("face " + " ".join(_vertex_token(_id_vertex(w)) for w in cycle))
        last = (pattern, cycle)
        sends = " ".join(f"{a}>{b}" for a, b in tables.entries[key])
        lines.append(f"pair {_vertex_token(_id_vertex(u))} {_vertex_token(_id_vertex(v))} {sends}")
    return "\n".join(lines) + "\n"


def parse_tables(text: str) -> FaceTables:
    """Read the text format.  Each pattern must be written as its canonical token (its classes
    ascending, or '-'), each face as a canonical 4-cycle of its pattern's graph, each map injective
    from the label set at u into the one at v and total on the smaller of the two, and every
    pattern, face and pair present."""
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_HEADER:
        raise TableError(f"missing header line {FORMAT_HEADER!r}")
    entries: dict[Key, MapPairs] = {}
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
            face = None
        elif fields[0] == "face" and len(fields) == 5:
            if pattern is None:
                raise TableError(f"line {lineno}: face before any pattern")
            face = Face(tuple(_parse_vertex(t, lineno) for t in fields[1:]))
            if not is_face(graph, face):
                raise TableError(f"line {lineno}: {face.name} is not a canonical face of its pattern")
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
            key = (pattern, tuple(map(vertex_id, face.cycle)), vertex_id(u), vertex_id(v))
            if u == v or u not in face or v not in face or key in entries:
                raise TableError(f"line {lineno}: {u.name}->{v.name} is not a new vertex pair of face {face.name}")
            if not len(srcs) == len(tgts) == len(sends):
                raise TableError(f"line {lineno}: the map {u.name}->{v.name} is not injective")
            if not srcs <= set(graph.label_classes(u)) or not tgts <= set(graph.label_classes(v)):
                raise TableError(f"line {lineno}: the map {u.name}->{v.name} leaves their label sets")
            # a face map pairs every label at the end with fewer labels
            total = min(len(graph.label_classes(u)), len(graph.label_classes(v)))
            if len(sends) < total:
                raise TableError(f"line {lineno}: the map {u.name}->{v.name} pairs {len(sends)} of {total} labels")
            entries[key] = tuple(sends)
        else:
            raise TableError(f"line {lineno}: unrecognized line {raw!r}")
    for key in _keys():
        if key not in entries:
            pattern, cycle, u, v = key
            names = [_id_vertex(w).name for w in (*cycle, u, v)]
            where = f"pattern {_pattern_token(pattern)}, face {'-'.join(names[:4])}, pair {names[4]}->{names[5]}"
            raise TableError(f"missing table entry: {where}")
    return FaceTables(entries)


def load_tables(path: str) -> FaceTables:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:  # a ValueError, which a run reads as a bad search setting
            raise TableError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_tables(text)


def shipped_tables_path() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "order3_tables.txt")


def active_tables() -> FaceTables | None:
    """The table file a run loads when its command line names none: the one $SPIN_ATLAS_TABLES names,
    else None, and the run builds every face map from its face.

    Raises OSError or TableError when that file cannot be read or is not a valid table file.
    """
    path = os.environ.get(ENV_VAR)
    return load_tables(path) if path else None
