"""Shared fixture data: the small connection graphs and their named faces."""
from __future__ import annotations

import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import spinatlas
from spinatlas.chains import ChainStep, SpinChain, validate_structure
from spinatlas.faces import Face, FaceKind, cells_containing, enumerate_faces
from spinatlas.graph import ConnectionGraph, Vertex
from spinatlas.groups import C2, C3, TRIVIAL, GroupVerdict, alternating, symmetric


SRC = str(Path(spinatlas.__file__).resolve().parent.parent)


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's package first on its path."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120
    )


def V(cls: int, tilded: bool = False) -> Vertex:
    return Vertex(cls, tilded)


def F(*verts: Vertex) -> Face:
    return Face.from_cycle(tuple(verts))


def conjugate_face(face: Face) -> Face:
    """The face through the conjugates of its vertices."""
    return Face.from_cycle(tuple(v.conjugate for v in face.cycle))


def mk_chain(start: Vertex, *steps) -> SpinChain:
    return SpinChain(start, tuple(ChainStep(frozenset(cell), face, target) for cell, face, target in steps))


def reversed_chain(chain: SpinChain) -> SpinChain:
    """The loop walked backwards: each step keeps its cell and face and goes back to the vertex it left."""
    loop = chain.loop()
    flipped = [ChainStep(step.cell, step.face, loop[idx]) for idx, step in enumerate(chain.steps)]
    return SpinChain(chain.start, tuple(flipped[::-1]))


def is_basic(cg: ConnectionGraph, chain: SpinChain) -> bool:
    """True when the whole chain lives in the chord-free skeleton."""
    validate_structure(cg, chain)
    return all(step.face.kind is FaceKind.STANDARD for step in chain.steps)


def neighbors(cg: ConnectionGraph, v: Vertex) -> tuple[Vertex, ...]:
    return tuple(w for w in cg.vertices() if cg.adjacent(v, w))


def neighbor_of_class(cg: ConnectionGraph, v: Vertex, cls: int) -> Vertex:
    """The unique neighbor of v carrying the given class."""
    if cls == v.cls:
        if cls not in cg.connected:
            raise ValueError(f"{v.name} has no own-class neighbor (pair {cls} not connected)")
        return v.conjugate
    return Vertex(cls, bool((1 - v.side) ^ int(cls == 0)))


@lru_cache(maxsize=None)
def decorated_cell(cg: ConnectionGraph, cell: frozenset[int]) -> tuple[ConnectionGraph, dict[int, int]]:
    """Order-3 connection graph of a cell plus the class renaming used for it."""
    if len(cell) != min(4, cg.order + 1) or not cell <= set(cg.classes):
        raise ValueError(f"not a cell of an order-{cg.order} graph: {sorted(cell)}")
    classes = tuple(sorted(cell))
    renaming = {c: k for k, c in enumerate(classes)}
    local = ConnectionGraph(len(classes) - 1, frozenset(renaming[c] for c in cg.connected & cell))
    return local, renaming


def cycle_type(a: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle lengths in decreasing order, fixed points included."""
    seen = [False] * len(a)
    out = []
    for k in range(len(a)):
        if seen[k]:
            continue
        length, j = 0, k
        while not seen[j]:
            seen[j] = True
            length += 1
            j = a[j]
        out.append(length)
    return tuple(sorted(out, reverse=True))


def parity(a: tuple[int, ...]) -> int:
    """0 for even, 1 for odd."""
    return sum(length - 1 for length in cycle_type(a)) % 2


def parse_verdict(text: str) -> GroupVerdict:
    """The verdict whose `str` is `text`."""
    named = {"1": TRIVIAL, "C2": C2, "C3": C3}
    if text in named:
        return named[text]
    if text[:1] in ("A", "S") and text[1:].isdigit():
        return (alternating if text[0] == "A" else symmetric)(int(text[1:]))
    if text.startswith("G[") and text.endswith("]"):
        return GroupVerdict("other", 0, int(text[2:-1]))
    raise ValueError(f"cannot parse group verdict {text!r}")


@lru_cache(maxsize=None)
def step_choices(cg: ConnectionGraph, a: Vertex, b: Vertex) -> tuple[tuple[frozenset[int], Face], ...]:
    """Every (cell, face) for a step a -> b: faces through both in enumeration order, then their cells."""
    return tuple(
        (cell, face) for face in enumerate_faces(cg) if a in face and b in face for cell in cells_containing(cg, face)
    )


def enumerate_chains(cg: ConnectionGraph, start: Vertex, max_steps: int):
    """All structurally valid chains at `start`, shortest first, in the order the search walks them."""
    if max_steps < 2:
        raise ValueError(f"max_steps must be >= 2, got {max_steps}")

    def extend(current: Vertex, steps: tuple[ChainStep, ...], remaining: int):
        for w in (start,) if remaining == 1 else cg.vertices():
            if w != current:
                for cell, face in step_choices(cg, current, w):
                    if remaining == 1:
                        yield SpinChain(start, (*steps, ChainStep(cell, face, w)))
                    else:
                        yield from extend(w, (*steps, ChainStep(cell, face, w)), remaining - 1)

    for length in range(2, max_steps + 1):
        yield from extend(start, (), length)


P, Pt = V(0), V(0, True)
P1, P1t = V(1), V(1, True)
P2, P2t = V(2), V(2, True)
P3, P3t = V(3), V(3, True)
P4, P4t = V(4), V(4, True)

CELL2 = frozenset({0, 1, 2})
CELL3 = frozenset({0, 1, 2, 3})


@pytest.fixture
def hexagon_one_chord() -> ConnectionGraph:
    """Order 2, only pair 2 connected."""
    return ConnectionGraph(2, frozenset({2}))


@pytest.fixture
def hexagon_two_chords() -> ConnectionGraph:
    return ConnectionGraph(2, frozenset({1, 2}))


@pytest.fixture
def hexagon_full() -> ConnectionGraph:
    return ConnectionGraph(2, frozenset({0, 1, 2}))


@pytest.fixture
def order3_one_chord() -> ConnectionGraph:
    """Order 3, only pair 3 connected."""
    return ConnectionGraph(3, frozenset({3}))


@pytest.fixture
def order3_two_chords() -> ConnectionGraph:
    return ConnectionGraph(3, frozenset({2, 3}))


@pytest.fixture
def order3_three_chords() -> ConnectionGraph:
    return ConnectionGraph(3, frozenset({1, 2, 3}))


@pytest.fixture
def order3_full() -> ConnectionGraph:
    return ConnectionGraph(3, frozenset({0, 1, 2, 3}))


# faces of the order-3 graph with pair 3 connected (chord faces need that chord)
BASIC3_FACES = {
    "F1": F(P, P1, P3t, P2),
    "F2": F(P, P1, P2t, P3),
    "F3": F(P1, P3t, Pt, P2t),
    "F1'": F(Pt, P1t, P3, P2t),
    "F2'": F(Pt, P1t, P2, P3t),
    "F3'": F(P1t, P3, P, P2),
}
CHORD3_FACES = {
    "F4": F(P, P1, P3t, P3),
    "F5": F(P, P2, P3t, P3),
    "F6": F(P1, P2t, P3, P3t),
    "F4'": F(Pt, P1t, P3, P3t),
    "F5'": F(Pt, P2t, P3, P3t),
    "F6'": F(P1t, P2, P3t, P3),
}
CHORD2_FACES = {
    "F7": F(P, P3, P2t, P2),
    "F8": F(P, P1, P2t, P2),
    "F9": F(P1, P3t, P2, P2t),
    "F10": F(P3, P2t, P2, P3t),
    "F7'": F(Pt, P3t, P2, P2t),
    "F8'": F(Pt, P1t, P2, P2t),
    "F9'": F(P1t, P3, P2t, P2),
}
