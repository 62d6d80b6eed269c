"""Shared test rules: the small connection graphs, their named faces and cells, the case tables the
acceptance criteria and the unit tests share, the reference walks, the top-slice sweep, the call spy and
the oracle runner."""
from __future__ import annotations

import math
import os
import re
import resource
import subprocess
import sys
import time
import traceback
from collections import namedtuple
from enum import Enum
from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest

import spinatlas
from spinatlas.chains import ChainStep, SpinChain, StepTable, carry, evaluate, is_admissible, label_positions
from spinatlas.chains import validate_structure
from spinatlas.classify import SpinGroupResult
from spinatlas.faces import Face, _canonical, cells_containing, direct_images, enumerate_faces, vertex_id
from spinatlas.graph import ConnectionGraph, Vertex
from spinatlas.groups import C2, C3, TRIVIAL, GroupVerdict, StabChain, SymmetricCertificate, alternating, identity_perm
from spinatlas.groups import closure, inverse, power_cycles, recognize, symmetric


SRC = str(Path(spinatlas.__file__).resolve().parent.parent)


def python_env() -> dict[str, str]:
    """The environment of a fresh interpreter with this checkout's package first on its path."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's package first on its path."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=python_env(), timeout=120)


def top_slice_graphs(order: int) -> list[ConnectionGraph]:
    """The order-r graphs with chords on classes j..r, j <= r: the graphs of valid classes."""
    return [ConnectionGraph(order, frozenset(range(j, order + 1))) for j in range(order + 1)]


def spy(monkeypatch, owner, name: str) -> list:
    """Replace `owner.name` with a wrapper that records each call, as a `unittest.mock.call`, in the
    list returned, and passes it through."""
    calls, real = [], getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(mock.call(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def read_range(argv: list[str], default: str, lowest: int) -> tuple[int, int]:
    """An oracle's range: its one argument (`default` when none is given), `lo..hi` or one integer,
    with lowest <= lo <= hi; ValueError naming what it accepts."""
    given = " ".join(argv) if argv else default
    found = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", given, re.ASCII)
    if found:
        lo, hi = int(found[1]), int(found[2] or found[1])
        if lowest <= lo <= hi:
            return lo, hi
    accepted = f"one argument, lo..hi or one integer, with {lowest} <= lo <= hi"
    raise ValueError(f"the range must be {accepted}, got {given!r}")


def run_oracle(argv: list[str], default: str, lowest: int, sweep) -> int:
    """An oracle's command line: its range, read by `read_range`, and `sweep(lo, hi)`, which returns
    its counts by name and the differences it found.  Prints each difference, then the counts, the
    number of differences, the time and the peak RSS on one line.  Returns 0 for no difference and
    1 for any; a bad range prints a message on stderr alone and returns 2, and a fault in the sweep
    prints its traceback and returns 3 (out of memory) or 4."""
    try:
        lo, hi = read_range(argv, default, lowest)
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        counts, diffs = sweep(lo, hi)
    except Exception as exc:  # a fault is never a difference: the codes `spin-atlas` gives one
        traceback.print_exc()
        return 3 if isinstance(exc, MemoryError) else 4
    for line in diffs:
        print(line)
    took = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counted = ", ".join(f"{n} {name}" for name, n in counts.items())
    print(f"{counted}, {len(diffs)} differences, {took:.1f} s, {peak:.0f} MB peak")
    return 1 if diffs else 0


def parse_record(line: str) -> dict[str, str]:
    """The fields of a `key=value` record line, as `cli.render_record` writes them."""
    out: dict[str, str] = {}
    for token in line.split():
        key, sep, value = token.partition("=")
        if sep != "=" or not key:
            raise ValueError(f"bad record token {token!r}")
        out[key] = value
    return out


def parse_list(value: str) -> list[str]:
    """A record's comma-joined list, `-` for empty."""
    return [] if value == "-" else value.split(",")


def parse_map(value: str) -> dict[str, str]:
    """A record's `class:value` pairs, `-` for none."""
    if value == "-":
        return {}
    return dict(item.split(":", 1) for item in value.split(","))


def V(cls: int, tilded: bool = False) -> Vertex:
    return Vertex(cls, tilded)


def F(*verts: Vertex) -> Face:
    return Face.from_cycle(tuple(verts))


class FaceKind(Enum):
    STANDARD = "standard"
    ONE_PAIR = "one-pair"
    TWO_PAIR = "two-pair"


def face_classes(face: Face) -> frozenset[int]:
    return frozenset(v.cls for v in face.cycle)


def pair_count(face: Face) -> int:
    """The conjugate pairs on the face."""
    return sum(1 for v in face.cycle if v.tilded and v.conjugate in face.cycle)


def face_kind(face: Face) -> FaceKind:
    return (FaceKind.STANDARD, FaceKind.ONE_PAIR, FaceKind.TWO_PAIR)[pair_count(face)]


def build_face_map(cg: ConnectionGraph, cell: frozenset[int], face: Face, u: Vertex, v: Vertex) -> dict[int, int]:
    """`direct_images` for a `Face`, as a dict from each class at u to its image at v."""
    cycle, a, b = tuple(map(vertex_id, face.cycle)), vertex_id(u), vertex_id(v)
    return {c: t for c, t in enumerate(direct_images(cg.order, cg.connected, cell, cycle, a, b)) if t >= 0}


def reference_images(
    order: int, chords: frozenset[int], cell: frozenset[int], cycle: tuple[int, ...], u: int, v: int
) -> tuple[int, ...]:
    """Reference for `faces.direct_images`: the generic rule, one end at a time, for every face kind.

    Per end it reads the classes after and before it on the cycle, the leftover label (the one
    in-cell label left once those two, the dropped label and an unchorded own class are taken out)
    and the label a maximal-degree end drops (its own class on a face without a conjugate pair, the
    cell's class off the face on a face with one); a face of two pairs fixes every class off the face.
    """
    classes = {w >> 1 for w in cycle}
    pairs = 4 - len(classes)  # conjugate pairs on the face
    kept = classes if pairs == 2 else cell
    images = [-1 if c in kept else c for c in range(order + 1)]
    ends = []
    for w in (u, v):
        k, own = cycle.index(w), w >> 1
        after, before = cycle[k - 3] >> 1, cycle[k - 1] >> 1
        left = dropped = None
        if pairs < 2:
            if own in chords:
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


def reference_face_cycles(near: list[set[int]], a: int, b: int) -> list[tuple[int, ...]]:
    """Reference for `faces.face_cycles`: every 4-cycle through a and b as found, each made canonical, sorted."""
    if b in near[a]:
        cycles = [(a, b, x, y) for x in near[b] - {a} for y in near[x] & near[a] - {b}]
    else:
        common = sorted(near[a] & near[b])
        cycles = [(a, x, b, y) for k, x in enumerate(common) for y in common[k + 1:]]
    return sorted(map(_canonical, cycles))


def all_cycles(g: tuple[int, ...]) -> list[list[int]]:
    """Every cycle of g, fixed points included, each from its least point, in order of that point."""
    out, seen = [], set()
    for k in range(len(g)):
        if k not in seen:
            cyc, j = [k], g[k]
            while j != k:
                cyc.append(j)
                j = g[j]
            seen.update(cyc)
            out.append(cyc)
    return out


class ReferenceCertificate:
    """Reference for `groups.SymmetricCertificate`: every permutation's full cycle decomposition,
    fixed points included, its parity read off all of them, its 2- and 3-cycle powers joined and the
    conjugation pass run while points stay apart; the parts are held as a set of frozensets."""

    def __init__(self, n: int) -> None:
        self.parts = {frozenset([p]) for p in range(n)}
        self.odd = False

    def _join(self, points) -> None:
        joined = {part for part in self.parts if part & set(points)}
        self.parts = (self.parts - joined) | {frozenset().union(*joined)}

    def add(self, g: tuple[int, ...]) -> bool:
        decomposition = all_cycles(g)
        self.odd = self.odd or (len(g) - len(decomposition)) % 2 == 1
        if len(self.parts) > 1:
            for cyc in power_cycles(decomposition):
                self._join(cyc)
            # every part maps into a part: join the images of each part until none is split
            while len(self.parts) > 1:
                images = [{g[p] for p in part} for part in self.parts]
                split = next((image for image in images if sum(1 for part in self.parts if part & image) > 1), None)
                if split is None:
                    break
                self._join(split)
        return len(self.parts) == 1 and self.odd


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
    return all(face_kind(step.face) is FaceKind.STANDARD for step in chain.steps)


def reversal_holds(cg: ConnectionGraph, start: Vertex, chain: SpinChain) -> bool:
    """Reversal inverts a chain's value whenever both traversals compose.  The end-of-loop repair at a
    maximal-degree base is one-directional: a chain consuming it has an inadmissible reversal, which
    evaluates to the identity by convention, and those are the only one-sided cases."""
    back = reversed_chain(chain)
    if is_admissible(cg, chain).admissible == is_admissible(cg, back).admissible:
        return evaluate(cg, back) == inverse(evaluate(cg, chain))
    return cg.epsilon_degree(start) == cg.order + 1


def inadmissible_values(cg: ConnectionGraph, start: Vertex, max_steps: int) -> dict[SpinChain, tuple[int, ...]]:
    """What each inadmissible chain at `start` of up to `max_steps` steps evaluates to."""
    chains = enumerate_chains(cg, start, max_steps)
    return {chain: evaluate(cg, chain) for chain in chains if not is_admissible(cg, chain).admissible}


def brute_closure(gens, n: int) -> frozenset[tuple[int, ...]]:
    """Reference for `groups.closure`: the identity and the generators, each multiplied by every generator
    until nothing new appears, composed by plain index lookups.  In a finite group every element is a
    product of generators, so this is the group."""
    gens = [tuple(g) for g in gens]
    elems = {tuple(range(n)), *gens}
    fresh = set(elems)
    while fresh:
        fresh = {tuple(g[x] for x in a) for a in fresh for g in gens} - elems
        elems |= fresh
    return frozenset(elems)


def skeleton_group(cg: ConnectionGraph, start: Vertex) -> tuple[tuple[int, ...], ...]:
    """The group the two-step loops at `start` in the chord-free skeleton generate."""
    perms = {evaluate(cg, chain) for chain in enumerate_chains(cg, start, 2) if is_basic(cg, chain)}
    return closure(perms, len(cg.label_classes(start)))


def around_face(cg: ConnectionGraph, cell: frozenset[int], face: Face) -> dict[int, int]:
    """Each label at the face's first corner that its face maps carry once around the face, with the
    label they bring it back as."""
    a, b, c, d = face.cycle
    out = {}
    for label, image in build_face_map(cg, cell, face, a, b).items():
        for u, w in ((b, c), (c, d), (d, a)):
            image = build_face_map(cg, cell, face, u, w).get(image)
            if image is None:
                break
        else:
            out[label] = image
    return out


def neighbors(cg: ConnectionGraph, v: Vertex) -> tuple[Vertex, ...]:
    return tuple(w for w in cg.vertices() if cg.adjacent(v, w))


def neighbor_of_class(cg: ConnectionGraph, v: Vertex, cls: int) -> Vertex:
    """The unique neighbor of v carrying the given class."""
    if cls == v.cls:
        if cls not in cg.connected:
            raise ValueError(f"{v.name} has no own-class neighbor (pair {cls} not connected)")
        return v.conjugate
    return Vertex(cls, bool((1 - v.side) ^ int(cls == 0)))


def cycle_type(a: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle lengths in decreasing order, fixed points included."""
    return tuple(sorted(map(len, all_cycles(a)), reverse=True))


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


def reference_close_out(pos: list[int | None], carried, n: int) -> tuple[int, ...]:
    """Reference for `chains.close_out`: the permutation of label positions of a loop whose labels were
    already carried through its last step, one label repaired onto the one missing image when the
    loop returns to a base vertex of maximal degree; AssertionError if they do not close to one."""
    srcs, curs = carried
    perm = [-1] * n
    for src, cur in zip(srcs, curs):
        perm[pos[src]] = pos[cur]
    if len(srcs) == n - 1:
        perm[perm.index(-1)] = n * (n - 1) // 2 - sum(perm) - 1
    if len(set(perm)) != n or None in perm:
        raise AssertionError(f"{carried} does not close to a permutation")
    return tuple(perm)


def admissible_evaluations(table: StepTable, start: Vertex, max_steps: int):
    """Reference walk: yield (path, permutation) for every admissible chain at `start`, shortest first.

    A path is a list of (vertex id, choice index) steps through the graph's
    step table `table`, whose `chain(start, path)` builds the chain; it is one list,
    changed in place, so copy it to keep it past the next item.  Equivalent to
    evaluating the full chain stream, but a prefix whose carried label set has
    already lost an element (or, at order <= 2, mixed degrees) is dropped with
    all its extensions: those chains evaluate to the identity.  Unlike the
    search, it walks every repeated state again, and closes a loop in two
    passes: `carry` through the last step, then `reference_close_out`.
    """
    cg = table.cg
    pos = label_positions(cg, start)
    n = len(cg.label_classes(start))
    verts = table.vertices
    base = verts.index(start)
    walk = range(len(verts))
    if cg.order <= 2:
        walk = [k for k in walk if cg.epsilon_degree(verts[k]) == cg.epsilon_degree(start)]
    path: list[tuple[int, int]] = []

    def extend(a: int, carried, remaining: int):
        for b in (base,) if remaining == 1 else walk:
            if b == a:
                continue
            for k, (_, mapping) in enumerate(table.steps(a, b)):
                moved = carry(mapping, carried)
                if moved is None:
                    continue
                path.append((b, k))
                if remaining == 1:
                    yield path, reference_close_out(pos, moved, n)
                else:
                    yield from extend(b, moved, remaining - 1)
                path.pop()

    for length in range(2, max_steps + 1):
        yield from extend(base, None, length)


def reference_search(
    cg: ConnectionGraph, v: Vertex, max_steps: int = 6, table: StepTable | None = None
) -> SpinGroupResult:
    """`spin_group_at` over the reference walk: every chain walked, none skipped, with the same stopping rule.

    It stops once the certificate proves S_n, never at the prediction, and
    walks `table`, or a new step table of the graph that builds every map from its face.
    """
    n = len(cg.label_classes(v))
    certificate, group = SymmetricCertificate(n), StabChain(n)
    seen, distinct, tried = {identity_perm(n)}, [], 0
    for path, perm in admissible_evaluations(table or StepTable(cg), v, max_steps):
        tried += 1
        if perm in seen:
            continue
        seen.add(perm)
        distinct.append((tuple(path), perm))
        if certificate.add(perm):
            break
    for _, perm in distinct:
        group.add(perm)
    return SpinGroupResult(cg, v, recognize(group.order(), n), tuple(distinct), tried)


StabChainSearch = namedtuple("StabChainSearch", "verdict generators paths chains_tried")


def stab_chain_search(
    cg: ConnectionGraph, v: Vertex, max_steps: int = 6, table: StepTable | None = None
) -> StabChainSearch:
    """Reference: the chain search at v with every new permutation sifted into one stabilizer chain.

    A permutation is kept, with its path, when it is not yet in the group; the
    search stops once the group is S_n, never at the prediction.  It walks `table`,
    or a new step table of the graph that builds every map from its face.
    """
    n = len(cg.label_classes(v))
    group, seen = StabChain(n), {identity_perm(n)}
    gens, paths, tried = [], [], 0
    for path, perm in admissible_evaluations(table or StepTable(cg), v, max_steps):
        tried += 1
        if perm in seen:
            continue
        seen.add(perm)
        if not group.add(perm):
            continue
        gens.append(perm)
        paths.append(tuple(path))
        if group.order() == math.factorial(n):
            break
    return StabChainSearch(recognize(group.order(), n), tuple(gens), tuple(paths), tried)


def kept_perms(res: SpinGroupResult) -> tuple[tuple[int, ...], ...]:
    """A search result's kept generators, without their paths, from one read of `kept()`."""
    return tuple(perm for _, perm in res.kept())


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
# the five cells of an order-4 graph: Gk lacks class k, G5 lacks class 0
G1 = frozenset({0, 2, 3, 4})
G2 = frozenset({0, 1, 3, 4})
G3 = frozenset({0, 1, 2, 4})
G4 = frozenset({0, 1, 2, 3})
G5 = frozenset({1, 2, 3, 4})

# reversal cases of acceptance criterion 7: graph, start, most steps, chains read
REVERSE_CASES = [
    (ConnectionGraph(2, frozenset({2})), P2, 4, 400),
    (ConnectionGraph(2, frozenset({1, 2})), P1t, 3, 400),
    (ConnectionGraph(3, frozenset({3})), P3, 3, 500),
    (ConnectionGraph(3, frozenset({2, 3})), P, 3, 500),
    (ConnectionGraph(4, frozenset({4})), P4, 2, 500),
]

# the top slices of orders 2 and 3, and the two narrowest of order 4
SAMPLE_GRAPHS = [*top_slice_graphs(2), *top_slice_graphs(3), *top_slice_graphs(4)[3:]]


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
