"""Chains: based loops with a (cell, face) choice per step, evaluated to permutations.

A chain is admissible when the carried label set survives every composition.
Tracking starts from the first face's domain at the base vertex; an element
lost at any later step breaks the chain, except that on return to a base
vertex of maximal degree the one missing label is repaired onto the one
missing image.  At order 2 a loop is admissible exactly when all its vertices
share one degree.  Inadmissible chains evaluate to the identity.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable, Iterator

from .faces import Face, cells_containing, cells_of, class_mask, direct_images, face_cycles, is_face, neighbour_ids
from .faces import vertex_id
from .faces import _face_map_pairs  # the memoized face maps `evaluate` composes
from .graph import ConnectionGraph, Vertex


class ChainStructureError(ValueError):
    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


# one step of a chain: along `face`, inside the 3-cell `cell`, to the vertex `target`
ChainStep = namedtuple("ChainStep", "cell face target")


class SpinChain(namedtuple("SpinChain", "start steps")):
    """A based loop: the start vertex and a tuple of `ChainStep`s."""

    __slots__ = ()

    def loop(self) -> tuple[Vertex, ...]:
        return (self.start, *(s.target for s in self.steps))

    def describe(self) -> str:
        parts = [self.start.name]
        for s in self.steps:
            parts.append(f"-[{s.face.name}]-> {s.target.name}")
        return " ".join(parts)


# reason is "Composable" or "DomainMismatch"; failing_step is the 1-based step at which the chain fails, or None
AdmissibilityVerdict = namedtuple("AdmissibilityVerdict", "admissible failing_step reason")


def validate_structure(cg: ConnectionGraph, chain: SpinChain) -> None:
    """Raise ChainStructureError unless every step sits on its face inside its cell."""
    if not chain.steps or chain.steps[-1].target != chain.start:
        raise ChainStructureError("LoopNotClosed", f"loop does not return to {chain.start.name}")
    current = chain.start
    for k, step in enumerate(chain.steps):
        if not is_face(cg, step.face):
            raise ChainStructureError("StepNotOnFace", f"step {k}: {step.face.name} is not a face of the graph")
        if current == step.target or current not in step.face or step.target not in step.face:
            raise ChainStructureError(
                "StepNotOnFace",
                f"step {k}: {current.name}->{step.target.name} does not lie on face {step.face.name}",
            )
        if step.cell not in cells_containing(cg, step.face):
            raise ChainStructureError(
                "FaceNotInCell",
                f"step {k}: face {step.face.name} is not contained in cell {sorted(step.cell)}",
            )
        current = step.target


Carried = tuple[tuple[int, ...], tuple[int, ...]]


def carry(mapping: tuple[int, ...], carried: Carried | None) -> Carried | None:
    """Push the carried labels (start labels, current labels) through one step's face map.

    `mapping` is a face map as `faces._face_map_pairs` gives it.  None as
    `carried` starts a chain from the face map's whole domain (part of the
    start's label set); None comes back once a carried label is lost.
    """
    if carried is None:
        srcs = tuple(c for c, t in enumerate(mapping) if t >= 0)
        return srcs, tuple(map(mapping.__getitem__, srcs))
    moved = tuple(map(mapping.__getitem__, carried[1]))
    return None if -1 in moved else (carried[0], moved)


def label_positions(cg: ConnectionGraph, v: Vertex) -> list[int | None]:
    """Per class 0..r, its position in v's label set, or None if it labels nothing at v."""
    labels = cg.label_classes(v)
    return [labels.index(c) if c in labels else None for c in cg.classes]


def close_out(pos: list[int | None], carried: Carried, n: int | None = None) -> tuple[int, ...]:
    """Permutation of label positions from a closed loop's carried labels.

    `pos` is the base vertex's `label_positions` and `n` its number of labels, counted from `pos` if not
    given.  At most one label may be missing, on return to a base vertex of maximal degree; it is
    repaired onto the one missing image.
    """
    srcs, curs = carried
    n = len(pos) - pos.count(None) if n is None else n
    perm = [-1] * n
    for src, cur in zip(srcs, curs):
        perm[pos[src]] = pos[cur]
    if len(srcs) == n - 1:
        # the images 0..n-1 sum to n(n-1)/2, and the -1 still in perm stands for the missing one
        perm[perm.index(-1)] = n * (n - 1) // 2 - sum(perm) - 1
    # two labels or more missing leave two -1; else each entry is a position below n or None, the repaired one
    # the missing position unless two others coincide: so n distinct entries, none None, are each position once
    if len(set(perm)) != n or None in perm:
        raise AssertionError(f"{carried} does not close to a permutation")
    return tuple(perm)


def _admit(cg: ConnectionGraph, chain: SpinChain) -> tuple[AdmissibilityVerdict, Carried | None]:
    """The verdict, and for an admissible chain its carried labels, from one composition.

    The first face's domain is carried through every step; the chain fails
    at the 1-based step where a label is first lost.
    """
    validate_structure(cg, chain)
    if cg.order <= 2:
        degrees = [cg.epsilon_degree(v) for v in chain.loop()]
        for k, d in enumerate(degrees):
            if d != degrees[0]:
                return AdmissibilityVerdict(False, k, "DomainMismatch"), None
    carried, current = None, chain.start
    for k, step in enumerate(chain.steps, start=1):
        carried = carry(_face_map_pairs(cg, step.cell, step.face, current, step.target), carried)
        if carried is None:
            if cg.order <= 2:
                raise AssertionError("at order <= 2 the degree rule admits only loops that compose")
            return AdmissibilityVerdict(False, k, "DomainMismatch"), None
        current = step.target
    return AdmissibilityVerdict(True, None, "Composable"), carried


def is_admissible(cg: ConnectionGraph, chain: SpinChain) -> AdmissibilityVerdict:
    return _admit(cg, chain)[0]


def evaluate(cg: ConnectionGraph, chain: SpinChain) -> tuple[int, ...]:
    """Permutation of the base vertex's label positions; identity if inadmissible."""
    verdict, carried = _admit(cg, chain)
    if not verdict.admissible:
        return tuple(range(len(cg.label_classes(chain.start))))
    return close_out(label_positions(cg, chain.start), carried)


# a step's (cell, face) choice, the face as its canonical cycle of vertex ids
Choice = tuple[frozenset[int], tuple[int, ...]]


class StepTable:
    """The chain steps of one connection graph, by vertex id (index into `vertices`).

    The (cell, face) choices of a step from vertex a to vertex b are its faces as canonical id cycles
    in `enumerate_faces` order, each followed by its cells in order; choice k is the step's k-th.  The
    faces through a and b are their `face_cycles`, found once for the pair when either step is first
    read.  `steps(a, b)` gives each choice with its face map from one list per step: the first reader
    to reach a choice derives it from its face and appends it with its map, and the list is the step
    once the choices run out; each map is built from its face by `faces.direct_images`.
    A search path is a sequence of (vertex id, choice index) steps; `chain` builds its chain, no map.
    """

    def __init__(self, cg: ConnectionGraph) -> None:
        self.cg = cg
        self.vertices = cg.vertices()
        self._near = neighbour_ids(cg)
        # per vertex pair (a < b) read so far, the faces through both
        self._faces: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        # per step read so far, its (choice, face map) pairs listed so far, and the steps listed in full
        self._listed: dict[tuple[int, int], list[tuple[Choice, tuple[int, ...]]]] = {}
        self._whole: set[tuple[int, int]] = set()

    def _choices(self, a: int, b: int) -> Iterator[Choice]:
        pair = (a, b) if a < b else (b, a)
        faces = self._faces.get(pair)
        if faces is None:
            faces = self._faces[pair] = face_cycles(self._near, a, b)
        return ((cell, cycle) for cycle in faces for cell in cells_of(self.cg.order, class_mask(cycle)))

    def steps(self, a: int, b: int) -> Iterable[tuple[Choice, tuple[int, ...]]]:
        """The step's (choice, face map) pairs in choice order: a list once every choice is listed."""
        listed = self._listed.setdefault((a, b), [])
        return listed if (a, b) in self._whole else self._listing(a, b, listed)

    def _listing(self, a: int, b: int, listed: list) -> Iterator[tuple[Choice, tuple[int, ...]]]:
        # a map that fails to build appends nothing, so the next read raises at the same choice
        for k, (cell, cycle) in enumerate(self._choices(a, b)):
            if k == len(listed):
                listed.append(((cell, cycle), direct_images(self.cg.order, self.cg.connected, cell, cycle, a, b)))
            yield listed[k]
        self._whole.add((a, b))

    def chain(self, start: Vertex, path: tuple[tuple[int, int], ...]) -> SpinChain:
        """The chain at `start` whose steps take, in turn, choice k of the step to vertex b."""
        steps, a = [], vertex_id(start)
        for b, k in path:
            cell, cycle = next(itertools.islice(self._choices(a, b), k, None))
            steps.append(ChainStep(cell, Face(tuple(map(self.vertices.__getitem__, cycle))), self.vertices[b]))
            a = b
        return SpinChain(start, tuple(steps))
