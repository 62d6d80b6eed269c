"""Chains: based loops with a (cell, face) choice per step, evaluated to permutations.

A chain is admissible when the carried label set survives every composition.
Tracking starts from the first face's domain at the base vertex; an element
lost at any later step breaks the chain, except that on return to a base
vertex of maximal degree the one missing label is repaired onto the one
missing image.  At order 2 a loop is admissible exactly when all its vertices
share one degree.  Inadmissible chains evaluate to the identity.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import tables
from .faces import Face, _canonical, cell_frame, cells_containing, cells_of, class_mask, direct_images, enumerate_faces
from .faces import lifted_images, neighbour_ids, vertex_id
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
    faces = set(enumerate_faces(cg))
    current = chain.start
    for k, step in enumerate(chain.steps):
        if step.face not in faces:
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


def close_out(pos: list[int | None], carried: Carried) -> tuple[int, ...]:
    """Permutation of label positions from a closed loop's carried labels.

    `pos` is the base vertex's `label_positions`.  At most one label may be
    missing, on return to a base vertex of maximal degree; it is repaired
    onto the one missing image.
    """
    srcs, curs = carried
    n = len(pos) - pos.count(None)
    perm = [-1] * n
    for src, cur in zip(srcs, curs):
        perm[pos[src]] = pos[cur]
    if len(srcs) < n:
        # the images 0..n-1 sum to n(n-1)/2, and the -1 still in perm stands for the missing one
        perm[perm.index(-1)] = n * (n - 1) // 2 - sum(perm) - 1
    if sorted(perm) != list(range(n)):
        raise AssertionError(f"{carried} does not close to a permutation")
    return tuple(perm)


def _compose(cg: ConnectionGraph, chain: SpinChain) -> tuple[Carried | None, int | None]:
    """Carry the first face's domain through every step: (labels, None), or (None, 1-based step of first loss)."""
    carried, current = None, chain.start
    for k, step in enumerate(chain.steps, start=1):
        carried = carry(_face_map_pairs(cg, step.cell, step.face, current, step.target), carried)
        if carried is None:
            return None, k
        current = step.target
    return carried, None


def _admit(cg: ConnectionGraph, chain: SpinChain) -> tuple[AdmissibilityVerdict, Carried | None]:
    """The verdict, and for an admissible chain its carried labels, from one composition."""
    validate_structure(cg, chain)
    if cg.order <= 2:
        degrees = [cg.epsilon_degree(v) for v in chain.loop()]
        for k, d in enumerate(degrees):
            if d != degrees[0]:
                return AdmissibilityVerdict(False, k, "DomainMismatch"), None
    carried, lost_at = _compose(cg, chain)
    if lost_at is not None:
        if cg.order <= 2:
            raise AssertionError("at order <= 2 the degree rule admits only loops that compose")
        return AdmissibilityVerdict(False, lost_at, "DomainMismatch"), None
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

    For a step from vertex a to vertex b, `entry(a, b)` gives the (cell, face)
    choices, faces as canonical id cycles in `enumerate_faces` order and then
    cells in order, and one slot per choice for its face map, which `fill`
    computes when the search first steps through that choice.  Entries are
    built on first use, each from the neighbours of its two vertices, so the
    graph's faces are never listed, and a `Face` is built only in a chain.
    From order 4 on, maps are lifted through the table store active when the
    table was made.  A search path is a sequence of (vertex id, choice index)
    steps, and `chain` turns one into its chain.
    """

    def __init__(self, cg: ConnectionGraph) -> None:
        self.cg = cg
        self.vertices = cg.vertices()
        self._near = neighbour_ids(cg)
        self._store = tables.active_tables()
        self._entries: dict[tuple[int, int], tuple[tuple[Choice, ...], list]] = {}
        # per cell, its `cell_frame` for the table lookup at order >= 4
        self._frames: dict[frozenset[int], tuple] = {}

    def _cycles(self, a: int, b: int) -> list[tuple[int, ...]]:
        """The faces through vertices a and b, as canonical id cycles in `enumerate_faces` order.

        The graph is bipartite (chords join the two sides too), so on a face
        two adjacent vertices are neighbours on the cycle, two of one side are
        opposite corners, and two of different sides that are not adjacent
        share no face.
        """
        near = self._near
        if b in near[a]:
            cycles = [(a, b, x, y) for x in near[b] - {a} for y in near[x] & near[a] - {b}]
        elif self.vertices[a].side == self.vertices[b].side:
            common = sorted(near[a] & near[b])
            cycles = [(a, x, b, y) for k, x in enumerate(common) for y in common[k + 1:]]
        else:
            cycles = []
        return sorted(map(_canonical, cycles))

    def entry(self, a: int, b: int) -> tuple[tuple[Choice, ...], list]:
        hit = self._entries.get((a, b))
        if hit is None:
            choices = tuple(
                (cell, cycle)
                for cycle in self._cycles(a, b)
                for cell in cells_of(self.cg.order, class_mask(cycle))
            )
            hit = self._entries[(a, b)] = (choices, [None] * len(choices))
        return hit

    def fill(self, a: int, b: int, k: int) -> tuple[int, ...]:
        choices, slots = self._entries[(a, b)]
        cell, cycle = choices[k]
        if self.cg.order <= 3:
            slots[k] = direct_images(self.cg.order, self.cg.connected, cell, cycle, a, b)
        else:
            frame = self._frames.get(cell) or self._frames.setdefault(cell, cell_frame(self.cg, cell))
            slots[k] = lifted_images(self._store, self.cg.order, frame, cycle, a, b)
        return slots[k]

    def chain(self, start: Vertex, path: tuple[tuple[int, int], ...]) -> SpinChain:
        """The chain at `start` whose steps take, in turn, choice k of the step to vertex b."""
        steps, a = [], vertex_id(start)
        for b, k in path:
            cell, cycle = self.entry(a, b)[0][k]
            steps.append(ChainStep(cell, Face(tuple(map(self.vertices.__getitem__, cycle))), self.vertices[b]))
            a = b
        return SpinChain(start, tuple(steps))


@lru_cache(maxsize=None)
def step_table(cg: ConnectionGraph) -> StepTable:
    return StepTable(cg)
