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
from collections.abc import Iterator

from .faces import Face, cells_containing, cells_of, direct_images, face_cycles, is_face, neighbour_ids, vertex_id
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

    `mapping` is a face map as `faces.direct_images` gives it.  None as
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
    own = cg.order if v.cls in cg.connected else None  # `label_classes`: the other classes, then own if chorded
    return [own if c == v.cls else c - (c > v.cls) for c in cg.classes]


def close_out(pos: list[int | None], mapping: tuple[int, ...], carried: Carried, n: int) -> tuple[int, ...] | None:
    """Permutation of label positions from a loop closed by a last step with face map `mapping`, in one
    pass over the carried labels; None if that step loses one.

    `pos` is the base vertex's `label_positions` and `n` its number of labels.  At most one label may
    be missing, on return to a base vertex of maximal degree; it is repaired onto the one missing image.
    """
    srcs, curs = carried
    perm = [-1] * n
    for src, cur in zip(srcs, curs):
        end = mapping[cur]
        if end < 0:
            return None
        perm[pos[src]] = pos[end]
    if len(srcs) == n - 1:
        # the images 0..n-1 sum to n(n-1)/2, and the -1 still in perm stands for the missing one
        perm[perm.index(-1)] = n * (n - 1) // 2 - sum(perm) - 1
    # two labels or more missing leave two -1; else each entry is a position below n or None, the repaired one
    # the missing position unless two others coincide: so n distinct entries, none None, are each position once
    if len(set(perm)) != n or None in perm:
        raise AssertionError(f"{carried} does not close to a permutation through {mapping}")
    return tuple(perm)


def visitable(cg: ConnectionGraph, v: Vertex) -> list[int]:
    """The ids of the vertices a chain at v may visit: at order <= 2, where a loop is admissible exactly
    when all its vertices share one degree, those whose class has v's chord status; else every id."""
    ids = range(2 * cg.order + 2)
    if cg.order > 2:
        return list(ids)
    chorded = v.cls in cg.connected
    return [b for b in ids if (b >> 1 in cg.connected) == chorded]


def _admit(cg: ConnectionGraph, chain: SpinChain) -> tuple[AdmissibilityVerdict, tuple[int, ...] | None]:
    """The verdict, and for an admissible chain its permutation, from one composition.

    A chain fails at its first step to a vertex it may not visit (`visitable`); else the first face's
    domain is carried through every step but the last, which `close_out` closes, and it fails at the
    1-based step where a label is first lost.
    """
    validate_structure(cg, chain)
    ids, allowed = list(map(vertex_id, chain.loop())), visitable(cg, chain.start)
    for k, b in enumerate(ids):
        if b not in allowed:
            return AdmissibilityVerdict(False, k, "DomainMismatch"), None
    pos, n, carried = label_positions(cg, chain.start), cg.epsilon_degree(chain.start), None
    for k, step in enumerate(chain.steps, start=1):
        cycle = tuple(map(vertex_id, step.face.cycle))
        mapping = direct_images(cg.order, cg.connected, step.cell, cycle, ids[k - 1], ids[k])
        # every step but the last carries the labels on; the last closes them to the chain's permutation
        carried = carry(mapping, carried) if k < len(chain.steps) else close_out(pos, mapping, carried, n)
        if carried is None:
            if cg.order <= 2:
                raise AssertionError("at order <= 2 the degree rule admits only loops that compose")
            return AdmissibilityVerdict(False, k, "DomainMismatch"), None
    return AdmissibilityVerdict(True, None, "Composable"), carried


def is_admissible(cg: ConnectionGraph, chain: SpinChain) -> AdmissibilityVerdict:
    return _admit(cg, chain)[0]


def evaluate(cg: ConnectionGraph, chain: SpinChain) -> tuple[int, ...]:
    """Permutation of the base vertex's label positions; identity if inadmissible."""
    verdict, perm = _admit(cg, chain)
    return perm if verdict.admissible else tuple(range(cg.epsilon_degree(chain.start)))


# a step's (cell, face) choice, the face as its canonical cycle of vertex ids
Choice = tuple[frozenset[int], tuple[int, ...]]


class StepTable:
    """The chain steps of one connection graph, by vertex id (index into `vertices`).

    The (cell, face) choices of a step from vertex a to vertex b are its faces as canonical id cycles
    in `enumerate_faces` order, each followed by its cells in order, `faces.cells_of` of the face's own
    class set (a four-class face's one cell is that set); choice k is the step's k-th.  The
    faces through a and b are their `face_cycles`, and both steps between a and b share one choice
    list, extended a face at a time as far as any reader of either step reaches.  `steps(a, b)` yields
    each choice with its face map from one list per step: the first reader to reach a choice appends
    it with its map, built from its face by `faces.direct_images`.
    A search path is a sequence of (vertex id, choice index) steps; `chain` builds its chain, no map.
    """

    def __init__(self, cg: ConnectionGraph) -> None:
        self.cg = cg
        self.vertices = cg.vertices()
        self._near = neighbour_ids(cg)
        # per vertex pair (a < b) read so far: the choices of both steps between a and b listed so far,
        # and the faces through a and b whose choices are not listed yet
        self._choices: dict[tuple[int, int], tuple[list[Choice], Iterator[tuple[int, ...]]]] = {}
        # per step read so far, its (choice, face map) pairs listed so far
        self._listed: dict[tuple[int, int], list[tuple[Choice, tuple[int, ...]]]] = {}

    def _pair(self, a: int, b: int) -> tuple[list[Choice], Iterator[tuple[int, ...]]]:
        """The choices listed so far of both steps between a and b, and the faces through them not listed yet."""
        pair = (a, b) if a < b else (b, a)
        found = self._choices.get(pair)
        if found is None:
            found = self._choices[pair] = [], iter(face_cycles(self._near, *pair))
        return found

    def _list(self, choices: list[Choice], faces: Iterator[tuple[int, ...]], k: int) -> bool:
        """List faces' choices until choice k is listed; False if the faces run out first."""
        while k >= len(choices):
            cycle = next(faces, None)
            if cycle is None:
                return False
            w, x, y, z = cycle
            classes = frozenset((w >> 1, x >> 1, y >> 1, z >> 1))
            if len(classes) == 4:  # a four-class face's one cell is its class set (`cells_of`)
                choices.append((classes, cycle))
            else:
                choices += [(cell, cycle) for cell in cells_of(self.cg.order, classes)]
        return True

    def steps(self, a: int, b: int) -> Iterator[tuple[Choice, tuple[int, ...]]]:
        """The step's (choice, face map) pairs in choice order."""
        listed = self._listed.setdefault((a, b), [])
        choices, faces = self._pair(a, b)
        order, chords = self.cg
        k = 0
        # `listed` is a prefix of the pair's `choices`, and a face is listed only past its end
        while k < len(choices) or self._list(choices, faces, k):
            if k == len(listed):
                # a map that fails to build appends nothing, so the next read raises at the same choice
                listed.append((choices[k], direct_images(order, chords, *choices[k], a, b)))
            yield listed[k]
            k += 1

    def chain(self, start: Vertex, path: tuple[tuple[int, int], ...]) -> SpinChain:
        """The chain at `start` whose steps take, in turn, choice k of the step to vertex b."""
        steps, a = [], vertex_id(start)
        for b, k in path:
            choices, faces = self._pair(a, b)
            self._list(choices, faces, k)
            cell, cycle = choices[k]
            steps.append(ChainStep(cell, Face(tuple(map(self.vertices.__getitem__, cycle))), self.vertices[b]))
            a = b
        return SpinChain(start, tuple(steps))
