"""Chains: based loops with a (cell, face) choice per step, evaluated to permutations.

A chain is admissible when the carried label set survives every composition.
Tracking starts from the first face's domain at the base vertex; an element
lost at any later step breaks the chain, except that on return to a base
vertex of maximal degree the one missing label is repaired onto the one
missing image.  At order 2 a loop is admissible exactly when all its vertices
share one degree.  Inadmissible chains evaluate to the identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .faces import Face, FaceKind, cells_containing, enumerate_faces, face_map
from .graph import ConnectionGraph, Vertex


class ChainStructureError(ValueError):
    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class ChainStep:
    cell: frozenset[int]
    face: Face
    target: Vertex


@dataclass(frozen=True)
class SpinChain:
    start: Vertex
    steps: tuple[ChainStep, ...]

    def loop(self) -> tuple[Vertex, ...]:
        return (self.start, *(s.target for s in self.steps))

    def reversed(self) -> "SpinChain":
        loop = self.loop()
        flipped = [ChainStep(step.cell, step.face, loop[idx]) for idx, step in enumerate(self.steps)]
        return SpinChain(self.start, tuple(flipped[::-1]))

    def describe(self) -> str:
        parts = [self.start.name]
        for s in self.steps:
            parts.append(f"-[{s.face.name}]-> {s.target.name}")
        return " ".join(parts)


@dataclass(frozen=True)
class AdmissibilityVerdict:
    admissible: bool
    failing_step: int | None
    reason: str  # "Composable" | "DomainMismatch"


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


def carry(mapping: dict[int, int], carried: dict[int, int] | None) -> dict[int, int] | None:
    """Push the carried map (start label -> current label) through one step's face map.

    None as `carried` starts a chain from the face map's whole domain (part of
    the start's label set); None comes back once a carried label is lost.
    """
    if carried is None:
        return dict(mapping)
    if not all(map(mapping.__contains__, carried.values())):
        return None
    return {src: mapping[val] for src, val in carried.items()}


def close_out(labels: tuple[int, ...], carried: dict[int, int]) -> tuple[int, ...]:
    """Permutation of label positions from a closed loop's carried map.

    At most one label may be missing, on return to a base vertex of maximal
    degree; it is repaired onto the one missing image.
    """
    images = set(carried.values())
    missing_src = [c for c in labels if c not in carried]
    missing_tgt = [c for c in labels if c not in images]
    assert len(missing_src) == len(missing_tgt) <= 1
    if missing_src:
        carried = {**carried, missing_src[0]: missing_tgt[0]}
    return tuple(map(labels.index, map(carried.__getitem__, labels)))


def _compose(cg: ConnectionGraph, chain: SpinChain) -> tuple[dict[int, int] | None, int | None]:
    """Carry the first face's domain through every step: (map, None), or (None, 1-based step of first loss)."""
    carried, current = None, chain.start
    for k, step in enumerate(chain.steps, start=1):
        carried = carry(face_map(cg, step.cell, step.face, current, step.target), carried)
        if carried is None:
            return None, k
        current = step.target
    return carried, None


def is_admissible(cg: ConnectionGraph, chain: SpinChain) -> AdmissibilityVerdict:
    validate_structure(cg, chain)
    if cg.order <= 2:
        degrees = [cg.epsilon_degree(v) for v in chain.loop()]
        for k, d in enumerate(degrees):
            if d != degrees[0]:
                return AdmissibilityVerdict(False, k, "DomainMismatch")
        return AdmissibilityVerdict(True, None, "Composable")
    _, lost_at = _compose(cg, chain)
    if lost_at is not None:
        return AdmissibilityVerdict(False, lost_at, "DomainMismatch")
    return AdmissibilityVerdict(True, None, "Composable")


def evaluate(cg: ConnectionGraph, chain: SpinChain) -> tuple[int, ...]:
    """Permutation of the base vertex's label positions; identity if inadmissible."""
    labels = cg.label_classes(chain.start)
    identity = tuple(range(len(labels)))
    if not is_admissible(cg, chain).admissible:
        return identity
    carried, lost_at = _compose(cg, chain)
    assert lost_at is None
    return close_out(labels, carried)


def is_basic(cg: ConnectionGraph, chain: SpinChain) -> bool:
    """True when the whole chain lives in the chord-free skeleton."""
    validate_structure(cg, chain)
    return all(step.face.kind is FaceKind.STANDARD for step in chain.steps)


@lru_cache(maxsize=None)
def _step_choices(cg: ConnectionGraph, a: Vertex, b: Vertex) -> tuple[tuple[frozenset[int], Face], ...]:
    out = []
    for face in enumerate_faces(cg):
        if a in face and b in face:
            for cell in cells_containing(cg, face):
                out.append((cell, face))
    return tuple(out)


def enumerate_chains(cg: ConnectionGraph, start: Vertex, max_steps: int):
    """All structurally valid chains at `start`, shortest first, in a fixed order."""
    if max_steps < 2:
        raise ValueError(f"max_steps must be >= 2, got {max_steps}")
    verts = cg.vertices()

    def extend(current: Vertex, steps: list[ChainStep], remaining: int):
        if remaining == 1:
            if current != start:
                for cell, face in _step_choices(cg, current, start):
                    yield SpinChain(start, (*steps, ChainStep(cell, face, start)))
            return
        for w in verts:
            if w == current:
                continue
            for cell, face in _step_choices(cg, current, w):
                steps.append(ChainStep(cell, face, w))
                yield from extend(w, steps, remaining - 1)
                steps.pop()

    for length in range(2, max_steps + 1):
        yield from extend(start, [], length)
