"""Connection graphs of exceptional spin structures and the groups their chains generate."""

from .params import GraphClass, InvalidClassError, enumerate_classes, genus_of, heads, k_tuple
from .graph import (
    ConnectionGraph,
    UnsupportedOrderError,
    Vertex,
    build_connection_graph,
    edge_multiplicities_r_le_2,
)
from .faces import Face, FaceKind, cells_containing, enumerate_faces, face_map
from .chains import (
    AdmissibilityVerdict,
    ChainStep,
    ChainStructureError,
    SpinChain,
    evaluate,
    is_admissible,
    validate_structure,
)
from .groups import CapExceededError, GroupVerdict, closure, recognize
from .classify import predict_group, spin_group_at, verify_class

__all__ = [
    "AdmissibilityVerdict",
    "CapExceededError",
    "ChainStep",
    "ChainStructureError",
    "ConnectionGraph",
    "Face",
    "FaceKind",
    "GraphClass",
    "GroupVerdict",
    "InvalidClassError",
    "SpinChain",
    "UnsupportedOrderError",
    "Vertex",
    "build_connection_graph",
    "cells_containing",
    "closure",
    "edge_multiplicities_r_le_2",
    "enumerate_classes",
    "enumerate_faces",
    "evaluate",
    "face_map",
    "genus_of",
    "heads",
    "is_admissible",
    "k_tuple",
    "predict_group",
    "recognize",
    "spin_group_at",
    "validate_structure",
    "verify_class",
]
