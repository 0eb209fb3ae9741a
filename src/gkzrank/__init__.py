"""Exact-arithmetic toolkit for secondary polytopes, principal
A-determinants, circuit discriminants and toric K-theory rank bookkeeping."""

from .elimination import Budget, BudgetExceeded
from .polynomial import IntPolynomial
from .polytope import ASet, Face, InvalidConfiguration, faces, validate_aset
from .secondary import (
    Circuit,
    EdgeData,
    SecondaryPolytope,
    Triangulation,
    edge_data,
    is_regular,
    normal_cone_sample,
    placing_triangulation,
    secondary_polytope,
)
from .discriminant import (
    EDetResult,
    circuit_discriminant,
    face_discriminant,
    multiplicity,
    newton_polytope_check,
    principal_a_determinant,
)
from .ktheory import (
    FaceInvariants,
    TheoremReport,
    rank_k0_edge,
    rank_k0_face,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "ASet",
    "Budget",
    "BudgetExceeded",
    "Circuit",
    "EDetResult",
    "EdgeData",
    "Face",
    "FaceInvariants",
    "IntPolynomial",
    "InvalidConfiguration",
    "SecondaryPolytope",
    "TheoremReport",
    "Triangulation",
    "circuit_discriminant",
    "edge_data",
    "face_discriminant",
    "faces",
    "is_regular",
    "multiplicity",
    "newton_polytope_check",
    "normal_cone_sample",
    "placing_triangulation",
    "principal_a_determinant",
    "rank_k0_edge",
    "rank_k0_face",
    "secondary_polytope",
    "validate_aset",
    "verify_theorem",
]
