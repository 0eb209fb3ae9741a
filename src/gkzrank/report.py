"""The JSON layout of verification reports.

This module is the one place that fixes the layout.  It serializes the
verifier's own immutable NamedTuple records: a FaceInvariants per face (u,
i, the rank u * i and the staircase rays), an EdgeCheck per edge, and a
FaceFactor per face, which holds that face's FaceInvariants with its
discriminant.  Polynomials are written as IntPolynomial.to_records() lists.
"""

from __future__ import annotations

from typing import NamedTuple

from .discriminant import EDetResult
from .ktheory import TheoremReport


class VerificationReport(NamedTuple):
    name: str | None
    result: TheoremReport


def build_report(result: TheoremReport, name: str | None = None) -> VerificationReport:
    return VerificationReport(name=name, result=result)


def edet_to_dict(edet: EDetResult) -> dict:
    """Per-face factors and E_A; `gkzrank edet --json` prints this layout too."""
    return {
        "factors": [
            {
                "face": list(f.face.indices),
                "u": f.invariants.u,
                "i": f.invariants.i,
                "exponent": f.exponent,
                "discriminant": None
                if f.discriminant is None
                else f.discriminant.to_records(),
                "error": f.error,
            }
            for f in edet.factors
        ],
        "e_a": None if edet.e_a is None else edet.e_a.to_records(),
    }


def report_to_dict(rep: VerificationReport) -> dict:
    result = rep.result
    aset = result.aset
    return {
        "name": rep.name,
        "dim": aset.dim,
        "points": [list(p) for p in aset.points],
        "height": list(aset.height),
        "triangulations": result.triangulation_count,
        "face_ranks": [
            {
                "indices": list(r.face.indices),
                "dim": r.face.dim,
                "u": r.u,
                "i": r.i,
                "k0_rank": r.k0_rank,
                "ray_indices": list(r.ray_indices),
            }
            for r in result.face_ranks
        ],
        "edges": [
            {
                "vertex_pair": list(e.vertex_pair),
                "circuit": {
                    "indices": list(e.circuit_indices),
                    "relation": list(e.circuit_relation),
                },
                "circuit_spans": e.circuit_spans,
                "circuit_index": e.circuit_index,
                "separating_sets": [list(j) for j in e.separating_sets],
                "per_j_indices": [
                    {"j": list(j), "index": v} for j, v in e.per_j_indices
                ],
                "zf_rank": e.zf_rank,
                "multiplicities": [
                    {"face": list(f), "n": n} for f, n in e.multiplicities
                ],
                "rhs": e.rhs,
                "status": e.status,
                "detail": e.detail,
            }
            for e in result.edges
        ],
        "edet": edet_to_dict(result.edet),
        "status": result.status,
    }
