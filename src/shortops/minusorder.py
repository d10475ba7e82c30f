"""The minus partial order and the maximality characterization of shorting.

C ≤⁻ B holds when R(C) meets R(B - C) trivially and the same happens on the
adjoint side.  Two independent tests are run on every call: rank additivity
(rank C + rank(B - C) = rank B) and the existence of projections Q, P with
C = Q B = B P, built exactly as in the equivalence proof.  Their agreement
is part of the verification suite.

All rank and range decisions inside a comparison share one singular-value
cutoff anchored at max(||B||, ||C||): the difference B - C of two nearby
operators is "zero at the comparison's scale", and thresholding it against
its own largest singular value would promote rounding noise to full rank.
One SVD per operand serves its rank, its range and its corange.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .douglas import _in_span
from .errors import DimensionMismatch, NotComplementary
from .geometry import Subspace, angles, oblique_projection, subspace_join
from .numcore import (
    DEFAULT_TOL,
    Tolerance,
    as_operator,
    opnorm_leq,
    _spectrum,
)


@dataclass(frozen=True)
class MinusVerdict:
    """Verdict of a minus-order comparison, with both routes recorded.

    holds is true only when the rank route and the projection route agree
    true.  When the projection route succeeds, Q and P carry witness
    projections with C = Q B = B P.
    """

    holds: bool
    rank_route: bool
    projection_route: bool
    Q: np.ndarray | None = None
    P: np.ndarray | None = None


def _splitting_projection(RC: Subspace, RD: Subspace, tol: Tolerance):
    """Projection onto RC along RD ⊕ (RC + RD)⊥, or None if the ranges
    overlap (Dixmier cosine too close to 1)."""
    if angles(RC, RD, tol).dixmier_cos >= 1.0 - tol.eq_rel:
        return None
    rest = subspace_join(RC, RD, tol).complement()
    nullsp = Subspace(RC.ambient_dim, np.hstack([RD.basis, rest.basis]))
    try:
        return oblique_projection(RC, nullsp, tol)
    except NotComplementary:
        return None


def minus_leq(C, B, tol: Tolerance = DEFAULT_TOL) -> MinusVerdict:
    """Decide C ≤⁻ B by rank additivity and by projection factorization."""
    C = as_operator(C)
    B = as_operator(B)
    if C.shape != B.shape:
        raise DimensionMismatch(f"shapes differ: {C.shape} vs {B.shape}")
    m, n = B.shape
    b = _spectrum(B, tol)
    c = _spectrum(C, tol)
    scale = float(max(b.s[0], c.s[0])) if len(b.s) else 0.0
    if scale == 0.0:
        zero_q = np.zeros((m, m), dtype=np.complex128)
        zero_p = np.zeros((n, n), dtype=np.complex128)
        return MinusVerdict(True, True, True, Q=zero_q, P=zero_p)
    c = c.at_scale(scale, tol)
    d = _spectrum(B - C, tol, scale)
    rank_route = c.rank + d.rank == b.at_scale(scale, tol).rank

    Q = _splitting_projection(Subspace(m, c.range_basis), Subspace(m, d.range_basis), tol)
    P = None
    projection_route = False
    if Q is not None:
        Padj = _splitting_projection(Subspace(n, c.corange_basis),
                                     Subspace(n, d.corange_basis), tol)
        if Padj is not None:
            P = Padj.conj().T
            # range_leq(C, B) and its adjoint, on B's own rank cutoff
            projection_route = (
                opnorm_leq(Q @ B - C, tol.eq_rel * scale)
                and opnorm_leq(B @ P - C, tol.eq_rel * scale)
                and _in_span(C, b.range_basis, tol)
                and _in_span(C.conj().T, b.corange_basis, tol)
            )
    if not projection_route:
        Q = P = None
    return MinusVerdict(
        holds=rank_route and projection_route,
        rank_route=rank_route,
        projection_route=projection_route,
        Q=Q,
        P=P,
    )


def in_minus_set(C, A, S: Subspace, T: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Membership in the set of minus-minorants of A with range in T and corange in S.

    The shorted operator of a complementable triple is the unique maximum of
    this set under ≤⁻.
    """
    C = as_operator(C)
    A = as_operator(A)
    if C.shape != A.shape:
        raise DimensionMismatch(f"shapes differ: {C.shape} vs {A.shape}")
    if T.ambient_dim != C.shape[0] or S.ambient_dim != C.shape[1]:
        raise DimensionMismatch("subspace ambient dimensions do not match C")
    Cs = C.conj().T
    return (
        opnorm_leq(C - T.projection @ C, tol.eq_rel, C)
        and opnorm_leq(Cs - S.projection @ Cs, tol.eq_rel, C)
        and minus_leq(C, A, tol).holds
    )
