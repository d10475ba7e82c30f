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
One full SVD per operand serves its rank, its four subspaces and the range
tests on B.  One SVD of K = N* W, for C's range basis W and the basis N of
R(B - C)⊥, tests their overlap and gives Q = W K^+ N*, and one on the
corange side does the same for P* (``geometry._split_along``): five SVDs
per comparison (three when C has rank 0) and no inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .douglas import _gate
from .errors import DimensionMismatch
from .geometry import Subspace, _split_along
from .numcore import (
    DEFAULT_TOL,
    FundamentalSubspaces,
    Tolerance,
    opnorm_leq,
    _same_shape,
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


def minus_leq(C, B, tol: Tolerance = DEFAULT_TOL) -> MinusVerdict:
    """Decide C ≤⁻ B by rank additivity and by projection factorization."""
    C, B = _same_shape(C, B)
    return _minus_leq(C, B, _spectrum(B, tol), _spectrum(C, tol), _spectrum(B - C, tol), tol)


def _minus_leq(C: np.ndarray, B: np.ndarray, b: FundamentalSubspaces,
               c: FundamentalSubspaces, d: FundamentalSubspaces,
               tol: Tolerance) -> MinusVerdict:
    """``minus_leq`` on the SVDs b, c and d of B, C and B - C.  b must be
    truncated at sigma_max of B, as ``_spectrum`` returns it; c and d may be
    truncated at any scale and are re-truncated at the comparison's."""
    # at scale 0 (B = C = 0) every rank is 0 and both splits are zero matrices
    scale = float(max(b.s[0], c.s[0])) if len(b.s) else 0.0
    c = c.at_scale(scale, tol)
    d = d.at_scale(scale, tol)
    rank_route = c.rank + d.rank == b.at_scale(scale, tol).rank

    Q = _split_along(c.range_basis, d.conull_basis, tol)
    Padj = None if Q is None else _split_along(c.corange_basis, d.null_basis, tol)
    P = None if Padj is None else Padj.conj().T
    # R(C) ⊆ R(B) and R(C*) ⊆ R(B*), on B's own rank cutoff
    projection_route = (
        P is not None
        and opnorm_leq(Q @ B - C, tol.eq_rel * scale)
        and opnorm_leq(B @ P - C, tol.eq_rel * scale)
        and _gate(C, C, b, tol)
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
    C, A = _same_shape(C, A)
    if T.ambient_dim != C.shape[0] or S.ambient_dim != C.shape[1]:
        raise DimensionMismatch("subspace ambient dimensions do not match C")
    return _in_minus_set(C, A, S, T, None, None, tol)


def _in_minus_set(C: np.ndarray, A: np.ndarray, S: Subspace, T: Subspace,
                  a: FundamentalSubspaces | None, c: FundamentalSubspaces | None,
                  tol: Tolerance) -> bool:
    """``in_minus_set`` on the SVDs a of A, as ``_spectrum`` returns it, and
    c of C, at any scale; either is made here, once C's range and corange
    pass, when the caller does not hold it."""
    if not (T.contains(C, tol) and S.contains(C.conj().T, tol)):
        return False
    a = _spectrum(A, tol) if a is None else a
    c = _spectrum(C, tol) if c is None else c
    return _minus_leq(C, A, a, c, _spectrum(A - C, tol), tol).holds
