"""Range-inclusion tests and reduced solutions of A X = B.

In finite dimensions R(B) ⊆ R(A) is equivalent to solvability of A X = B,
and among all solutions there is exactly one whose columns lie in the
orthogonal complement of N(A): the reduced solution, computed here by
applying the pseudoinverse.  Its operator norm squared equals the least
lambda with B B* ≤ lambda A A*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RangeNotIncluded
from .numcore import (
    DEFAULT_TOL,
    Tolerance,
    as_operator,
    opnorm,
    opnorm_leq,
    _rank_cutoff,
    _svd,
)


@dataclass(frozen=True)
class ReducedSolution:
    """The minimal solution D of A X = B, with residual diagnostics.

    residual is ||A D - B|| / max(||B||, 1); corange_defect measures how far
    the columns of D stray from N(A)-perp.  norm_sq is ||D||^2, which equals
    the least lambda with B B* ≤ lambda A A*.
    """

    D: np.ndarray
    residual: float
    norm_sq: float
    corange_defect: float


def _range_factors(A: np.ndarray, tol: Tolerance):
    """Rank-truncated SVD factors of A, shared by the tests below."""
    U, s, Vh = _svd(A)
    r = int(np.sum(s > _rank_cutoff(A.shape, s, tol)))
    return U[:, :r], s[:r], Vh[:r]


def _checked_pair(B, A):
    B = as_operator(B)
    A = as_operator(A)
    if B.shape[0] != A.shape[0]:
        raise DimensionMismatch(
            f"row counts differ: B has {B.shape[0]}, A has {A.shape[0]}"
        )
    return B, A


def range_residual(B, A, tol: Tolerance = DEFAULT_TOL) -> float:
    """Relative size of the part of B sticking out of R(A)."""
    B, A = _checked_pair(B, A)
    Ur, _, _ = _range_factors(A, tol)
    leftover = B - Ur @ (Ur.conj().T @ B)
    return opnorm(leftover) / max(opnorm(B), 1.0)


def _in_span(B: np.ndarray, Ur: np.ndarray, tol: Tolerance) -> bool:
    """Do the columns of B lie in the span of the orthonormal columns Ur
    (the residual test of range_leq, on factors the caller already has)?"""
    return opnorm_leq(B - Ur @ (Ur.conj().T @ B), tol.eq_rel, B)


def range_leq(B, A, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff R(B) ⊆ R(A), tested through the orthogonal projection onto R(A)."""
    B, A = _checked_pair(B, A)
    return _in_span(B, _range_factors(A, tol)[0], tol)


def _require_inclusion(leftover: np.ndarray, B: np.ndarray, tol: Tolerance) -> None:
    """Raise RangeNotIncluded unless ||leftover|| <= eq_rel * max(||B||, 1)."""
    if not opnorm_leq(leftover, tol.eq_rel, B):
        resid = opnorm(leftover) / max(opnorm(B), 1.0)
        raise RangeNotIncluded(resid, borderline=resid <= 10.0 * tol.eq_rel)


def _reduced_D(A, B, tol: Tolerance) -> np.ndarray:
    """The reduced solution matrix alone (same gate as reduced_solution,
    none of the diagnostic norms); for internal cross-check routes."""
    Ur, sr, Vhr = _range_factors(A, tol)
    coeffs = Ur.conj().T @ B
    _require_inclusion(B - Ur @ coeffs, B, tol)
    return Vhr.conj().T @ (coeffs / sr[:, None])


def reduced_solution(A, B, tol: Tolerance = DEFAULT_TOL) -> ReducedSolution:
    """Solve A X = B for the unique X with columns in N(A)-perp.

    Raises RangeNotIncluded when R(B) ⊄ R(A); the error records the residual
    and flags it as borderline when it lies within a decade of eq_rel.
    """
    B, A = _checked_pair(B, A)
    Ur, sr, Vhr = _range_factors(A, tol)
    coeffs = Ur.conj().T @ B
    _require_inclusion(B - Ur @ coeffs, B, tol)
    nb = max(opnorm(B), 1.0)
    D = Vhr.conj().T @ (coeffs / sr[:, None])
    corange_defect = opnorm(D - Vhr.conj().T @ (Vhr @ D))
    return ReducedSolution(
        D=D,
        residual=opnorm(A @ D - B) / nb,
        norm_sq=opnorm(D) ** 2,
        corange_defect=corange_defect,
    )
