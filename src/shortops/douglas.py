"""Range-inclusion tests and reduced solutions of A X = B.

In finite dimensions R(B) ⊆ R(A) is equivalent to solvability of A X = B,
and among all solutions there is exactly one whose columns lie in the
orthogonal complement of N(A): the reduced solution, computed here by
applying the pseudoinverse.  Its operator norm squared equals the least
lambda with B B* ≤ lambda A A*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, RangeNotIncluded
from .numcore import (
    DEFAULT_TOL,
    FundamentalSubspaces,
    Tolerance,
    as_operator,
    opnorm,
    opnorm_leq,
    _relative,
    _spectrum,
)


@dataclass(frozen=True)
class ReducedSolution:
    """The minimal solution D of A X = B, with its residual.

    residual is ||A D - B|| / max(||B||, 1); norm_sq is ||D||^2, which
    equals the least lambda with B B* ≤ lambda A A*.  The two norms decide
    nothing and are each computed on first read, the residual matrix
    included, from copies of A, B and D.
    """

    D: np.ndarray
    # copies of A, B and D
    _operands: tuple = field(repr=False, compare=False)

    @cached_property
    def residual(self) -> float:
        A, B, D = self._operands
        return _relative(A @ D - B, B)

    @cached_property
    def norm_sq(self) -> float:
        return opnorm(self._operands[2]) ** 2


def _checked_pair(B, A):
    B = as_operator(B)
    A = as_operator(A)
    if B.shape[0] != A.shape[0]:
        raise DimensionMismatch(
            f"row counts differ: B has {B.shape[0]}, A has {A.shape[0]}"
        )
    return B, A


def range_residual(B, A, tol: Tolerance = DEFAULT_TOL) -> float:
    """Relative size ||N* B|| / max(||B||, 1) of B off R(A), N a basis of R(A)-perp."""
    B, A = _checked_pair(B, A)
    N = _spectrum(A, tol).conull_basis
    return _relative(N.conj().T @ B, B)


def _in_span(B: np.ndarray, N: np.ndarray, tol: Tolerance) -> bool:
    """Do the columns of B lie in R(N)⊥, for an orthonormal basis N of the
    complement that the caller's full SVD holds (``conull_basis`` or
    ``null_basis``)?  ||N* B|| is B's residual off R(N)⊥, with no
    subtraction.  An empty N (full rank) gives True, on 2-D operands with
    nothing formed.  A stack of N or of B gives per-item verdicts."""
    if N.shape[-1] == 0 and N.ndim == B.ndim == 2:
        return True
    return opnorm_leq(N.conj().swapaxes(-1, -2) @ B, tol.eq_rel, B)


def _gate(left: np.ndarray, right: np.ndarray, factors: FundamentalSubspaces,
          tol: Tolerance) -> bool:
    """The one inclusion gate, R(right) ⊆ R(M) and R(left*) ⊆ R(M*) on the
    factors of M, which make left M^- right one matrix for every generalized
    inverse M^-: complementability, summability, D_A both ways and the minus
    order decide through it.  Stops at a failing inclusion, except on a
    stack's factors, where both are tested and the verdicts are per item.
    A side where ``rank`` is its length (on a stack, for every item) has an
    empty complement: it is True, with no basis read and no operand touched."""
    stacked, rank = factors.stacked, factors.rank
    least, verdict = (rank.min(), np.ones(rank.shape, dtype=bool)) if stacked else (rank, True)
    if least < factors.U.shape[-1]:
        verdict = verdict & _in_span(right, factors.conull_basis, tol)
        if not (stacked or verdict):
            return False
    if least < factors.Vh.shape[-1]:
        verdict = verdict & _in_span(left.conj().swapaxes(-1, -2), factors.null_basis, tol)
    return verdict


def range_leq(B, A, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff R(B) ⊆ R(A), tested on the basis of R(A)-perp."""
    B, A = _checked_pair(B, A)
    return _in_span(B, _spectrum(A, tol).conull_basis, tol)


def _reduced_coeffs(spectrum: FundamentalSubspaces, B: np.ndarray) -> np.ndarray:
    """A^+ B from the factors of A: the reduced solution of A X = B for a
    caller that has already decided R(B) ⊆ R(A); per item on a stack."""
    coeffs = spectrum.range_basis.conj().swapaxes(-1, -2) @ B
    return spectrum.corange_basis @ (coeffs / spectrum.kept[..., :, None])


def reduced_solution(A, B, tol: Tolerance = DEFAULT_TOL) -> ReducedSolution:
    """Solve A X = B for the unique X with columns in N(A)-perp.

    Raises RangeNotIncluded when R(B) ⊄ R(A); the error records the residual
    and flags it as borderline when it lies within a decade of eq_rel.
    """
    B, A = _checked_pair(B, A)
    spectrum = _spectrum(A, tol)
    if not _in_span(B, spectrum.conull_basis, tol):
        resid = _relative(spectrum.conull_basis.conj().T @ B, B)
        raise RangeNotIncluded(resid, borderline=resid <= 10.0 * tol.eq_rel)
    D = _reduced_coeffs(spectrum, B)
    return ReducedSolution(D=D, _operands=(A.copy(), B.copy(), D.copy()))
