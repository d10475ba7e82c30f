"""Parallel sums, parallel subtraction, and shorted-operator bridge formulas.

The parallel sum of two summable operators is defined through the shorted
operator of the doubled block matrix [[A, A], [A, A+B]] with respect to the
first-copy subspaces; for closed ranges it collapses to A - A (A+B)^+ A.
Three computation routes are kept alive and compared on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .douglas import range_leq, _in_span, _range_factors, _reduced_D
from .errors import (
    BadAuxiliary,
    DimensionMismatch,
    EscalationExhausted,
    NotInDA,
    NotSummable,
)
from .geometry import Subspace
from .numcore import (
    DEFAULT_TOL,
    Tolerance,
    as_operator,
    max_opnorm,
    opnorm,
    opnorm_leq,
    _rank_cutoff,
    _svd,
)
from .shorting import shorted_matrix, _complementable_blocks

DEFAULT_SCHEDULE = tuple(2 ** k for k in range(17))


@dataclass(frozen=True)
class SummabilityDefects:
    """Relative residuals of the four strong range inclusions against A + B."""

    a_range: float
    a_corange: float
    b_range: float
    b_corange: float


@dataclass(frozen=True)
class SummabilityReport:
    """Weak and strong parallel summability of a pair (A, B).

    Strong summability asks R(A) ⊆ R(A+B) and R(A*) ⊆ R((A+B)*); the weak
    form tests against |(A+B)*|^(1/2) and |A+B|^(1/2).  The corresponding
    inclusions for B follow from those for A and are reported as defects.
    """

    weakly: bool
    strongly: bool
    defects: SummabilityDefects


@dataclass(frozen=True)
class ParallelSumResult:
    """Parallel sum with all three computation routes retained.

    route_pinv is A - A (A+B)^+ A; route_reduced is F_A* E_B from the reduced
    solutions through the polar factor of A + B; route_block extracts the
    shorted block of [[A, A], [A, A+B]].  max_route_disagreement is the
    largest pairwise gap (in operator norm, including the arguments-swapped
    pseudoinverse formula, which checks commutativity).
    """

    sum: np.ndarray
    route_pinv: np.ndarray
    route_reduced: np.ndarray
    route_block: np.ndarray
    max_route_disagreement: float


@dataclass(frozen=True)
class ConvergenceRecord:
    """Error trace of the parallel-sum approximation of a shorted operator."""

    schedule: list[int]
    errors: list[float]
    fitted_slope: float


def _sum_factors(total: np.ndarray, tol: Tolerance):
    """Rank-truncated SVD of A + B, shared across routes and tests."""
    W, s, Vh = _svd(total)
    r = int(np.sum(s > _rank_cutoff(total.shape, s, tol)))
    return W[:, :r], s[:r], Vh[:r]


def _weakly_summable(A, factors, tol: Tolerance) -> bool:
    """The weak notion, literally: R(A) and R(A*) against the ranges of the
    square roots of |(A+B)*| and |A+B|."""
    W, s, Vh = factors
    roots = np.sqrt(s)
    root_left = (W * roots) @ W.conj().T
    root_right = (Vh.conj().T * roots) @ Vh
    return range_leq(A, root_left, tol) and range_leq(A.conj().T, root_right, tol)


def _strongly_summable(A, factors, tol: Tolerance) -> bool:
    """R(A) ⊆ R(A+B) and R(A*) ⊆ R((A+B)*), the verdict of the a_range and
    a_corange defects without their exact norms."""
    W, _, Vh = factors
    As = A.conj().T
    return (opnorm_leq(A - W @ (W.conj().T @ A), tol.eq_rel, A)
            and opnorm_leq(As - Vh.conj().T @ (Vh @ As), tol.eq_rel, As))


def _summability_report(A, B, factors, tol: Tolerance, weakly=None) -> SummabilityReport:
    """The full report, with exact defects; ``weakly`` when already known."""
    W, _, Vh = factors
    V = Vh.conj().T
    As, Bs = A.conj().T, B.conj().T
    na = max(opnorm(A), 1.0)
    nb = max(opnorm(B), 1.0)
    defects = SummabilityDefects(
        a_range=opnorm(A - W @ (W.conj().T @ A)) / na,
        a_corange=opnorm(As - V @ (Vh @ As)) / na,
        b_range=opnorm(B - W @ (W.conj().T @ B)) / nb,
        b_corange=opnorm(Bs - V @ (Vh @ Bs)) / nb,
    )
    strongly = defects.a_range <= tol.eq_rel and defects.a_corange <= tol.eq_rel
    if weakly is None:
        weakly = _weakly_summable(A, factors, tol)
    return SummabilityReport(weakly=weakly, strongly=strongly, defects=defects)


def _checked_pair(A, B):
    A = as_operator(A)
    B = as_operator(B)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes differ: {A.shape} vs {B.shape}")
    return A, B


def summability(A, B, tol: Tolerance = DEFAULT_TOL) -> SummabilityReport:
    """Test weak and strong parallel summability of (A, B)."""
    A, B = _checked_pair(A, B)
    return _summability_report(A, B, _sum_factors(A + B, tol), tol)


@lru_cache(maxsize=64)
def _first_copy_subspace(double_dim: int) -> Subspace:
    """H ⊕ {0} inside H ⊕ H, reused (with its cached complement) across calls."""
    half = double_dim // 2
    return Subspace(double_dim, np.eye(double_dim, dtype=np.complex128)[:, :half])


def _block_device(A: np.ndarray, B: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Shorted operator of [[A, A], [A, A+B]] w.r.t. the first copies."""
    m, n = A.shape
    doubled = np.block([[A, A], [A, A + B]])
    S = _first_copy_subspace(2 * n)
    T = _first_copy_subspace(2 * m)
    return shorted_matrix(doubled, S, T, tol)[:m, :n]


def parallel_sum(A, B, tol: Tolerance = DEFAULT_TOL) -> ParallelSumResult:
    """Parallel sum A ∥ B of a summable pair, by three concurrent routes.

    The block-device route is the defining one and is returned as ``sum``;
    the pseudoinverse and reduced-solution routes are cross-checks whose
    largest deviation is recorded.  Raises NotSummable (carrying the report)
    when the pair is not weakly summable.
    """
    A, B = _checked_pair(A, B)
    total = A + B
    return _parallel_sum(A, B, total, _sum_factors(total, tol), tol)


def _parallel_sum(A, B, total, factors, tol: Tolerance) -> ParallelSumResult:
    """parallel_sum on checked operands and the factors of their sum."""
    if not _weakly_summable(A, factors, tol):
        raise NotSummable(_summability_report(A, B, factors, tol, weakly=False))
    W, s, Vh = factors
    total_pinv = (Vh.conj().T / s) @ W.conj().T if len(s) else \
        np.zeros((total.shape[1], total.shape[0]), dtype=np.complex128)
    route_pinv = A - A @ total_pinv @ A
    route_pinv_swapped = B - B @ total_pinv @ B

    # reduced solutions through the polar factor: |(A+B)*|^(1/2) U = W s^(1/2) Vh
    roots = np.sqrt(s)
    left_root = (W * roots) @ Vh
    right_root = (Vh.conj().T * roots) @ Vh
    E_B = _reduced_D(left_root, B, tol)
    F_A = _reduced_D(right_root, A.conj().T, tol)
    route_reduced = F_A.conj().T @ E_B

    route_block = _block_device(A, B, tol)

    routes = (route_pinv, route_reduced, route_block, route_pinv_swapped)
    return ParallelSumResult(
        sum=route_block,
        route_pinv=route_pinv,
        route_reduced=route_reduced,
        route_block=route_block,
        max_route_disagreement=max_opnorm(
            [x - y for i, x in enumerate(routes) for y in routes[i + 1:]]
        ),
    )


def in_da(C, A, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Is C a range-preserving perturbation of A (R(C-A) = R(A), same on adjoints)?

    This class is exactly where the equation A ∥ X = C has the distinguished
    solution C ∥ (-A).
    """
    C, A = _checked_pair(C, A)
    D = C - A
    # one SVD per operand gives both its range and its corange
    Ua, _, Vha = _range_factors(A, tol)
    if not _in_span(D, Ua, tol):
        return False
    Ud, _, Vhd = _range_factors(D, tol)
    return (
        _in_span(A, Ud, tol)
        and _in_span(D.conj().T, Vha.conj().T, tol)
        and _in_span(A.conj().T, Vhd.conj().T, tol)
    )


def parallel_subtract(C, A, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Parallel subtraction C ÷ A = C ∥ (-A), defined for C with R(C-A) = R(A).

    The result X is the unique solution of A ∥ X = C that additionally keeps
    R(A + X) = R(A) and R((A + X)*) = R(A*).
    """
    C = as_operator(C)
    A = as_operator(A)
    if not in_da(C, A, tol):
        raise NotInDA("C - A does not have the same range/corange as A")
    return parallel_sum(C, -A, tol).sum


def _matches_subspace(M: np.ndarray, sub: Subspace, tol: Tolerance) -> bool:
    """R(M) equals the subspace (projection comparison)."""
    return Subspace.range_of(M, tol).equals(sub, tol)


def shorted_via_limit(A, S: Subspace, T: Subspace, B, schedule=DEFAULT_SCHEDULE,
                      tol: Tolerance = DEFAULT_TOL) -> ConvergenceRecord:
    """Approximate the shorted operator by A ∥ (n B) along a schedule of n.

    B must have range T and corange S; then A and n B are summable for every
    large enough n and A ∥ (n B) converges in norm to the shorted operator.
    The record reports the error at each usable schedule point and the
    log-log slope fitted on the last 8 of them.
    """
    A, B = _checked_pair(A, B)
    target = shorted_matrix(A, S, T, tol)  # raises NotComplementable if unfit
    if not (_matches_subspace(B, T, tol) and _matches_subspace(B.conj().T, S, tol)):
        raise BadAuxiliary("auxiliary operator must satisfy R(B) = T and R(B*) = S")

    used: list[int] = []
    errors: list[float] = []
    started = False
    for n in sorted(int(k) for k in schedule):
        if n < 1:
            raise ValueError("schedule entries must be positive integers")
        scaled = n * B
        total = A + scaled
        factors = _sum_factors(total, tol)
        if not started:
            if not _strongly_summable(A, factors, tol):
                continue
            started = True
        used.append(n)
        errors.append(opnorm(_parallel_sum(A, scaled, total, factors, tol).sum - target))
    if not used:
        raise EscalationExhausted("no schedule entry made the pair summable")
    return ConvergenceRecord(
        schedule=used, errors=errors, fitted_slope=_loglog_slope(used, errors)
    )


def _loglog_slope(ns, errors, points: int = 8) -> float:
    """Least-squares slope of log(error) against log(n), on the last few points."""
    xs = np.log(np.asarray(ns[-points:], dtype=float))
    ys = np.log(np.maximum(np.asarray(errors[-points:], dtype=float), 1e-300))
    if len(xs) < 2:
        return float("nan")
    return float(np.polyfit(xs, ys, 1)[0])


def recover_shorted(A, S: Subspace, T: Subspace, L, n: int,
                    tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Recover the shorted operator exactly as (A ∥ n L) ÷ (n L).

    L must have range T and corange S.  The given n is doubled (up to
    2^20 * n) until both the summability of (A, n L) and the subtraction
    domain condition hold; the identity is then exact up to rounding.
    """
    A = as_operator(A)
    L = as_operator(L)
    if n < 1:
        raise ValueError("n must be a positive integer")
    _complementable_blocks(A, S, T, tol)
    if not (_matches_subspace(L, T, tol) and _matches_subspace(L.conj().T, S, tol)):
        raise BadAuxiliary("auxiliary operator must satisfy R(L) = T and R(L*) = S")

    bound = n << 20
    current = n
    while current <= bound:
        scaled = current * L
        total = A + scaled
        factors = _sum_factors(total, tol)
        if _strongly_summable(A, factors, tol):
            blend = _parallel_sum(A, scaled, total, factors, tol).sum
            if in_da(blend, scaled, tol):
                # parallel_subtract(blend, scaled) without repeating in_da
                return parallel_sum(blend, -scaled, tol).sum
        current *= 2
    raise EscalationExhausted(
        f"no usable scale found between n={n} and n={bound}"
    )
