"""Parallel sums, parallel subtraction, and shorted-operator bridge formulas.

The parallel sum of two summable operators is defined through the shorted
operator of the doubled block matrix [[A, A], [A, A+B]] with respect to the
first copies.  In the first-copy frames its blocks are A, A, A and the corner
A + B, so the shorted block is read by slicing: the Schur complement
A - A (A+B)^+ A, computed by the same core as ``shorted`` on the one
factorization of A + B, which decides summability once per sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import operator

import numpy as np

from .douglas import _gate
from .errors import (
    BadAuxiliary,
    DimensionMismatch,
    EscalationExhausted,
    NotComplementable,
    NotInDA,
    NotSummable,
)
from .geometry import Subspace
from .numcore import (
    DEFAULT_TOL,
    FundamentalSubspaces,
    Tolerance,
    as_operator,
    opnorm,
    _relative,
    _same_shape,
    _spectrum,
)
from .shorting import (
    shorted,
    _blocks,
    _check_fits,
    _complementability,
    _schur_complement,
)

DEFAULT_SCHEDULE = tuple(2 ** k for k in range(17))
# most schedule points factored at once: memory stays at this many
# factorizations of A + n B however long the schedule
_SLICE_POINTS = len(DEFAULT_SCHEDULE)
_SLOPE_POINTS = 8  # the convergence slope is fitted on the last ones used


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

    Strong summability asks R(A) ⊆ R(A+B) and R(A*) ⊆ R((A+B)*), the weak
    form the same of |(A+B)*|^(1/2) and |A+B|^(1/2).  The roots are taken
    from the factors of A + B and share its ranges, so in finite dimensions
    one residual per inclusion gives both verdicts; the randomized suite
    checks it against a re-factored root.  The inclusions for B follow from
    those for A and are reported as defects.  The defects decide nothing:
    X and X* minus their projections onto R(A+B) and R((A+B)*), for X = A
    and B, are formed on the first read, from copies of A and B and the
    range and corange bases of A + B taken at the call.
    """

    weakly: bool
    strongly: bool
    _operands: tuple = field(repr=False, compare=False)

    @cached_property
    def defects(self) -> SummabilityDefects:
        A, B, W, V = self._operands

        def off(X, basis, norm):  # X minus its projection onto R(basis), relative
            return _relative(X - basis @ (basis.conj().T @ X), norm)

        na, nb = opnorm(A), opnorm(B)
        return SummabilityDefects(off(A, W, na), off(A.conj().T, V, na),
                                  off(B, W, nb), off(B.conj().T, V, nb))


@dataclass(frozen=True)
class ParallelSumResult:
    """Parallel sum: ``sum`` is the shorted block of [[A, A], [A, A+B]]
    read by slicing, A - A (A+B)^+ A."""

    sum: np.ndarray


@dataclass(frozen=True)
class ConvergenceRecord:
    """Error trace of the parallel-sum approximation of a shorted operator."""

    schedule: list[int]
    errors: list[float]
    fitted_slope: float


def _summability_report(A, B, total: FundamentalSubspaces,
                        summable: bool) -> SummabilityReport:
    """The report on ``summable``, the caller's ``_gate(A, A, total, tol)``,
    weak and strong alike; its defects are formed on their first read."""
    return SummabilityReport(weakly=summable, strongly=summable,
                             _operands=(A.copy(), B.copy(),
                                        total.range_basis, total.corange_basis))


def summability(A, B, tol: Tolerance = DEFAULT_TOL) -> SummabilityReport:
    """Test weak and strong parallel summability of (A, B)."""
    A, B = _same_shape(A, B)
    total = _spectrum(A + B, tol)
    return _summability_report(A, B, total, _gate(A, A, total, tol))


def parallel_sum(A, B, tol: Tolerance = DEFAULT_TOL) -> ParallelSumResult:
    """Parallel sum A ∥ B of a summable pair, from one SVD of A + B.

    That SVD makes the one summability decision; raises NotSummable
    (carrying the report) when the pair is not weakly summable.  ``sum`` is
    the doubled matrix's shorted block, with no second route recomputed as
    a check.
    """
    A, B = _same_shape(A, B)
    total = _spectrum(A + B, tol)
    if not _gate(A, A, total, tol):
        raise NotSummable(_summability_report(A, B, total, False))
    return ParallelSumResult(sum=_parallel_sum(A, total))


def _parallel_sum(A, total: FundamentalSubspaces) -> np.ndarray:
    """A - A (A+B)^+ A from the factors of A + B, per item on a stack of
    sums, for a caller that has decided summability: the doubled matrix's
    blocks in the first-copy frames are A, A, A and A + B."""
    return _schur_complement(A, A, A, total)[0]


def _da_factors(C: np.ndarray, A: np.ndarray, a: FundamentalSubspaces,
                tol: Tolerance) -> FundamentalSubspaces | None:
    """The factors of D = C - A when C is in D_A, else None, from the factors
    ``a`` of A and one SVD of D, made once D passes the gate against A."""
    D = C - A
    if not _gate(D, D, a, tol):
        return None
    d = _spectrum(D, tol)
    return d if _gate(A, A, d, tol) else None


def in_da(C, A, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Is C a range-preserving perturbation of A (R(C-A) = R(A), same on adjoints)?

    This class is exactly where the equation A ∥ X = C has the distinguished
    solution C ∥ (-A).  It is the test of ``parallel_subtract``.
    """
    C, A = _same_shape(C, A)
    return _da_factors(C, A, _spectrum(A, tol), tol) is not None


def parallel_subtract(C, A, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Parallel subtraction C ÷ A = C ∥ (-A), defined for C with R(C-A) = R(A).

    The result X is the unique solution of A ∥ X = C that additionally keeps
    R(A + X) = R(A) and R((A + X)*) = R(A*).  D_A membership is its one
    summability decision.  The sum reuses in_da's factors of C - A, which
    equals C + (-A) bit for bit: two SVDs in all.
    """
    C, A = _same_shape(C, A)
    d = _da_factors(C, A, _spectrum(A, tol), tol)
    if d is None:
        raise NotInDA("C - A does not have the same range/corange as A")
    return _parallel_sum(C, d)


def _positive_int(value, message: str) -> int:
    """``value`` as an int when ``operator.index`` takes it, it is not a
    bool and it is at least 1; otherwise ValueError with ``message``, whose
    note names the value.  Nothing is truncated or parsed."""
    try:
        k = 0 if isinstance(value, bool) else operator.index(value)
    except TypeError:  # numpy's bool is refused here too
        k = 0
    if k < 1:
        error = ValueError(message)
        error.add_note(f"got {value!r}")
        raise error
    return k


def _auxiliary_factors(L: np.ndarray, S: Subspace, T: Subspace,
                       tol: Tolerance) -> FundamentalSubspaces:
    """One SVD of L, whose range and corange bases are compared with T and S
    by ``Subspace.equals``' rule; raises BadAuxiliary unless R(L) = T and
    R(L*) = S, and DimensionMismatch for a mis-shaped L."""
    if L.shape != (T.ambient_dim, S.ambient_dim):
        raise DimensionMismatch(f"auxiliary operator of shape {L.shape} does not fit (S, T)")
    aux = _spectrum(L, tol)
    if not (T._spanned_by(aux.range_basis, tol) and S._spanned_by(aux.corange_basis, tol)):
        raise BadAuxiliary("auxiliary operator must have range T and corange S")
    return aux


def shorted_via_limit(A, S: Subspace, T: Subspace, B, schedule=DEFAULT_SCHEDULE,
                      tol: Tolerance = DEFAULT_TOL) -> ConvergenceRecord:
    """Approximate the shorted operator by A ∥ (n B) along a schedule of n.

    B must have range T and corange S (checked on one SVD of B); then A
    and n B are summable for every large enough n and A ∥ (n B) converges
    in norm to the shorted operator.  The record reports the error at each
    usable schedule point and the log-log slope fitted on the last 8 of them.

    The sorted schedule is taken in slices of at most 17 points (the length
    of the default schedule), so at most that many factorizations of
    A + n B are held at once.  Each slice is factored in one stacked SVD,
    which decides summability for every point; one stacked parallel sum
    covers its usable points and one singular-value call gives their
    errors.  Leading points where the pair is not summable are skipped;
    after the first usable point, NotSummable is raised, with the point's
    report, at the first later point that is not summable.
    EscalationExhausted when no point is usable; ValueError, before
    anything is factored, for an entry that is not an integer of at least 1
    (a bool, a float or a string included: nothing is truncated or parsed).
    """
    A, B = _same_shape(A, B)
    ns = sorted(_positive_int(k, "schedule entries must be positive integers")
                for k in schedule)
    target = shorted(A, S, T, tol).shorted  # raises NotComplementable if unfit
    _auxiliary_factors(B, S, T, tol)

    used: list[int] = []
    errors: list[float] = []
    for start in range(0, len(ns), _SLICE_POINTS):
        points = ns[start:start + _SLICE_POINTS]
        scaled = np.array(points, dtype=np.complex128)[:, None, None] * B
        total = _spectrum(A + scaled, tol)
        summable = _gate(A, A, total, tol).tolist()
        first = 0 if used else next((i for i, ok in enumerate(summable) if ok), len(points))
        stop = next((i for i in range(first, len(points)) if not summable[i]), len(points))
        if first < stop:
            block = _parallel_sum(A, total[first:stop])
            used += points[first:stop]
            errors += opnorm(block - target).tolist()
        if stop < len(points):
            raise NotSummable(_summability_report(A, scaled[stop], total[stop], False))
    if not used:
        raise EscalationExhausted("no schedule entry made the pair summable")
    return ConvergenceRecord(
        schedule=used, errors=errors, fitted_slope=_loglog_slope(used, errors)
    )


def _loglog_slope(ns, errors) -> float:
    """Least-squares slope of log(error) against log(n), on the last few points."""
    xs = np.log(np.asarray(ns[-_SLOPE_POINTS:], dtype=float))
    ys = np.log(np.maximum(np.asarray(errors[-_SLOPE_POINTS:], dtype=float), 1e-300))
    if len(xs) < 2:
        return float("nan")
    return float(np.polyfit(xs, ys, 1)[0])


def recover_shorted(A, S: Subspace, T: Subspace, L, n: int,
                    tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Recover the shorted operator exactly as (A ∥ n L) ÷ (n L).

    L must have range T and corange S.  The given n is doubled (up to
    2^20 * n) until both the summability of (A, n L) and the subtraction
    domain condition hold; the identity is then exact up to rounding.  L's
    one SVD checks both subspaces, frames the complementability decision
    (its singular vectors are unitary frames of S ⊕ S⊥ and T ⊕ T⊥, so no
    complement of S or T is formed) and, scaled, serves every D_A test;
    the subtraction reuses the D_A test's factors.  The D_A test is the
    subtraction's one summability test.

    Raises, in this order: ValueError unless n is an integer of at least 1
    (a bool or a float included), DimensionMismatch for a mis-shaped A or
    L, BadAuxiliary for an L of another range or corange, and
    NotComplementable (carrying the report) for a triple that is not
    weakly complementable.
    """
    n = _positive_int(n, "n must be a positive integer")
    A = as_operator(A)
    L = as_operator(L)
    _check_fits(A, S, T)
    aux = _auxiliary_factors(L, S, T, tol)
    blocks = _blocks(A, aux.Vh.conj().T, aux.rank, aux.U, aux.rank)
    report = _complementability(A, blocks, tol)
    if not report.weakly:
        raise NotComplementable(report)

    for current in (n << k for k in range(21)):
        scaled = current * L
        total = _spectrum(A + scaled, tol)
        if _gate(A, A, total, tol):
            blend = _parallel_sum(A, total)
            d = _da_factors(blend, scaled, FundamentalSubspaces(
                aux.U, current * aux.s, aux.Vh, aux.rank), tol)
            if d is not None:
                # parallel_subtract(blend, scaled) on the factors in hand
                return _parallel_sum(blend, d)
    raise EscalationExhausted(f"no usable scale found between n={n} and n={n << 20}")
