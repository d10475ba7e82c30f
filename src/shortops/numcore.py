"""Dense-matrix primitives: rank, pseudoinverse, polar decomposition, PSD roots.

Operators are plain 2-D ``numpy`` arrays promoted to complex128.  Every rank
decision in the toolkit is made here, by one rule applied to one factorization
value (``FundamentalSubspaces``), so that range tests, pseudoinverses, roots
and subspace extractions stay mutually consistent.  The complement of an
orthonormal basis needs no rank decision: the SVD's own U and Vh hold the
complements of its ranges, a subspace made by a complete factorization
keeps that factorization's frame, and only a basis a caller passes in is
completed, by one QR (``complement_basis``).  A full-rank side needs no
range test: the inclusion gate decides it from ``rank`` alone.

The factorization core also takes a stack of K matrices of one shape, as a
(K, m, n) array: ``_spectrum`` factors it in one SVD call and truncates each
item at its own rank, ``opnorm`` returns K norms from one singular-value
call, and ``opnorm_leq`` K verdicts.  The formulas on the factors (and the
range tests, reduced solutions and Schur complements written on them)
broadcast over the stack unchanged, so each exists once; 2-D operands take
the same path as before, with no masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotPSD


@dataclass(frozen=True)
class Tolerance:
    """Relative thresholds for rank decisions, equality tests and PSD slack.

    rank_rel
        Singular values at or below ``rank_rel * max(rows, cols) * scale``
        are treated as zero.  The scale is sigma_max of the factored matrix
        by default (for a pair of subspaces, of their stacked bases); the
        complementability corner A22 uses ||A||_F of the whole operator, and
        a minus-order comparison max(||B||, ||C||).
    eq_rel
        Relative threshold for equality and residual assertions.
    psd_slack
        Eigenvalues of a nominally PSD matrix may undershoot zero by
        ``psd_slack * ||A||`` before being flagged as genuinely negative.
    """

    rank_rel: float = 1e-10
    eq_rel: float = 1e-9
    psd_slack: float = 1e-10

    def __post_init__(self):
        for name in ("rank_rel", "eq_rel", "psd_slack"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name} must lie in (0, 1), got {value}")


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class FundamentalSubspaces:
    """Full SVD ``A = U diag(s) Vh`` and the numerical rank, with orthonormal
    bases of the four fundamental subspaces and the formulas built on them.

    ``rank`` counts the singular values above the one cutoff,
    ``rank_rel * max(rows, cols) * scale``; ``at_scale`` re-truncates the
    same factors at another scale.  ``kept`` lists the ``rank`` nonzero
    singular values of ``s``.  The formulas are written for a stack too
    (``FundamentalSubspacesStack``).
    """

    U: np.ndarray
    s: np.ndarray
    Vh: np.ndarray
    rank: int | np.ndarray

    stacked = False

    @property
    def range_basis(self) -> np.ndarray:
        return self.U[:, :self.rank]

    @property
    def null_basis(self) -> np.ndarray:
        return self.Vh[self.rank:].conj().T

    @property
    def corange_basis(self) -> np.ndarray:
        return self.Vh[:self.rank].conj().T

    @property
    def conull_basis(self) -> np.ndarray:
        return self.U[:, self.rank:]

    @property
    def kept(self) -> np.ndarray:
        return self.s[:self.rank]

    def at_scale(self, scale, tol: Tolerance = DEFAULT_TOL) -> "FundamentalSubspaces":
        """The same factors, truncated with the cutoff anchored at ``scale``."""
        shape = (self.U.shape[-1], self.Vh.shape[-1])
        return type(self)(self.U, self.s, self.Vh, _rank_rule(self.s, shape, scale, tol))

    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudoinverse of the truncated factors."""
        W = self.range_basis
        return (self.corange_basis / self.kept[..., None, :]) @ W.conj().swapaxes(-1, -2)

    @property
    def root_left(self) -> np.ndarray:
        """|A*|^(1/2) = (A A*)^(1/4), of rank exactly ``rank``."""
        W = self.range_basis
        return (W * np.sqrt(self.kept)[..., None, :]) @ W.conj().swapaxes(-1, -2)

    @property
    def root_right(self) -> np.ndarray:
        """|A|^(1/2) = (A* A)^(1/4), of rank exactly ``rank``."""
        V = self.corange_basis
        return (V * np.sqrt(self.kept)[..., None, :]) @ V.conj().swapaxes(-1, -2)


class FundamentalSubspacesStack(FundamentalSubspaces):
    """The factors of a stack of K matrices of one shape: U, s and Vh carry
    a leading axis and ``rank`` is an array of K ranks.

    The bases keep full width, with the columns past each item's rank
    zeroed, and ``kept`` holds each item's full row of singular values with
    1 where those zero columns are scaled, so every formula of
    ``FundamentalSubspaces`` broadcasts over the stack as written; the
    range and corange bases and ``kept`` are cached, since their masks cost
    more than the slices of the 2-D case.  Indexing gives one item's 2-D
    factors, as ``_spectrum`` of that item returns them, or a sub-stack for
    a slice.
    """

    stacked = True

    def _within_rank(self, width: int) -> np.ndarray:
        """(K, 1, width) mask of the columns before each item's rank."""
        return (np.arange(width) < self.rank[:, None])[:, None, :]

    def __getitem__(self, index) -> FundamentalSubspaces:
        if isinstance(index, slice):
            return type(self)(self.U[index], self.s[index], self.Vh[index], self.rank[index])
        return FundamentalSubspaces(self.U[index], self.s[index], self.Vh[index],
                                    int(self.rank[index]))

    @cached_property
    def range_basis(self) -> np.ndarray:
        p = self.s.shape[-1]
        return self.U[..., :p] * self._within_rank(p)

    @property
    def null_basis(self) -> np.ndarray:
        return self.Vh.conj().swapaxes(-1, -2) * ~self._within_rank(self.Vh.shape[-1])

    @cached_property
    def corange_basis(self) -> np.ndarray:
        p = self.s.shape[-1]
        return self.Vh[:, :p].conj().swapaxes(-1, -2) * self._within_rank(p)

    @property
    def conull_basis(self) -> np.ndarray:
        return self.U * ~self._within_rank(self.U.shape[-1])

    @cached_property
    def kept(self) -> np.ndarray:
        return np.where(self._within_rank(self.s.shape[-1])[:, 0], self.s, 1.0)


def as_operator(a) -> np.ndarray:
    """Validate and promote ``a`` to a 2-D complex128 array.

    Raises ValueError for non-2-D input or non-finite entries.
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"operator must be 2-D, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("operator has non-finite entries")
    return arr


def _same_shape(A, B) -> tuple[np.ndarray, np.ndarray]:
    """A and B through ``as_operator``; DimensionMismatch unless their shapes agree."""
    A, B = as_operator(A), as_operator(B)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes differ: {A.shape} vs {B.shape}")
    return A, B


def opnorm(a) -> float:
    """Spectral norm, with the convention that empty matrices have norm 0.

    Matrices with a side of length <= 2 use the closed-form largest
    eigenvalue of the small Gram matrix; anything bigger falls back to SVD.
    A stack of K matrices gives its K norms from one singular-value call.
    """
    arr = np.asarray(a)
    if arr.ndim > 2:
        if 0 in arr.shape[-2:]:
            return np.zeros(arr.shape[:-2])
        return np.linalg.svd(arr, compute_uv=False)[..., 0]
    if arr.size == 0:
        return 0.0
    if arr.ndim == 1 or 1 in arr.shape:
        return float(np.sqrt((arr.conj() * arr).real.sum()))
    m, n = arr.shape
    if min(m, n) == 2:
        # kept by measurement: it saves 4 of shorted's 10 SVDs at 2x2; small-ops speed is equal
        G = arr @ arr.conj().T if m <= n else arr.conj().T @ arr
        p, r, q = G[0, 0].real, G[1, 1].real, abs(G[0, 1])
        # tr^2 - 4 det as (p - r)^2 + 4|q|^2: no cancellation near a double singular value
        disc = (p - r) ** 2 + 4.0 * q * q
        return float(np.sqrt(0.5 * (p + r + np.sqrt(disc))))
    return float(np.linalg.svd(arr, compute_uv=False)[0])


# Relative margin kept between a Frobenius bound and the threshold before the
# bound may decide; it lies far above the rounding of either norm, so every
# near-tie goes to the exact spectral norm.
_BOUND_SLACK = 1e-10


def _fro(a: np.ndarray) -> float:
    """Frobenius norm; np.vdot is about three times cheaper than
    np.linalg.norm on the small matrices where per-call overhead dominates."""
    return math.sqrt(np.vdot(a, a).real)


def _short_side(a: np.ndarray) -> int:
    return max(min(a.shape), 1) if a.ndim == 2 else 1


def opnorm_leq(X, rel: float, anchor=None) -> bool:
    """Decide ``opnorm(X) <= rel * max(opnorm(anchor), 1)``.

    ``anchor`` is a matrix, a norm the caller already knows, or None (norm
    0).  With k the smaller side, ||Y||_2 <= ||Y||_F <= sqrt(k) ||Y||_2
    (Golub & Van Loan, Matrix Computations, 2.3) settles the comparison from
    Frobenius norms; only inside the band between the two bounds are the
    exact spectral norms computed, so the verdict is that of the exact test.

    On a stack X of K matrices the verdicts are per item, as a bool array:
    the same band, with the same slack, settles what it can for every item
    at once, and each item inside it gets the exact test above.  The anchor
    is then one matrix or norm for all items, a stack of K matrices, or an
    array of K norms.
    """
    X = np.asarray(X)
    if X.ndim > 2:
        return _opnorm_leq_items(X, rel, anchor)
    x_hi = _fro(X) * (1.0 + _BOUND_SLACK)
    if isinstance(anchor, np.ndarray):
        a_hi = _fro(anchor)
        a_lo = a_hi / math.sqrt(_short_side(anchor))
    else:
        a_lo = a_hi = float(anchor or 0.0)
    low = rel * max(a_lo * (1.0 - _BOUND_SLACK), 1.0)
    if x_hi <= low:
        return True
    high = rel * max(a_hi * (1.0 + _BOUND_SLACK), 1.0)
    if x_hi * (1.0 - 2.0 * _BOUND_SLACK) / math.sqrt(_short_side(X)) > high:
        return False
    x = opnorm(X)
    if x <= low or x > high:
        return x <= low
    if isinstance(anchor, np.ndarray):
        a_lo = opnorm(anchor)
    return x <= rel * max(a_lo, 1.0)


def _opnorm_leq_items(X: np.ndarray, rel: float, anchor) -> np.ndarray:
    """``opnorm_leq`` per item of the stack X."""
    per_item = isinstance(anchor, np.ndarray) and anchor.ndim in (1, 3)
    if isinstance(anchor, np.ndarray) and anchor.ndim >= 2:
        a_hi = np.linalg.norm(anchor, axis=(-2, -1)) if per_item else _fro(anchor)
        a_lo = a_hi / math.sqrt(max(min(anchor.shape[-2:]), 1))
    else:
        a_lo = a_hi = 0.0 if anchor is None else anchor
    low = rel * np.maximum(a_lo * (1.0 - _BOUND_SLACK), 1.0)
    high = rel * np.maximum(a_hi * (1.0 + _BOUND_SLACK), 1.0)
    x_hi = np.linalg.norm(X, axis=(-2, -1)) * (1.0 + _BOUND_SLACK)
    verdicts = x_hi <= low
    in_band = ~verdicts & (x_hi * (1.0 - 2.0 * _BOUND_SLACK)
                           / math.sqrt(max(min(X.shape[-2:]), 1)) <= high)
    for i in np.flatnonzero(in_band):
        verdicts[i] = opnorm_leq(X[i], rel, anchor[i] if per_item else anchor)
    return verdicts


def _relative(X, anchor) -> float:
    """The report floor, ||X|| / max(||anchor||, 1), of a residual that decides
    nothing; ``anchor`` is a matrix or a norm the caller holds."""
    scale = opnorm(anchor) if isinstance(anchor, np.ndarray) else anchor
    return opnorm(X) / max(scale, 1.0)


def max_opnorm(mats) -> float:
    """Largest spectral norm among ``mats``.

    Exact spectral norms are taken in decreasing order of Frobenius norm and
    stop at the first matrix whose Frobenius norm, an upper bound of its
    spectral norm, cannot exceed the maximum found so far.
    """
    fros = sorted(((_fro(m), i) for i, m in enumerate(mats)), reverse=True)
    best = 0.0
    for fro, i in fros:
        if fro * (1.0 + _BOUND_SLACK) <= best:
            break
        best = max(best, opnorm(mats[i]))
    return best


def _cutoff(shape, scale, tol: Tolerance):
    """The one rank cutoff, rank_rel * max(shape) * scale."""
    return tol.rank_rel * max(shape) * scale


def _rank_rule(s: np.ndarray, shape, scale, tol: Tolerance):
    """The one rank rule: singular values above ``_cutoff``; per item for a
    stack's (K, p) singular values, whose scale is one number or one per item."""
    cutoff = _cutoff(shape, scale, tol)
    if s.ndim == 1:
        return int(np.count_nonzero(s > cutoff))
    return np.count_nonzero(s > np.reshape(cutoff, (-1, 1)), axis=-1)


def _spectrum(A: np.ndarray, tol: Tolerance,
              scale: float | None = None) -> FundamentalSubspaces:
    """Full SVD of A, empty shapes included, truncated at ``scale``
    (default: sigma_max of A).  A stack of K matrices is factored in one
    call, each item truncated at its own sigma_max by default."""
    m, n = A.shape[-2:]
    if m == 0 or n == 0:
        U, s, Vh = np.eye(m, dtype=np.complex128), np.zeros(0), np.eye(n, dtype=np.complex128)
        if A.ndim > 2:
            U, s, Vh = (np.broadcast_to(f, A.shape[:-2] + f.shape) for f in (U, s, Vh))
    else:
        U, s, Vh = np.linalg.svd(A, full_matrices=True)
    if A.ndim == 2:
        if scale is None:
            scale = s[0] if len(s) else 0.0
        return FundamentalSubspaces(U, s, Vh, _rank_rule(s, (m, n), scale, tol))
    if scale is None:
        scale = s[:, 0] if s.shape[-1] else 0.0
    return FundamentalSubspacesStack(U, s, Vh, _rank_rule(s, (m, n), scale, tol))


def complement_basis(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of R(basis)-perp for an orthonormal ``basis``: the
    trailing columns of its complete Householder QR.  The basis has full
    column rank by construction, so no rank decision is made.  A Subspace
    made by a complete factorization keeps its frame and never calls this."""
    return np.linalg.qr(basis, mode="complete")[0][:, basis.shape[1]:]


def rank(A, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank: count of singular values above the relative cutoff."""
    return _spectrum(as_operator(A), tol).rank


def pinv(A, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse by singular-value truncation at the rank cutoff."""
    return _spectrum(as_operator(A), tol).pinv()


def polar(A, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition ``A = U @ absA`` with ``absA = (A* A)^(1/2)`` PSD.

    U is the partial isometry supported on the corange: ``U* U`` is the
    orthogonal projection onto R(A*), and ``U U*`` the one onto R(A).
    """
    sp = _spectrum(as_operator(A), tol)
    V = sp.corange_basis
    return sp.range_basis @ V.conj().T, (V * sp.s[:sp.rank]) @ V.conj().T


def sqrt_psd(A, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """PSD square root of a Hermitian PSD matrix via eigendecomposition.

    Eigenvalues in ``[-psd_slack * ||A||, 0)`` are clamped to zero; anything
    below that raises NotPSD.  A Hermitian-symmetry defect beyond ``eq_rel``
    also raises NotPSD.
    """
    A = as_operator(A)
    if A.shape[0] != A.shape[1]:
        raise NotPSD(f"square matrix required, got shape {A.shape}")
    if not opnorm_leq(A - A.conj().T, tol.eq_rel, A):
        raise NotPSD("matrix is not Hermitian")
    if A.shape[0] == 0:
        return A.copy()
    H = 0.5 * (A + A.conj().T)
    evals, vecs = np.linalg.eigh(H)
    if evals[0] < 0.0 and not opnorm_leq(evals[:1], tol.psd_slack, A):
        raise NotPSD(f"eigenvalue {evals[0]:.3e} below PSD slack")
    evals = np.clip(evals, 0.0, None)
    return (vecs * np.sqrt(evals)) @ vecs.conj().T


def sqrt_abs(A, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """|A|^(1/2) = (A* A)^(1/4), assembled from the SVD of A itself.

    Building the root straight from A's singular triples (instead of taking
    sqrt_psd of a computed |A|) keeps its rank exactly equal to rank(A):
    eigen-noise of order sqrt(eps) on the zero eigenvalues would otherwise
    leak phantom directions into range tests against this root.
    """
    return _spectrum(as_operator(A), tol).root_right


def sqrt_abs_adjoint(A, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """|A*|^(1/2) = (A A*)^(1/4), rank-exact like sqrt_abs."""
    return _spectrum(as_operator(A), tol).root_left


def fundamental_subspaces(A, tol: Tolerance = DEFAULT_TOL) -> FundamentalSubspaces:
    """Orthonormal bases for R(A), N(A), R(A*) and N(A*) from one SVD."""
    return _spectrum(as_operator(A), tol)
