"""Dense-matrix primitives: rank, pseudoinverse, polar decomposition, PSD roots.

Operators are plain 2-D ``numpy`` arrays promoted to complex128.  Every rank
decision in the toolkit flows through the same singular-value cutoff so that
range tests, pseudoinverses and subspace extractions stay mutually consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPSD


@dataclass(frozen=True)
class Tolerance:
    """Relative thresholds for rank decisions, equality tests and PSD slack.

    rank_rel
        Singular values below ``rank_rel * max(rows, cols) * sigma_max`` are
        treated as zero.
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
    """Orthonormal bases of the four fundamental subspaces of an operator."""

    range_basis: np.ndarray
    null_basis: np.ndarray
    corange_basis: np.ndarray
    conull_basis: np.ndarray

    @property
    def rank(self) -> int:
        return self.range_basis.shape[1]


def as_operator(a) -> np.ndarray:
    """Validate and promote ``a`` to a 2-D complex128 array.

    Raises ValueError for non-2-D input or non-finite entries.
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"operator must be 2-D, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("operator has non-finite entries")
    return arr


def opnorm(a) -> float:
    """Spectral norm, with the convention that empty matrices have norm 0.

    Matrices with a side of length <= 2 use the closed-form largest
    eigenvalue of the small Gram matrix; anything bigger falls back to SVD.
    """
    arr = np.asarray(a)
    if arr.size == 0:
        return 0.0
    if arr.ndim == 1:
        return float(np.sqrt((arr.conj() * arr).real.sum()))
    m, n = arr.shape
    if m == 1 or n == 1:
        return float(np.sqrt((arr.conj() * arr).real.sum()))
    if min(m, n) == 2:
        # kept by measurement: it saves 4 of shorted's 10 SVDs at 2x2; small-ops speed is equal
        G = arr @ arr.conj().T if m <= n else arr.conj().T @ arr
        tr = G[0, 0].real + G[1, 1].real
        det = (G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]).real
        disc = max(tr * tr - 4.0 * det, 0.0)
        return float(np.sqrt(0.5 * (tr + np.sqrt(disc))))
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
    """
    X = np.asarray(X)
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


def _svd(A: np.ndarray):
    """Full SVD handling empty shapes; returns (U, s, Vh)."""
    m, n = A.shape
    if m == 0 or n == 0:
        return np.eye(m, dtype=np.complex128), np.zeros(0), np.eye(n, dtype=np.complex128)
    return np.linalg.svd(A, full_matrices=True)


def _rank_cutoff(shape, s, tol: Tolerance) -> float:
    if len(s) == 0:
        return 0.0
    return tol.rank_rel * max(shape) * s[0]


def rank(A, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank: count of singular values above the relative cutoff."""
    A = as_operator(A)
    _, s, _ = _svd(A)
    return int(np.sum(s > _rank_cutoff(A.shape, s, tol)))


def pinv(A, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse by singular-value truncation at the rank cutoff."""
    A = as_operator(A)
    U, s, Vh = _svd(A)
    r = int(np.sum(s > _rank_cutoff(A.shape, s, tol)))
    if r == 0:
        return np.zeros((A.shape[1], A.shape[0]), dtype=np.complex128)
    return (Vh[:r].conj().T / s[:r]) @ U[:, :r].conj().T


def polar(A, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition ``A = U @ absA`` with ``absA = (A* A)^(1/2)`` PSD.

    U is the partial isometry supported on the corange: ``U* U`` is the
    orthogonal projection onto R(A*), and ``U U*`` the one onto R(A).
    """
    A = as_operator(A)
    W, s, Vh = _svd(A)
    r = int(np.sum(s > _rank_cutoff(A.shape, s, tol)))
    V = Vh.conj().T
    absA = (V[:, :r] * s[:r]) @ V[:, :r].conj().T
    U = W[:, :r] @ Vh[:r]
    return U, absA


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
    A = as_operator(A)
    _, s, Vh = _svd(A)
    r = int(np.sum(s > _rank_cutoff(A.shape, s, tol)))
    V = Vh.conj().T
    return (V[:, :r] * np.sqrt(s[:r])) @ V[:, :r].conj().T


def sqrt_abs_adjoint(A, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """|A*|^(1/2) = (A A*)^(1/4), rank-exact like sqrt_abs."""
    A = as_operator(A)
    U, s, _ = _svd(A)
    r = int(np.sum(s > _rank_cutoff(A.shape, s, tol)))
    return (U[:, :r] * np.sqrt(s[:r])) @ U[:, :r].conj().T


def fundamental_subspaces(A, tol: Tolerance = DEFAULT_TOL) -> FundamentalSubspaces:
    """Orthonormal bases for R(A), N(A), R(A*) and N(A*) from one SVD."""
    A = as_operator(A)
    U, s, Vh = _svd(A)
    r = int(np.sum(s > _rank_cutoff(A.shape, s, tol)))
    V = Vh.conj().T
    return FundamentalSubspaces(
        range_basis=U[:, :r],
        null_basis=V[:, r:],
        corange_basis=V[:, :r],
        conull_basis=U[:, r:],
    )
