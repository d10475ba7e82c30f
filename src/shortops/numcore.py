"""Dense-matrix primitives: rank, pseudoinverse, polar decomposition, PSD roots.

Operators are plain 2-D ``numpy`` arrays promoted to complex128.  Every rank
decision in the toolkit is made here, by one rule applied to one factorization
value (``FundamentalSubspaces``), so that range tests, pseudoinverses, roots
and subspace extractions stay mutually consistent; the complement of an
orthonormal basis needs none and comes from one QR (``complement_basis``).
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
    same factors at another scale.  The root values list only the ``rank``
    nonzero singular values in ``s``.
    """

    U: np.ndarray
    s: np.ndarray
    Vh: np.ndarray
    rank: int

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

    def at_scale(self, scale: float, tol: Tolerance = DEFAULT_TOL) -> "FundamentalSubspaces":
        """The same factors, truncated with the cutoff anchored at ``scale``."""
        shape = (self.U.shape[0], self.Vh.shape[0])
        return FundamentalSubspaces(self.U, self.s, self.Vh,
                                    _rank_rule(self.s, shape, scale, tol))

    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudoinverse of the truncated factors."""
        return (self.corange_basis / self.s[:self.rank]) @ self.range_basis.conj().T

    @property
    def root_left(self) -> np.ndarray:
        """|A*|^(1/2) = (A A*)^(1/4), of rank exactly ``rank``."""
        W = self.range_basis
        return (W * np.sqrt(self.s[:self.rank])) @ W.conj().T

    @property
    def root_right(self) -> np.ndarray:
        """|A|^(1/2) = (A* A)^(1/4), of rank exactly ``rank``."""
        V = self.corange_basis
        return (V * np.sqrt(self.s[:self.rank])) @ V.conj().T

    @property
    def root_factors(self) -> "FundamentalSubspaces":
        """Factors of W s^(1/2) Vh, |A*|^(1/2) times the polar partial isometry,
        from A's own singular vectors: no factorization, and A's rank and
        four subspaces."""
        return FundamentalSubspaces(self.U, np.sqrt(self.s[:self.rank]), self.Vh, self.rank)

    @property
    def abs_root_factors(self) -> "FundamentalSubspaces":
        """Factors (V, s^(1/2), V*) of |A|^(1/2), of rank exactly ``rank``."""
        V = self.Vh.conj().T
        return FundamentalSubspaces(V, np.sqrt(self.s[:self.rank]), self.Vh, self.rank)


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


def _rank_rule(s: np.ndarray, shape, scale: float, tol: Tolerance) -> int:
    """The one rank rule: singular values above rank_rel * max(shape) * scale."""
    return int(np.count_nonzero(s > tol.rank_rel * max(shape) * scale))


def _spectrum(A: np.ndarray, tol: Tolerance,
              scale: float | None = None) -> FundamentalSubspaces:
    """Full SVD of A, empty shapes included, truncated at ``scale``
    (default: sigma_max of A)."""
    m, n = A.shape
    if m == 0 or n == 0:
        U, s, Vh = np.eye(m, dtype=np.complex128), np.zeros(0), np.eye(n, dtype=np.complex128)
    else:
        U, s, Vh = np.linalg.svd(A, full_matrices=True)
    if scale is None:
        scale = s[0] if len(s) else 0.0
    return FundamentalSubspaces(U, s, Vh, _rank_rule(s, A.shape, scale, tol))


def complement_basis(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of R(basis)-perp for an orthonormal ``basis``: the
    trailing columns of its complete Householder QR.  The basis has full
    column rank by construction, so no rank decision is made."""
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
