"""Subspaces of C^n, orthogonal/oblique projections, and subspace angles.

A subspace is stored as an orthonormal column basis (zero columns for the
trivial subspace).  Two angle notions are provided: the Dixmier angle, whose
cosine is 1 as soon as the subspaces intersect nontrivially, and the
Friedrichs angle, taken after splitting off the intersection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotComplementary
from .numcore import (
    DEFAULT_TOL,
    Tolerance,
    as_operator,
    fundamental_subspaces,
    opnorm,
    opnorm_leq,
    _svd,
)


@dataclass(frozen=True)
class Subspace:
    """A closed subspace of C^n given by an orthonormal column basis."""

    ambient_dim: int
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        basis = as_operator(self.basis)
        if basis.shape[0] != self.ambient_dim:
            raise DimensionMismatch(
                f"basis rows {basis.shape[0]} != ambient dimension {self.ambient_dim}"
            )
        if basis.shape[1] > self.ambient_dim:
            raise DimensionMismatch("more basis columns than ambient dimension")
        gram = basis.conj().T @ basis
        # Frobenius bound: dominates the spectral norm and needs no SVD
        if np.linalg.norm(gram - np.eye(basis.shape[1])) > DEFAULT_TOL.eq_rel:
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", basis)

    @classmethod
    def from_spanning(cls, columns, tol: Tolerance = DEFAULT_TOL) -> "Subspace":
        """Orthonormalize arbitrary spanning columns (rank-revealing)."""
        cols = as_operator(columns)
        return cls(cols.shape[0], fundamental_subspaces(cols, tol).range_basis)

    @classmethod
    def from_projection(cls, P, tol: Tolerance = DEFAULT_TOL) -> "Subspace":
        """Range of an idempotent Hermitian matrix, validated as such."""
        P = as_operator(P)
        if P.shape[0] != P.shape[1]:
            raise DimensionMismatch("projection matrix must be square")
        if not opnorm_leq(P - P.conj().T, tol.eq_rel, P):
            raise ValueError("projection matrix is not Hermitian")
        if not opnorm_leq(P @ P - P, tol.eq_rel, P):
            raise ValueError("projection matrix is not idempotent")
        return cls.from_spanning(P, tol)

    @classmethod
    def range_of(cls, A, tol: Tolerance = DEFAULT_TOL) -> "Subspace":
        """R(A) as a subspace of the codomain."""
        A = as_operator(A)
        return cls(A.shape[0], fundamental_subspaces(A, tol).range_basis)

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, np.eye(n, dtype=np.complex128))

    @classmethod
    def trivial(cls, n: int) -> "Subspace":
        return cls(n, np.zeros((n, 0), dtype=np.complex128))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def projection(self) -> np.ndarray:
        """Orthogonal projection onto the subspace (cached)."""
        return self.basis @ self.basis.conj().T

    @cached_property
    def _complement(self) -> "Subspace":
        # N(basis*) is exactly the complement; one SVD of the basis suffices.
        comp = fundamental_subspaces(self.basis).conull_basis
        return Subspace(self.ambient_dim, comp)

    def complement(self) -> "Subspace":
        """Orthogonal complement (cached)."""
        return self._complement

    @cached_property
    def extended_frame(self) -> np.ndarray:
        """Unitary [basis | complement basis], the coordinate frame used by
        block decompositions (cached)."""
        return np.hstack([self.basis, self.complement().basis])

    def contains(self, vectors, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Do the given column vectors lie in the subspace (within eq_rel)?"""
        V = as_operator(vectors)
        if V.shape[0] != self.ambient_dim:
            raise DimensionMismatch("vector length != ambient dimension")
        return opnorm_leq(V - self.projection @ V, tol.eq_rel, V)

    def equals(self, other: "Subspace", tol: Tolerance = DEFAULT_TOL) -> bool:
        """Same subspace, decided by comparing orthogonal projections."""
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces live in different ambient spaces")
        return opnorm_leq(self.projection - other.projection, 100 * tol.eq_rel)


@dataclass(frozen=True)
class AnglePair:
    """Cosines of the Dixmier and Friedrichs angles between two subspaces."""

    dixmier_cos: float
    friedrichs_cos: float


def ortho_projection(S: Subspace) -> np.ndarray:
    """Orthogonal projection onto S (Hermitian idempotent)."""
    return S.projection


def oblique_projection(range_sub: Subspace, nullsp: Subspace,
                       tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The projection Q with R(Q) = range_sub and N(Q) = nullsp.

    Raises NotComplementary unless the two subspaces decompose the ambient
    space as a direct sum.
    """
    if range_sub.ambient_dim != nullsp.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    n = range_sub.ambient_dim
    r = range_sub.dim
    if r + nullsp.dim != n:
        raise NotComplementary("dimensions do not sum to the ambient dimension")
    if angles(range_sub, nullsp, tol).dixmier_cos >= 1.0 - tol.eq_rel:
        raise NotComplementary("subspaces intersect nontrivially")
    M = np.hstack([range_sub.basis, nullsp.basis])
    # Q = M diag(I_r, 0) M^{-1}; only the first r rows of M^{-1} are needed.
    return range_sub.basis @ np.linalg.inv(M)[:r, :]


def _split_at_unit_scale(A: np.ndarray, tol: Tolerance):
    """Row-space basis and nullspace basis of A, with the rank cutoff anchored
    at scale 1.  Appropriate when A is built from projections or orthonormal
    bases, whose meaningful singular values are O(1); a cutoff relative to
    sigma_max would promote pure rounding noise to full rank when A ~ 0."""
    _, s, Vh = _svd(A)
    cutoff = tol.rank_rel * max(A.shape) * max(1.0, float(s[0]) if len(s) else 1.0)
    r = int(np.sum(s > cutoff))
    V = Vh.conj().T
    return V[:, :r], V[:, r:]


def subspace_meet(M: Subspace, N: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Intersection M ∩ N, from the common nullspace of the projection complements."""
    if M.ambient_dim != N.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    n = M.ambient_dim
    eye = np.eye(n)
    stacked = np.vstack([eye - M.projection, eye - N.projection])
    _, null_basis = _split_at_unit_scale(stacked, tol)
    return Subspace(n, null_basis)


def subspace_join(M: Subspace, N: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Span of M + N, the orthonormalized union of the two bases."""
    if M.ambient_dim != N.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    return Subspace.from_spanning(np.hstack([M.basis, N.basis]), tol)


def _largest_cosine(B1: np.ndarray, B2: np.ndarray) -> float:
    """sigma_max of B1* B2 for orthonormal bases, clamped into [0, 1].

    Either basis empty means the underlying sup runs over an empty set; the
    cosine is 0 by convention.
    """
    if B1.shape[1] == 0 or B2.shape[1] == 0:
        return 0.0
    return float(min(1.0, opnorm(B1.conj().T @ B2)))


def _deflate(S: Subspace, K: Subspace, tol: Tolerance) -> np.ndarray:
    """Orthonormal basis of the part of S orthogonal to K (K assumed inside S)."""
    if K.dim == 0:
        return S.basis
    reduced = S.basis - K.projection @ S.basis
    # unit-scale cutoff: when K = S the residual is rounding noise and must
    # come out empty, not as a normalized junk direction
    U, s, _ = _svd(reduced)
    cutoff = tol.rank_rel * max(reduced.shape) * max(1.0, float(s[0]) if len(s) else 1.0)
    return U[:, : int(np.sum(s > cutoff))]


def angles(M: Subspace, N: Subspace, tol: Tolerance = DEFAULT_TOL) -> AnglePair:
    """Dixmier and Friedrichs angle cosines between M and N.

    The Friedrichs cosine is computed after orthogonally removing M ∩ N from
    both sides.  When one subspace contains the other, the deflated sup runs
    over an empty set and the cosine is reported as 0 (angle pi/2); this
    convention makes the complement symmetry of the Friedrichs angle hold
    degenerately.
    """
    if M.ambient_dim != N.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    dixmier = _largest_cosine(M.basis, N.basis)
    K = subspace_meet(M, N, tol)
    if K.dim == 0:
        friedrichs = dixmier
    else:
        friedrichs = _largest_cosine(_deflate(M, K, tol), _deflate(N, K, tol))
    return AnglePair(dixmier_cos=dixmier, friedrichs_cos=friedrichs)
