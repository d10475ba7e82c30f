"""Subspaces of C^n, orthogonal/oblique projections, and subspace angles.

A subspace is stored as an orthonormal column basis (zero columns for the
trivial subspace).  Two angle notions are provided: the Dixmier angle, whose
cosine is 1 as soon as the subspaces intersect nontrivially, and the
Friedrichs angle, taken after splitting off the intersection.  Every
question about a pair of subspaces is answered from one SVD: meet, join and
both angles from that of their stacked bases [W1 W2], the oblique projection
from that of the smaller W2⊥* W1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import math

import numpy as np

from .errors import DimensionMismatch, NotComplementary
from .numcore import (
    DEFAULT_TOL,
    FundamentalSubspaces,
    Tolerance,
    as_operator,
    complement_basis,
    fundamental_subspaces,
    opnorm_leq,
    _cutoff,
    _fro,
    _spectrum,
)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A closed subspace of C^n given by an orthonormal column basis."""

    ambient_dim: int
    basis: np.ndarray = field(repr=False)
    __hash__ = object.__hash__    # by identity, since == raises

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
        if _fro(gram - np.eye(basis.shape[1])) > DEFAULT_TOL.eq_rel:
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", basis)

    def __eq__(self, other):
        raise TypeError("Subspace does not support ==; compare with Subspace.equals")

    @classmethod
    def from_spanning(cls, columns, tol: Tolerance = DEFAULT_TOL) -> "Subspace":
        """Orthonormalize arbitrary spanning columns (rank-revealing)."""
        fs = fundamental_subspaces(columns, tol)
        return cls._framed(fs.U, fs.rank)

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
        fs = fundamental_subspaces(A, tol)
        return cls._framed(fs.U, fs.rank)

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls._framed(np.eye(n, dtype=np.complex128), n)

    @classmethod
    def trivial(cls, n: int) -> "Subspace":
        return cls._framed(np.eye(n, dtype=np.complex128), 0)

    @classmethod
    def _framed(cls, frame: np.ndarray, dim: int) -> "Subspace":
        """The span of the leading ``dim`` columns of ``frame``, kept as its
        ``extended_frame``, with no check.  Precondition: ``frame`` is a
        unitary complex128 square array, the complete factor of a QR or an
        SVD, the identity, or such a frame with its column blocks swapped."""
        subspace = object.__new__(cls)
        subspace.__dict__.update(ambient_dim=frame.shape[0], basis=frame[:, :dim],
                                 extended_frame=frame)
        return subspace

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def projection(self) -> np.ndarray:
        """Orthogonal projection onto the subspace (cached)."""
        return self.basis @ self.basis.conj().T

    @cached_property
    def extended_frame(self) -> np.ndarray:
        """Unitary [basis | complement basis], the frame of block decompositions
        (cached): kept from the factorization that made the subspace, or for a
        caller's basis completed by one QR."""
        return np.hstack([self.basis, complement_basis(self.basis)])

    @cached_property
    def _complement(self) -> "Subspace":
        frame = self.extended_frame
        return Subspace._framed(np.hstack([frame[:, self.dim:], frame[:, :self.dim]]),
                                self.ambient_dim - self.dim)

    def complement(self) -> "Subspace":
        """Orthogonal complement (cached), framed by ``extended_frame`` with
        its two column blocks swapped, so no QR."""
        return self._complement

    def contains(self, vectors, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Do the given column vectors lie in the subspace (within eq_rel)?"""
        V = as_operator(vectors)
        if V.shape[0] != self.ambient_dim:
            raise DimensionMismatch("vector length != ambient dimension")
        return opnorm_leq(V - self.projection @ V, tol.eq_rel, V)

    def equals(self, other: "Subspace", tol: Tolerance = DEFAULT_TOL) -> bool:
        """Same subspace, decided by ``_spanned_by`` on the other's basis."""
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces live in different ambient spaces")
        return self._spanned_by(other.basis, tol)

    def _spanned_by(self, basis: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
        """The one equality rule: orthonormal ``basis`` gives the projection within 100 eq_rel."""
        return opnorm_leq(basis @ basis.conj().T - self.projection, 100 * tol.eq_rel)


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
    """The projection Q with R(Q) = range_sub and N(Q) = nullsp, from one SVD
    against nullsp's cached complement, which also decides overlap (``_split_along``).

    Raises NotComplementary unless the two subspaces decompose the ambient
    space as a direct sum.
    """
    if range_sub.ambient_dim != nullsp.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    if range_sub.dim + nullsp.dim != range_sub.ambient_dim:
        raise NotComplementary("dimensions do not sum to the ambient dimension")
    # the complement's columns of the cached frame, without building a new Subspace
    Q = _split_along(range_sub.basis, nullsp.extended_frame[:, nullsp.dim:], tol)
    if Q is None:
        raise NotComplementary("subspaces intersect nontrivially")
    return Q


def _split_along(W1: np.ndarray, W2_perp: np.ndarray, tol: Tolerance) -> np.ndarray | None:
    """Projection onto R(W1) along R(W2) ⊕ (R(W1) + R(W2))⊥ for orthonormal
    W1 (n x a) and W2 (n x b), given an orthonormal basis W2_perp of R(W2)⊥,
    or None when the ranges meet by ``subspace_meet``'s rule: a > n - b, or
    [W1 W2]'s least singular value sin / sqrt(1 + cos) at the least principal
    angle is at or below the rank cutoff anchored at its largest, sqrt(1 +
    cos).  The sine is sigma_min of K = W2_perp* W1, as K* K = I - G G* for
    G = W1* W2 (Björck & Golub, 1973); else W1 K^+ W2_perp* is the projection."""
    if W1.shape[1] > W2_perp.shape[1]:
        return None
    Nh = W2_perp.conj().T
    spectrum = _spectrum(Nh @ W1, tol)
    sine = float(spectrum.s[-1]) if spectrum.s.size else 1.0
    top = math.sqrt(1.0 + math.sqrt(max(1.0 - sine * sine, 0.0)))
    # [W1 W2] is n x (a + b) with a + b <= n: W1's longer side sets the cutoff
    if sine / top <= _cutoff(W1.shape, top, tol):
        return None
    return W1 @ spectrum.pinv() @ Nh


def _stacked(M: Subspace, N: Subspace, tol: Tolerance) -> FundamentalSubspaces:
    """SVD of [W1 W2] at its default anchor.  Its Gram matrix [[I, G], [G*, I]],
    G = W1* W2, has eigenvalues 1 +- cos(theta_i) for the min(a, b) principal
    angles and 1 for the other |a - b| columns (Björck & Golub, 1973): the
    top min(a, b) singular values are sqrt(1 + cos(theta_i)), the near-null
    ones span M ∩ N, and the rank is dim (M + N)."""
    if M.ambient_dim != N.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    return _spectrum(np.hstack([M.basis, N.basis]), tol)


def subspace_meet(M: Subspace, N: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Intersection M ∩ N, of dimension dim M + dim N - dim (M + N).  Each
    near-null right singular vector (x1, x2) of [W1 W2], with singular value
    sigma (0 past the last one), gives (W1 x1 - W2 x2) / sqrt(2 - sigma^2): a
    unit vector within sigma of M and N and, in exact arithmetic, orthogonal
    to the others, so the basis needs no further factorization."""
    spectrum = _stacked(M, N, tol)
    X = spectrum.null_basis
    sigma = np.zeros(X.shape[1])
    sigma[:spectrum.s.size - spectrum.rank] = spectrum.s[spectrum.rank:]
    meet = (M.basis @ X[:M.dim] - N.basis @ X[M.dim:]) / np.sqrt(2.0 - sigma * sigma)
    return Subspace(M.ambient_dim, meet)


def subspace_join(M: Subspace, N: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Span of M + N, the range basis of the stacked bases [W1 W2] in their U."""
    spectrum = _stacked(M, N, tol)
    return Subspace._framed(spectrum.U, spectrum.rank)


def angles(M: Subspace, N: Subspace, tol: Tolerance = DEFAULT_TOL) -> AnglePair:
    """Dixmier and Friedrichs angle cosines between M and N: the largest
    principal cosine sigma_i^2 - 1 of the stacked bases, and the largest past
    the dim (M ∩ N) meet directions.  When one subspace contains the other
    that sup runs over an empty set and the cosine is reported as 0 (angle
    pi/2); this convention makes the complement symmetry of the Friedrichs
    angle hold degenerately.
    """
    spectrum = _stacked(M, N, tol)
    cosines = np.clip(spectrum.s[:min(M.dim, N.dim)] ** 2 - 1.0, 0.0, 1.0)
    meet_dim = M.dim + N.dim - spectrum.rank
    return AnglePair(dixmier_cos=float(cosines.max(initial=0.0)),
                     friedrichs_cos=float(cosines[meet_dim:].max(initial=0.0)))
