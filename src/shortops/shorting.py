"""Block decomposition, complementability, and the bilateral shorted operator.

A pair of subspaces S (domain side) and T (codomain side) splits an operator
into four blocks.  When the ranges of the off-diagonal blocks fit inside the
corner block's ranges, the generalized Schur complement A11 - A12 A22^+ A21
is well defined; re-embedded into the original coordinates it is the
bilateral shorted operator, which kills S-perp and lands inside T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .douglas import _gate
from .errors import DimensionMismatch, NotComplementable
from .geometry import Subspace
from .numcore import (
    DEFAULT_TOL,
    FundamentalSubspaces,
    Tolerance,
    as_operator,
    _fro,
    _spectrum,
)


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """The four blocks of A relative to (S, T), plus the coordinate frames.

    A11 maps S-coordinates to T-coordinates, A22 maps S-perp to T-perp, and
    the off-diagonal blocks mix them.  The frames [W_S W_S-perp] and
    [W_T W_T-perp] are unitary, with leading columns spanning S and T: the
    subspaces' ``extended_frame``s, or in ``recover_shorted`` the singular
    vectors of the auxiliary L.  The four bases are column views of them.
    ``assemble`` maps block matrices back.
    """

    A11: np.ndarray
    A12: np.ndarray
    A21: np.ndarray
    A22: np.ndarray
    s_frame: np.ndarray
    t_frame: np.ndarray

    @property
    def s_basis(self) -> np.ndarray:
        return self.s_frame[:, :self.A11.shape[1]]

    @property
    def s_perp_basis(self) -> np.ndarray:
        return self.s_frame[:, self.A11.shape[1]:]

    @property
    def t_basis(self) -> np.ndarray:
        return self.t_frame[:, :self.A11.shape[0]]

    @property
    def t_perp_basis(self) -> np.ndarray:
        return self.t_frame[:, self.A11.shape[0]:]

    def assemble(self, B11, B12, B21, B22) -> np.ndarray:
        blocks = np.block([[B11, B12], [B21, B22]])
        return self.t_frame @ blocks @ self.s_frame.conj().T

    def reassemble(self) -> np.ndarray:
        """Reconstruct the original operator from its blocks."""
        return self.assemble(self.A11, self.A12, self.A21, self.A22)


@dataclass(frozen=True, eq=False)
class ComplementabilityWitnesses:
    """Witness operators certifying complementability, in ambient coordinates.

    E and F solve the corner equations A22 X = A21 and A22* X = A12*; P_hat
    and Q_hat are the induced projections with R(P_hat*) = S, R(Q_hat) = T;
    M_r = I - P_hat and M_l = I - Q_hat reproduce the classical Schur
    compression identities A M_r = M_l A = A - shorted.
    """

    E: np.ndarray
    F: np.ndarray
    P_hat: np.ndarray
    Q_hat: np.ndarray
    M_r: np.ndarray
    M_l: np.ndarray


@dataclass(frozen=True)
class ComplementabilityReport:
    """Outcome of the weak/strong complementability tests for (A, S, T).

    ``witnesses`` (None unless the triple is complementable) decides
    nothing, so it is formed on its first read from the blocks and the
    corner's factors that the report keeps.
    """

    weakly: bool
    strongly: bool
    # the blocks of A with the frames that split it, the corner's factors
    _operands: tuple = field(repr=False, compare=False)

    @cached_property
    def witnesses(self) -> ComplementabilityWitnesses | None:
        if not self.weakly:
            return None
        blocks, corner = self._operands
        corner_pinv = corner.pinv()
        E, F_adj = corner_pinv @ blocks.A21, blocks.A12 @ corner_pinv
        P_hat, Q_hat = _witness_projections(blocks, E, F_adj)
        return ComplementabilityWitnesses(
            E=blocks.s_perp_basis @ E @ blocks.s_basis.conj().T,
            F=blocks.t_perp_basis @ F_adj.conj().T @ blocks.t_basis.conj().T,
            P_hat=P_hat, Q_hat=Q_hat,
            M_r=np.eye(len(blocks.s_frame)) - P_hat, M_l=np.eye(len(blocks.t_frame)) - Q_hat)


@dataclass(frozen=True, eq=False)
class ShortedResult:
    """The bilateral shorted operator plus its witnesses.

    E and F are the reduced solutions of the defining corner equations
    through the polar factor of A22, the paper's weak complementability
    witnesses, with P_T A P_S - F* E = shorted; P and Q are projections
    satisfying Q A = A P = shorted.  All fields live in the original
    coordinates.  Only ``shorted`` decides anything: E, F, P and Q are
    formed on first read from parts the call holds (E and F from one pair of
    weak solutions on the corner's factors), so changing the inputs or the
    returned matrices afterwards changes no later read.
    """

    shorted: np.ndarray
    # the blocks, the corner's factors, A22^+ A21 and A22^+
    _parts: tuple = field(repr=False, compare=False)

    @cached_property
    def _weak(self) -> tuple[np.ndarray, np.ndarray]:
        blocks, corner, *_ = self._parts
        return _weak_solutions(corner, blocks.A21, blocks.A12)

    @cached_property
    def E(self) -> np.ndarray:
        blocks = self._parts[0]
        return blocks.s_perp_basis @ self._weak[0] @ blocks.s_basis.conj().T

    @cached_property
    def F(self) -> np.ndarray:
        blocks = self._parts[0]
        return blocks.s_perp_basis @ self._weak[1] @ blocks.t_basis.conj().T

    @cached_property
    def _pq(self) -> tuple[np.ndarray, np.ndarray]:
        blocks, _, E_strong, corner_pinv = self._parts
        return _witness_projections(blocks, E_strong, blocks.A12 @ corner_pinv)

    P = property(lambda self: self._pq[0])
    Q = property(lambda self: self._pq[1])


def _check_fits(A: np.ndarray, S: Subspace, T: Subspace) -> None:
    """DimensionMismatch unless S lives in A's domain and T in its codomain."""
    m, n = A.shape
    if S.ambient_dim != n:
        raise DimensionMismatch(f"S lives in C^{S.ambient_dim}, A has {n} columns")
    if T.ambient_dim != m:
        raise DimensionMismatch(f"T lives in C^{T.ambient_dim}, A has {m} rows")


def _blocks(A: np.ndarray, s_frame: np.ndarray, s_dim: int,
            t_frame: np.ndarray, t_dim: int) -> BlockDecomposition:
    """The four blocks of A in unitary frames whose leading ``s_dim`` and
    ``t_dim`` columns span S and T: any such frames give the same shorted
    operator and the same verdicts."""
    coords = t_frame.conj().T @ A @ s_frame
    top, bottom = coords[:t_dim], coords[t_dim:]
    return BlockDecomposition(A11=top[:, :s_dim], A12=top[:, s_dim:], A21=bottom[:, :s_dim],
                              A22=bottom[:, s_dim:], s_frame=s_frame, t_frame=t_frame)


def block_decompose(A, S: Subspace, T: Subspace,
                    tol: Tolerance = DEFAULT_TOL) -> BlockDecomposition:
    """Split A into the four compressions determined by (S, T)."""
    A = as_operator(A)
    _check_fits(A, S, T)
    return _blocks(A, S.extended_frame, S.dim, T.extended_frame, T.dim)


def complementability(A, S: Subspace, T: Subspace,
                      tol: Tolerance = DEFAULT_TOL) -> ComplementabilityReport:
    """Test whether (A, S, T) is weakly/strongly complementable.

    Strong complementability asks R(A21) ⊆ R(A22) and R(A12*) ⊆ R(A22*),
    the weak one the same of |A22*|^(1/2) and |A22|^(1/2).  The roots are
    taken from the corner's own factors and share its ranges, so in finite
    dimensions one residual per inclusion gives both verdicts; the
    randomized suite checks it against a re-factored root.

    The corner's rank cutoff is anchored at ||A||_F, an upper bound of the
    whole operator's spectral norm: a corner that is rounding noise next to
    A has rank 0, whereas a cutoff taken from the corner's own largest
    singular value would count that noise as full rank.
    """
    A = as_operator(A)
    _check_fits(A, S, T)
    blocks = _blocks(A, S.extended_frame, S.dim, T.extended_frame, T.dim)
    return _complementability(A, blocks, tol)


def _complementability(A: np.ndarray, blocks: BlockDecomposition,
                       tol: Tolerance) -> ComplementabilityReport:
    """The report of ``complementability`` on A's blocks in any frames of
    S and T: the corner factored at ||A||_F and decided by the one gate."""
    corner = _spectrum(blocks.A22, tol, _fro(A))
    included = _gate(blocks.A12, blocks.A21, corner, tol)
    return ComplementabilityReport(weakly=included, strongly=included,
                                   _operands=(blocks, corner))


def _complementable(A, S: Subspace, T: Subspace, tol: Tolerance):
    """The blocks and the corner's factors of a weakly complementable
    triple; raises NotComplementable with the report otherwise."""
    report = complementability(A, S, T, tol)
    if not report.weakly:
        raise NotComplementable(report)
    return report._operands


def _witness_projections(blocks: BlockDecomposition, E: np.ndarray, F_adj: np.ndarray):
    """P_hat and Q_hat, with R(P_hat*) = S and R(Q_hat) = T, from the strong
    corner solutions E = A22^+ A21 and F_adj = A12 A22^+: the frame forms
    s_frame [[I, 0], [-E, 0]] s_frame* and t_frame [[I, -F_adj], [0, 0]]
    t_frame* multiplied out, (W_S - W_S-perp E) W_S* and W_T (W_T* - F_adj W_T-perp*)."""
    W_S, W_T = blocks.s_basis, blocks.t_basis
    P_hat = (W_S - blocks.s_perp_basis @ E) @ W_S.conj().T
    Q_hat = W_T @ (W_T.conj().T - F_adj @ blocks.t_perp_basis.conj().T)
    return P_hat, Q_hat


def _weak_solutions(corner: FundamentalSubspaces, A21: np.ndarray, A12: np.ndarray):
    """The corner equations' reduced solutions through the polar factor of
    A22 = W s V*, from its bases: E_weak = V (W* A21) / s^(1/2) and
    F_weak = V (V* A12*) / s^(1/2); per item on a stack."""
    V, root = corner.corange_basis, np.sqrt(corner.kept)[..., :, None]
    return (V @ ((corner.range_basis.conj().swapaxes(-1, -2) @ A21) / root),
            V @ ((V.conj().swapaxes(-1, -2) @ A12.conj().swapaxes(-1, -2)) / root))


def _schur_complement(A11: np.ndarray, A12: np.ndarray, A21: np.ndarray,
                      corner: FundamentalSubspaces):
    """sigma = A11 - A12 A22^+ A21 from the corner's factors, for a caller
    that has decided R(A21) ⊆ R(A22) and R(A12*) ⊆ R(A22*) on them; returns
    sigma, the strong corner solution E = A22^+ A21 and the corner
    pseudoinverse A22^+, per item on the factors of a stack of corners.
    The weak solutions (``_weak_solutions``) are left to the reports that
    read them.
    """
    corner_pinv = corner.pinv()
    E_strong = corner_pinv @ A21
    return A11 - A12 @ E_strong, E_strong, corner_pinv


def shorted(A, S: Subspace, T: Subspace, tol: Tolerance = DEFAULT_TOL) -> ShortedResult:
    """Bilateral shorted operator of A relative to (S, T).

    Computed as the re-embedded A11 - A12 A22^+ A21 on the corner's one
    factorization.  Raises NotComplementable (carrying the report) when the
    triple is not weakly complementable.
    """
    blocks, corner = _complementable(A, S, T, tol)
    sigma, E_strong, corner_pinv = _schur_complement(blocks.A11, blocks.A12, blocks.A21, corner)
    return ShortedResult(shorted=blocks.t_basis @ sigma @ blocks.s_basis.conj().T,
                         _parts=(blocks, corner, E_strong, corner_pinv))


def schur_compression(A, S: Subspace, T: Subspace,
                      tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """A minus its shorted operator; equals A (I - P_hat) for any witness."""
    A = as_operator(A)
    return A - shorted(A, S, T, tol).shorted


def solve_shorting_direction(A, S: Subspace, T: Subspace, x,
                             tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Given x in S, return y in S-perp with A(x + y) = shorted(A)(x).

    This is the stationary finite-dimensional form of the approximating
    sequences that define the shorted operator; the bounded-energy constraint
    on those sequences carries no extra content once y solves the corner
    equation exactly.
    """
    A = as_operator(A)
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if x.shape[0] != S.ambient_dim:
        raise DimensionMismatch("x length differs from the ambient dimension of S")
    if not S.contains(x[:, None], tol):
        raise ValueError("x does not lie in S")
    blocks, corner = _complementable(A, S, T, tol)
    E_strong = corner.pinv() @ blocks.A21
    return -blocks.s_perp_basis @ (E_strong @ (blocks.s_basis.conj().T @ x))
