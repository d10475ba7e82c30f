"""Block decomposition, complementability, and the bilateral shorted operator.

A pair of subspaces S (domain side) and T (codomain side) splits an operator
into four blocks.  When the ranges of the off-diagonal blocks fit inside the
corner block's ranges, the generalized Schur complement A11 - A12 A22^+ A21
is well defined; re-embedded into the original coordinates it is the
bilateral shorted operator, which kills S-perp and lands inside T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .douglas import range_leq, _reduced_D
from .errors import DimensionMismatch, NotComplementable, ConsistencyError
from .geometry import Subspace, angles
from .numcore import (
    DEFAULT_TOL,
    Tolerance,
    as_operator,
    opnorm,
    opnorm_leq,
    _fro,
    _svd,
)


@dataclass(frozen=True)
class BlockDecomposition:
    """The four blocks of A relative to (S, T), plus the coordinate frames.

    A11 maps S-coordinates to T-coordinates, A22 maps S-perp to T-perp, and
    the off-diagonal blocks mix them.  ``assemble`` maps block matrices back
    to the original coordinates.
    """

    A11: np.ndarray
    A12: np.ndarray
    A21: np.ndarray
    A22: np.ndarray
    s_basis: np.ndarray
    s_perp_basis: np.ndarray
    t_basis: np.ndarray
    t_perp_basis: np.ndarray

    @property
    def s_frame(self) -> np.ndarray:
        return np.hstack([self.s_basis, self.s_perp_basis])

    @property
    def t_frame(self) -> np.ndarray:
        return np.hstack([self.t_basis, self.t_perp_basis])

    def assemble(self, B11, B12, B21, B22) -> np.ndarray:
        blocks = np.block([[B11, B12], [B21, B22]])
        return self.t_frame @ blocks @ self.s_frame.conj().T

    def reassemble(self) -> np.ndarray:
        """Reconstruct the original operator from its blocks."""
        return self.assemble(self.A11, self.A12, self.A21, self.A22)


@dataclass(frozen=True)
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

    angle_check carries the Dixmier cosines of (S, closure of A*(T-perp)) and
    (T, closure of A(S-perp)); both below 1 is an equivalent criterion and is
    reported for cross-validation.
    """

    weakly: bool
    strongly: bool
    witnesses: ComplementabilityWitnesses | None
    angle_check: tuple[float, float]


@dataclass(frozen=True)
class ShortedDiagnostics:
    """Residual record for a shorted-operator computation.

    All entries are operator norms relative to max(||A||, 1).
    route_disagreement compares the pseudoinverse formula against the
    reduced-solution route; qa_ap_gap is ||Q A - A P||; qa_residual and
    ap_residual compare both products against the shorted operator.
    """

    route_disagreement: float
    qa_ap_gap: float
    qa_residual: float
    ap_residual: float


@dataclass(frozen=True)
class ShortedResult:
    """The bilateral shorted operator plus its witnesses.

    E and F are the reduced solutions of the defining corner equations
    (through the polar factor of A22); P and Q are projections satisfying
    Q A = A P = shorted.  All fields live in the original coordinates.
    """

    shorted: np.ndarray
    E: np.ndarray
    F: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    diagnostics: ShortedDiagnostics


def block_decompose(A, S: Subspace, T: Subspace,
                    tol: Tolerance = DEFAULT_TOL) -> BlockDecomposition:
    """Split A into the four compressions determined by (S, T)."""
    A = as_operator(A)
    m, n = A.shape
    if S.ambient_dim != n:
        raise DimensionMismatch(f"S lives in C^{S.ambient_dim}, A has {n} columns")
    if T.ambient_dim != m:
        raise DimensionMismatch(f"T lives in C^{T.ambient_dim}, A has {m} rows")
    sp = S.complement()
    tp = T.complement()
    t = T.dim
    s = S.dim
    coords = T.extended_frame.conj().T @ A @ S.extended_frame
    return BlockDecomposition(
        A11=coords[:t, :s],
        A12=coords[:t, s:],
        A21=coords[t:, :s],
        A22=coords[t:, s:],
        s_basis=S.basis,
        s_perp_basis=sp.basis,
        t_basis=T.basis,
        t_perp_basis=tp.basis,
    )


@dataclass(frozen=True)
class _CornerAnalysis:
    """Rank-truncated SVD of the corner block plus derived factors: the polar
    partial isometry and the square roots |A22*|^(1/2), |A22|^(1/2)."""

    W: np.ndarray
    s: np.ndarray
    Vh: np.ndarray
    U: np.ndarray
    root_left: np.ndarray
    root_right: np.ndarray

    def pinv(self) -> np.ndarray:
        return (self.Vh.conj().T / self.s) @ self.W.conj().T if len(self.s) else \
            np.zeros((self.Vh.shape[1], self.W.shape[0]), dtype=np.complex128)


def _corner_analysis(A22: np.ndarray, scale: float, tol: Tolerance) -> _CornerAnalysis:
    """Factor the corner with its rank cutoff anchored at ``scale``, the
    Frobenius norm of the whole operator (an upper bound of its spectral
    norm): a corner that is rounding noise next to A has rank 0, whereas a
    cutoff taken from the corner's own largest singular value would count
    that noise as full rank."""
    W, s, Vh = _svd(A22)
    r = int(np.sum(s > tol.rank_rel * max(A22.shape) * scale))
    W, s, Vh = W[:, :r], s[:r], Vh[:r]
    roots = np.sqrt(s)
    return _CornerAnalysis(
        W=W,
        s=s,
        Vh=Vh,
        U=W @ Vh,
        root_left=(W * roots) @ W.conj().T,
        root_right=(Vh.conj().T * roots) @ Vh,
    )


def complementability(A, S: Subspace, T: Subspace,
                      tol: Tolerance = DEFAULT_TOL) -> ComplementabilityReport:
    """Test whether (A, S, T) is weakly/strongly complementable.

    Strong complementability asks R(A21) ⊆ R(A22) and R(A12*) ⊆ R(A22*);
    the weak variant tests against the square roots |A22*|^(1/2) and
    |A22|^(1/2).  In finite dimensions ranges are closed and the two notions
    provably coincide; the randomized suite asserts that collapse.
    """
    A = as_operator(A)
    blocks = block_decompose(A, S, T, tol)
    return _report_for(A, S, T, blocks, _corner_analysis(blocks.A22, _fro(A), tol), tol)


def _complementable_blocks(A: np.ndarray, S: Subspace, T: Subspace, tol: Tolerance):
    """Blocks and corner analysis of a weakly complementable triple.

    Raises NotComplementable otherwise; its report, with the angle
    cross-check, is built only then.
    """
    blocks = block_decompose(A, S, T, tol)
    corner = _corner_analysis(blocks.A22, _fro(A), tol)
    weakly, _ = _gate(blocks, corner, tol)
    if not weakly:
        raise NotComplementable(_report_for(A, S, T, blocks, corner, tol))
    return blocks, corner


def _gate(blocks: BlockDecomposition, corner: _CornerAnalysis,
          tol: Tolerance) -> tuple[bool, bool]:
    """(weakly, strongly) complementable.

    Strong inclusions go through the corner's own singular factors; the weak
    ones run literally against the square-root matrices (a distinct
    computation, so the finite-dimensional collapse of the two notions stays
    a real test).
    """
    A12s = blocks.A12.conj().T
    V = corner.Vh.conj().T
    strongly = (
        opnorm_leq(blocks.A21 - corner.W @ (corner.W.conj().T @ blocks.A21), tol.eq_rel,
                   blocks.A21)
        and opnorm_leq(A12s - V @ (corner.Vh @ A12s), tol.eq_rel, A12s)
    )
    weakly = range_leq(blocks.A21, corner.root_left, tol) and range_leq(
        A12s, corner.root_right, tol
    )
    return weakly, strongly


def _report_for(A, S: Subspace, T: Subspace, blocks: BlockDecomposition,
                corner: _CornerAnalysis, tol: Tolerance) -> ComplementabilityReport:
    weakly, strongly = _gate(blocks, corner, tol)

    witnesses = None
    if strongly:
        corner_pinv = corner.pinv()
        E = corner_pinv @ blocks.A21
        F = corner_pinv.conj().T @ blocks.A12.conj().T
        s, t = S.dim, T.dim
        p, q = blocks.A22.shape
        P_hat = blocks.s_frame @ np.block(
            [[np.eye(s), np.zeros((s, q))], [-E, np.zeros((q, q))]]
        ) @ blocks.s_frame.conj().T
        Q_hat = blocks.t_frame @ np.block(
            [[np.eye(t), -F.conj().T], [np.zeros((p, t)), np.zeros((p, p))]]
        ) @ blocks.t_frame.conj().T
        witnesses = ComplementabilityWitnesses(
            E=blocks.s_perp_basis @ E @ blocks.s_basis.conj().T,
            F=blocks.t_perp_basis @ F @ blocks.t_basis.conj().T,
            P_hat=P_hat,
            Q_hat=Q_hat,
            M_r=np.eye(S.ambient_dim) - P_hat,
            M_l=np.eye(T.ambient_dim) - Q_hat,
        )

    corange_image = Subspace.range_of(A.conj().T @ T.complement().basis, tol)
    range_image = Subspace.range_of(A @ S.complement().basis, tol)
    angle_check = (
        angles(S, corange_image, tol).dixmier_cos,
        angles(T, range_image, tol).dixmier_cos,
    )
    return ComplementabilityReport(
        weakly=weakly, strongly=strongly, witnesses=witnesses, angle_check=angle_check
    )


def _shorted_blocks(blocks: BlockDecomposition, corner: _CornerAnalysis, tol: Tolerance):
    """Schur-complement block via pseudoinverse, cross-checked through the
    reduced-solution route, plus the strong-form corner solutions."""
    corner_pinv = corner.pinv()
    E_strong = corner_pinv @ blocks.A21
    F_strong_adj = blocks.A12 @ corner_pinv
    sigma = blocks.A11 - blocks.A12 @ E_strong

    E_weak = _reduced_D(corner.root_left @ corner.U, blocks.A21, tol)
    F_weak = _reduced_D(corner.root_right, blocks.A12.conj().T, tol)
    sigma_alt = blocks.A11 - F_weak.conj().T @ E_weak
    return sigma, sigma_alt, E_strong, F_strong_adj, E_weak, F_weak


def _disagreement_error(disagreement: float) -> ConsistencyError:
    return ConsistencyError(
        f"shorting routes disagree by {disagreement:.3e} (relative); "
        "the input is likely at the edge of complementability"
    )


def shorted_matrix(A, S: Subspace, T: Subspace,
                   tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The shorted operator alone, without witness projections or diagnostics.

    Same gate, same primary formula and the same mandatory reduced-solution
    cross-check as ``shorted``; use it where only the matrix is needed (the
    parallel-sum block device calls this in a loop).
    """
    A = as_operator(A)
    blocks, corner = _complementable_blocks(A, S, T, tol)
    sigma, sigma_alt, *_ = _shorted_blocks(blocks, corner, tol)
    if not opnorm_leq(sigma - sigma_alt, 10.0 * tol.eq_rel, A):
        raise _disagreement_error(opnorm(sigma - sigma_alt) / max(opnorm(A), 1.0))
    return blocks.t_basis @ sigma @ blocks.s_basis.conj().T


def shorted(A, S: Subspace, T: Subspace, tol: Tolerance = DEFAULT_TOL) -> ShortedResult:
    """Bilateral shorted operator of A relative to (S, T).

    Computed as the re-embedded A11 - A12 A22^+ A21, with the
    reduced-solution route (through the polar factor of A22) recomputed as a
    mandatory cross-check; disagreement beyond 10 * eq_rel means an internal
    inconsistency, not bad input.  Raises NotComplementable (carrying the
    report) when the triple is not weakly complementable.
    """
    A = as_operator(A)
    blocks, corner = _complementable_blocks(A, S, T, tol)
    scale = max(opnorm(A), 1.0)

    sigma, sigma_alt, E_strong, F_strong_adj, E_weak, F_weak = _shorted_blocks(
        blocks, corner, tol
    )
    disagreement = opnorm(sigma - sigma_alt) / scale
    if disagreement > 10.0 * tol.eq_rel:
        raise _disagreement_error(disagreement)

    shorted_full = blocks.t_basis @ sigma @ blocks.s_basis.conj().T
    s, t = S.dim, T.dim
    p, q = blocks.A22.shape
    P = blocks.s_frame @ np.block(
        [[np.eye(s), np.zeros((s, q))], [-E_strong, np.zeros((q, q))]]
    ) @ blocks.s_frame.conj().T
    Q = blocks.t_frame @ np.block(
        [[np.eye(t), -F_strong_adj], [np.zeros((p, t)), np.zeros((p, p))]]
    ) @ blocks.t_frame.conj().T

    QA = Q @ A
    AP = A @ P
    diagnostics = ShortedDiagnostics(
        route_disagreement=disagreement,
        qa_ap_gap=opnorm(QA - AP) / scale,
        qa_residual=opnorm(QA - shorted_full) / scale,
        ap_residual=opnorm(AP - shorted_full) / scale,
    )
    return ShortedResult(
        shorted=shorted_full,
        E=blocks.s_perp_basis @ E_weak @ blocks.s_basis.conj().T,
        F=blocks.s_perp_basis @ F_weak @ blocks.t_basis.conj().T,
        P=P,
        Q=Q,
        diagnostics=diagnostics,
    )


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
    if not opnorm_leq(x - S.projection @ x, tol.eq_rel, x):
        raise ValueError("x does not lie in S")
    blocks, corner = _complementable_blocks(A, S, T, tol)
    E_strong = corner.pinv() @ blocks.A21
    return -blocks.s_perp_basis @ (E_strong @ (blocks.s_basis.conj().T @ x))
