"""Randomized instance generators and the invariant-certification suite.

Every generator draws from an explicitly seeded PCG64 stream, so reports are
reproducible across runs and platforms.  ``run_suite`` executes every
distributional invariant of the toolkit, counting passes, failures and
rejected draws; failures carry the entropy triple needed to replay them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .douglas import range_leq, reduced_solution
from .errors import (BadDims, NotComplementable, NotComplementary, NotSummable,
                     RangeNotIncluded, ShortopsError, ZeroOperator)
from .geometry import (
    Subspace,
    angles,
    oblique_projection,
    ortho_projection,
    subspace_join,
    subspace_meet,
)
from .minusorder import _in_minus_set, _minus_leq, minus_leq
from .numcore import (
    DEFAULT_TOL,
    FundamentalSubspaces,
    Tolerance,
    as_operator,
    fundamental_subspaces,
    max_opnorm,
    opnorm,
    opnorm_leq,
    pinv,
    _fro,
    _rank_rule,
    _relative,
)
from .parallel import (
    in_da,
    parallel_subtract,
    parallel_sum,
    recover_shorted,
    shorted_via_limit,
    summability,
)
from .shorting import block_decompose, complementability, shorted, solve_shorting_direction

RNG_NAME = "pcg64"

# Least principal sines in this band bracket the overlap cutoff (sin θ₁ ≈ 2
# rank_rel n, 2e-10 … 2e-9 at n <= 10), where randomized checks discard the
# float-ambiguous draws; 1 - cos θ₁ cannot, being lost to rounding < 1e-16.
_AMBIG_LO = 1e-12
_AMBIG_HI = 1e-6


@dataclass(frozen=True)
class GenConfig:
    """Knobs of the randomized suite: seed, dimension window, trial count,
    and the condition-number cap used to reject numerically hostile draws."""

    seed: int = 20240801
    dim_range: tuple[int, int] = (2, 8)
    trials: int = 500
    condition_cap: float = 1e6

    def __post_init__(self):
        lo, hi = self.dim_range
        if lo < 1 or hi < lo:
            raise ValueError(f"bad dim_range {self.dim_range}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        # a condition number is at least 1, so a smaller cap rejects every
        # draw it screens; a NaN or infinite cap cannot be written as JSON
        if not 1 <= self.condition_cap < np.inf:
            raise ValueError("condition_cap must be finite and >= 1")


@dataclass
class InvariantOutcome:
    passed: int = 0
    failed: int = 0
    skipped: int = 0


@dataclass
class SuiteReport:
    """Pass/fail/skip counts per invariant, with replay seeds for failures."""

    seed: int
    dim_range: tuple[int, int]
    trials: int
    condition_cap: float
    rng_name: str
    outcomes: dict[str, InvariantOutcome] = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)

    @property
    def total_failures(self) -> int:
        return sum(o.failed for o in self.outcomes.values())

    def to_dict(self) -> dict:
        return {
            "rng": self.rng_name,
            "seed": self.seed,
            "dim_range": list(self.dim_range),
            "trials": self.trials,
            "condition_cap": self.condition_cap,
            "invariants": {
                name: {"passed": o.passed, "failed": o.failed, "skipped": o.skipped}
                for name, o in self.outcomes.items()
            },
            "failures": self.failures,
            "total_failures": self.total_failures,
        }


def trial_rng(seed: int, invariant_index: int, trial: int) -> np.random.Generator:
    """The PCG64 stream of one suite trial; failures replay from this triple."""
    ss = np.random.SeedSequence([seed, invariant_index, trial])
    return np.random.Generator(np.random.PCG64(ss))


def gauss(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Complex standard Gaussian matrix (unit component variance)."""
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)


def gen_subspace(ambient: int, dim: int, rng: np.random.Generator) -> Subspace:
    """Random subspace of the given dimension, framed by the complete QR of a
    complex Gaussian (whose leading columns are the reduced QR's)."""
    if not 0 <= dim <= ambient:
        raise BadDims(f"cannot place a {dim}-dim subspace in C^{ambient}")
    q, _ = np.linalg.qr(gauss(rng, ambient, dim), mode="complete")
    return Subspace._framed(q, dim)


def gen_complementable(m: int, n: int, s_dim: int, t_dim: int, rank22: int,
                       rng: np.random.Generator):
    """Random (A, S, T) that is complementable by construction.

    The corner block gets the prescribed rank and the off-diagonal blocks are
    forced into its column/row spaces (A21 = A22 X, A12 = Y A22), which is
    exactly the strong complementability condition.
    """
    if not (0 <= s_dim <= n and 0 <= t_dim <= m):
        raise BadDims("subspace dimensions exceed the ambient dimensions")
    p, q = m - t_dim, n - s_dim
    if not 0 <= rank22 <= min(p, q):
        raise BadDims(f"rank22={rank22} impossible for a {p}x{q} corner")
    A22 = gauss(rng, p, rank22) @ gauss(rng, rank22, q)
    A21 = A22 @ gauss(rng, q, s_dim)
    A12 = gauss(rng, t_dim, p) @ A22
    A11 = gauss(rng, t_dim, s_dim)
    return _assemble_blocks(A11, A12, A21, A22, m, n, s_dim, t_dim, rng)


def _assemble_blocks(A11, A12, A21, A22, m, n, s_dim, t_dim, rng):
    s_frame = gen_subspace(n, n, rng).basis
    t_frame = gen_subspace(m, m, rng).basis
    blocks = np.empty((m, n), dtype=np.result_type(A11, A12, A21, A22))
    blocks[:t_dim, :s_dim], blocks[:t_dim, s_dim:] = A11, A12
    blocks[t_dim:, :s_dim], blocks[t_dim:, s_dim:] = A21, A22
    A = t_frame @ blocks @ s_frame.conj().T
    return A, Subspace._framed(s_frame, s_dim), Subspace._framed(t_frame, t_dim)


def gen_with_ranges(T: Subspace, S: Subspace, rng: np.random.Generator) -> np.ndarray:
    """Random operator with R(B) = T and R(B*) = S exactly."""
    if S.dim != T.dim:
        raise BadDims(f"range/corange dimensions differ: {T.dim} vs {S.dim}")
    G = gauss(rng, T.dim, T.dim)
    return T.basis @ G @ S.basis.conj().T


def gen_da_member(A, rng: np.random.Generator,
                  tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Random C with R(C - A) = R(A) and R((C - A)*) = R(A*).

    Built by adding random positive weights exactly on A's singular support,
    so the perturbation C - A shares A's range and corange by construction.
    """
    A = np.asarray(A, dtype=np.complex128)
    fs = fundamental_subspaces(A, tol)
    if fs.rank == 0:
        raise ZeroOperator("cannot build a range-preserving perturbation of 0")
    weights = rng.uniform(0.5, 2.0, size=fs.rank)
    return A + (fs.range_basis * weights) @ fs.Vh[:fs.rank]


# ---------------------------------------------------------------------------
# draw helpers shared by the invariants


def _dims(rng, cfg: GenConfig) -> tuple[int, int]:
    lo, hi = cfg.dim_range
    return int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1))


def _screened_norm(M, cap: float, tol: Tolerance = DEFAULT_TOL):
    """sigma_max of M if ``cond_ok(M, cap)``, else None: a matrix M takes one
    values-only SVD, the factors of one are read as they are."""
    if isinstance(M, FundamentalSubspaces):
        s, r = M.s, M.rank
    else:
        s = np.linalg.svd(np.asarray(M, dtype=np.complex128), compute_uv=False)
        r = _rank_rule(s, M.shape, s.max(initial=0.0), tol)
    return None if r and s[0] / s[r - 1] > cap else s.max(initial=0.0)


def cond_ok(M, cap: float, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Spread of the nonzero singular values stays below the cap; M is a
    matrix, or the factors of one that the caller already holds."""
    return _screened_norm(M, cap, tol) is not None


def rank_at_scale(M, scale: float, tol: Tolerance) -> int:
    """Rank of a derived quantity, thresholded at the larger of the parent
    computation's scale and M's own sigma_max, both read from one set of
    singular values: an output that is rounding noise relative to its inputs
    must be rank 0, not full rank at its own noise level."""
    s = np.linalg.svd(np.asarray(M, dtype=np.complex128), compute_uv=False)
    return _rank_rule(s, M.shape, max(scale, s.max(initial=0.0)), tol)


def draw_complementable(rng, cfg: GenConfig, tol: Tolerance):
    """Complementable (A, S, T) of random shape, or None when A's condition
    number exceeds the cap."""
    m, n = _dims(rng, cfg)
    s_dim = int(rng.integers(0, n + 1))
    t_dim = int(rng.integers(0, m + 1))
    rank22 = int(rng.integers(0, min(n - s_dim, m - t_dim) + 1))
    A, S, T = gen_complementable(m, n, s_dim, t_dim, rank22, rng)
    return (A, S, T) if cond_ok(A, cfg.condition_cap, tol) else None


def draw_complementable_matched(rng, cfg: GenConfig, tol: Tolerance):
    """Complementable triple with dim S = dim T, as the auxiliary-operator
    constructions require."""
    m, n = _dims(rng, cfg)
    dim = int(rng.integers(1, min(m, n) + 1))
    rank22 = int(rng.integers(0, min(n - dim, m - dim) + 1))
    A, S, T = gen_complementable(m, n, dim, dim, rank22, rng)
    return (A, S, T) if cond_ok(A, cfg.condition_cap, tol) else None


def draw_with_known_shorted(rng, cfg: GenConfig, tol: Tolerance,
                            n: int, m: int, s_dim: int, t_dim: int,
                            sigma_rank: int, rank22: int):
    """Complementable triple engineered so that the shorted block is a known
    matrix of prescribed rank: A11 = Sigma + Y A22 X cancels the correction."""
    p, q = m - t_dim, n - s_dim
    A22 = gauss(rng, p, rank22) @ gauss(rng, rank22, q)
    X = gauss(rng, q, s_dim)
    Y = gauss(rng, t_dim, p)
    sigma = gauss(rng, t_dim, sigma_rank) @ gauss(rng, sigma_rank, s_dim)
    A11 = sigma + Y @ (A22 @ X)
    A, S, T = _assemble_blocks(A11, Y @ A22, A22 @ X, A22, m, n, s_dim, t_dim, rng)
    return (A, S, T) if cond_ok(A, cfg.condition_cap, tol) else None


def draw_summable(rng, cfg: GenConfig, tol: Tolerance):
    """Summable pair: the summand is compressed onto the range and corange of
    a prescribed sum, which is exactly the summability condition.  Only the
    sum's condition number screens the draw; the bodies' parallel_sum decides
    summability, so a construction that misses it counts as a failure."""
    m, n = _dims(rng, cfg)
    full = rng.integers(0, 2) == 0
    r = min(m, n) if full else int(rng.integers(1, min(m, n) + 1))
    total = gauss(rng, m, r) @ gauss(rng, r, n)
    basis = fundamental_subspaces(total, tol)
    A = basis.range_basis @ gauss(rng, r, r) @ basis.corange_basis.conj().T
    return (A, total - A) if cond_ok(basis, cfg.condition_cap) else None


def _draw_inclusion_instance(rng, cfg, tol):
    """A, the factors its condition screen took, and B (in R(A) half the time)."""
    m, n = _dims(rng, cfg)
    r = int(rng.integers(0, min(m, n) + 1))
    A = gauss(rng, m, r) @ gauss(rng, r, n)
    fs = fundamental_subspaces(A, tol)
    if not cond_ok(fs, cfg.condition_cap):
        return None
    k = int(rng.integers(1, n + 1))
    included = rng.integers(0, 2) == 0
    B = A @ gauss(rng, n, k) if included else gauss(rng, m, k)
    return A, fs, B


def _random_idempotent(rng, n: int, k: int, tol: Tolerance):
    """Random oblique projection of rank k, or None for a hostile draw: one
    whose least principal sine, 1 / ||Q|| (Galántai 2004), is below _AMBIG_HI."""
    try:
        Q = oblique_projection(gen_subspace(n, k, rng), gen_subspace(n, n - k, rng), tol)
    except NotComplementary:
        return None
    return Q if opnorm_leq(Q, 1 / _AMBIG_HI) else None


def _least_sine(W1: np.ndarray, W2_perp: np.ndarray) -> float:
    """sin θ₁ between R(W1) and R(W2), sigma_min of W2_perp* W1 for a basis
    W2_perp of R(W2)⊥; 0 when the dimensions force a meet, 1 for empty W1."""
    if W1.shape[1] > W2_perp.shape[1]:
        return 0.0
    return float(np.linalg.svd(W2_perp.conj().T @ W1, compute_uv=False)[-1]) if W1.size else 1.0


def _svd_triple_subset(fs: FundamentalSubspaces, indices) -> np.ndarray:
    """Sum of the selected singular triples of a factored B (none: zero), a
    canonical minus-minorant."""
    idx = np.asarray(sorted(indices), dtype=int)
    return (fs.U[:, idx] * fs.s[idx]) @ fs.Vh[idx]


def _ambiguous_minus_angles(c: FundamentalSubspaces, d: FundamentalSubspaces) -> bool:
    """Whether the ranges or coranges of C and B - C, from their SVDs c and d
    each truncated at its own scale, meet at a float-ambiguous angle."""
    return any(_AMBIG_LO < _least_sine(X, Y) < _AMBIG_HI for X, Y in (
        (c.range_basis, d.conull_basis), (c.corange_basis, d.null_basis)))


# ---------------------------------------------------------------------------
# the registry


INVARIANTS: list = []


def _invariant(name: str, draw=None):
    """Register the decorated body as the invariant ``name``.

    ``INVARIANTS`` holds ``(name, check)`` pairs in definition order, and a
    trial's entropy is (seed, position, trial), so an invariant added
    anywhere but at the end reseeds every later one.  ``check(rng, cfg,
    tol)`` returns True, False or None (a skip).  Without a ``draw`` the
    body is the check.  With one, the check calls ``draw(rng, cfg, tol)``,
    skips when it returns None, and otherwise returns ``body(rng, tol,
    *operands)``.
    """
    def register(body):
        def check(rng, cfg, tol):
            drawn = draw(rng, cfg, tol)
            return None if drawn is None else body(rng, tol, *drawn)
        INVARIANTS.append((name, body if draw is None else check))
        return body
    return register


# ---------------------------------------------------------------------------
# geometry invariants


@_invariant("friedrichs-complement-symmetry")
def _inv_friedrichs_complement_symmetry(rng, cfg, tol):
    n = int(rng.integers(3, 11))
    M = gen_subspace(n, int(rng.integers(0, n + 1)), rng)
    N = gen_subspace(n, int(rng.integers(0, n + 1)), rng)
    f1 = angles(M, N, tol).friedrichs_cos
    f2 = angles(M.complement(), N.complement(), tol).friedrichs_cos
    return abs(f1 - f2) <= 1e-8


@_invariant("dixmier-intersection-criterion")
def _inv_dixmier_intersection_criterion(rng, cfg, tol):
    m, n = _dims(rng, cfg)
    M = gen_subspace(n, int(rng.integers(0, n + 1)), rng)
    N = gen_subspace(n, int(rng.integers(0, n + 1)), rng)
    # the Dixmier angle's sine; outside the band any threshold in it is the cutoff's verdict
    sine = _least_sine(M.basis, N.complement().basis)
    if _AMBIG_LO < sine < _AMBIG_HI:
        return None
    separated = sine >= _AMBIG_HI
    meet_trivial = subspace_meet(M, N, tol).dim == 0
    sum_full = subspace_join(M.complement(), N.complement(), tol).dim == n
    return separated == meet_trivial == sum_full


@_invariant("ortho-projection-laws")
def _inv_ortho_projection_laws(rng, cfg, tol):
    m, n = _dims(rng, cfg)
    S = gen_subspace(n, int(rng.integers(0, n + 1)), rng)
    P = ortho_projection(S)
    return (
        opnorm_leq(P - P.conj().T, tol.eq_rel)
        and opnorm_leq(P @ P - P, tol.eq_rel)
        and Subspace.range_of(P, tol).equals(S, tol)
    )


@_invariant("oblique-projection-idempotent")
def _inv_oblique_projection_idempotent(rng, cfg, tol):
    m, n = _dims(rng, cfg)
    k = int(rng.integers(0, n + 1))
    Q = _random_idempotent(rng, n, k, tol)
    if Q is None or not opnorm_leq(Q, 1e3):
        return None
    # the bound is eq_rel * max(1, ||Q||)^2, and ||Q* Q|| = ||Q||^2
    return opnorm_leq(Q @ Q - Q, tol.eq_rel, Q.conj().T @ Q)


# ---------------------------------------------------------------------------
# douglas invariants


def _lambda_exists_oracle(B, A, tol: Tolerance, lam_cap: float = 1e12) -> bool:
    """Douglas lambda test done through eigenvalues of the Gram matrix A A*."""
    G = A @ A.conj().T
    w, W = np.linalg.eigh(G)
    wmax = max(float(w[-1]), 0.0) if len(w) else 0.0
    cutoff = (tol.rank_rel * max(A.shape)) ** 2 * wmax
    null_part = W[:, w <= cutoff]
    if not opnorm_leq(null_part.conj().T @ B, tol.eq_rel, B):
        return False
    pos = w > cutoff
    if not np.any(pos):
        return True  # B vanished against an all-null Gram matrix
    lam_star = opnorm((W[:, pos].conj().T @ B) / np.sqrt(w[pos])[:, None]) ** 2
    if lam_star > lam_cap:
        return False
    lam_hat = lam_star * (1 + 1e-6) + tol.psd_slack
    certificate = np.linalg.eigvalsh(lam_hat * G - B @ B.conj().T)[0]
    return certificate >= -tol.psd_slack * (lam_hat * wmax + opnorm(B) ** 2 + 1.0)


@_invariant("douglas-equivalence", draw=_draw_inclusion_instance)
def _inv_douglas_equivalence(rng, tol, A, _, B):
    by_projection = range_leq(B, A, tol)
    by_lambda = _lambda_exists_oracle(B, A, tol)
    try:
        reduced_solution(A, B, tol)
        by_solver = True
    except RangeNotIncluded as exc:
        if exc.borderline:
            return None
        by_solver = False
    return by_projection == by_lambda == by_solver


@_invariant("reduced-solution-minimal-norm", draw=_draw_inclusion_instance)
def _inv_reduced_solution_minimal_norm(rng, tol, A, fs, _):
    B = A @ gauss(rng, A.shape[1], int(rng.integers(1, A.shape[1] + 1)))
    sol = reduced_solution(A, B, tol)
    null_basis = fs.null_basis
    if null_basis.shape[1] == 0:
        return True
    other = sol.D + null_basis @ gauss(rng, null_basis.shape[1], B.shape[1])
    return opnorm(other) >= np.sqrt(sol.norm_sq) - tol.eq_rel


@_invariant("reduced-solution-nullspace", draw=_draw_inclusion_instance)
def _inv_reduced_solution_nullspace(rng, tol, A, *_):
    k = int(rng.integers(1, A.shape[1] + 1))
    kb = int(rng.integers(0, k + 1))
    B = A @ (gauss(rng, A.shape[1], kb) @ gauss(rng, kb, k))
    sol = reduced_solution(A, B, tol)
    fs_b = fundamental_subspaces(B, tol)
    fs_d = fundamental_subspaces(sol.D, tol)
    if fs_d.rank != fs_b.rank:
        return False
    scale = max(fs_b.s[0], fs_d.s[0])
    return (
        opnorm_leq(sol.D @ fs_b.null_basis, tol.eq_rel, scale)
        and opnorm_leq(B @ fs_d.null_basis, tol.eq_rel, scale)
    )


# ---------------------------------------------------------------------------
# shorting invariants


@_invariant("collapse-complementability")
def _inv_collapse_complementability(rng, cfg, tol):
    if rng.integers(0, 2) == 0:
        drawn = draw_complementable(rng, cfg, tol)
        if drawn is None:
            return None
        A, S, T = drawn
    else:
        m, n = _dims(rng, cfg)
        A = gauss(rng, m, n)
        S = gen_subspace(n, int(rng.integers(0, n + 1)), rng)
        T = gen_subspace(m, int(rng.integers(0, m + 1)), rng)
    report = complementability(A, S, T, tol)
    # the weak notion literally, on re-factored roots of the ||A||_F-anchored corner
    blocks = block_decompose(A, S, T, tol)
    fs = fundamental_subspaces(blocks.A22, tol).at_scale(_fro(A), tol)
    weakly = (range_leq(blocks.A21, fs.root_left, tol)
              and range_leq(blocks.A12.conj().T, fs.root_right, tol))
    return weakly == report.weakly == report.strongly


@_invariant("shorted-scalar-homogeneity", draw=draw_complementable)
def _inv_shorted_scalar_homogeneity(rng, tol, A, S, T):
    alpha = complex(rng.normal(), rng.normal())
    lhs = shorted(alpha * A, S, T, tol).shorted
    rhs = alpha * shorted(A, S, T, tol).shorted
    return opnorm_leq(lhs - rhs, tol.eq_rel * max(abs(alpha), 1.0), A)


@_invariant("shorted-adjoint", draw=draw_complementable)
def _inv_shorted_adjoint(rng, tol, A, S, T):
    lhs = shorted(A.conj().T, T, S, tol).shorted
    rhs = shorted(A, S, T, tol).shorted.conj().T
    return opnorm_leq(lhs - rhs, tol.eq_rel, A)


@_invariant("shorted-idempotent-operation", draw=draw_complementable)
def _inv_shorted_idempotent_operation(rng, tol, A, S, T):
    once = shorted(A, S, T, tol).shorted
    twice = shorted(once, S, T, tol).shorted
    return opnorm_leq(twice - once, tol.eq_rel, A)


@_invariant("shorted-hermitian")
def _inv_shorted_hermitian(rng, cfg, tol):
    lo, hi = cfg.dim_range
    n = int(rng.integers(lo, hi + 1))
    s_dim = int(rng.integers(0, n + 1))
    p = n - s_dim
    rank22 = int(rng.integers(0, p + 1))
    # Hermitian instance: A22 Hermitian of prescribed rank, A12 = A21*
    C = gauss(rng, p, rank22)
    A22 = C @ C.conj().T
    X = gauss(rng, p, s_dim)
    A21 = A22 @ X
    H = gauss(rng, s_dim, s_dim)
    A11 = H + H.conj().T
    frame = gen_subspace(n, n, rng).basis
    A = frame @ np.block([[A11, A21.conj().T], [A21, A22]]) @ frame.conj().T
    S = Subspace._framed(frame, s_dim)
    if not cond_ok(A, cfg.condition_cap, tol):
        return None
    sig = shorted(A, S, S, tol).shorted
    return opnorm_leq(sig - sig.conj().T, tol.eq_rel, A)


def shorted_range_nullspace_ok(A, S, T, sig, tol) -> bool:
    """R(sig) = R(A) ∩ T and N(sig) = S⊥ + N(A), with the ranks and the
    residuals decided at A's scale, from one factorization of A and of sig."""
    fs = fundamental_subspaces(A, tol)
    norm_a = fs.s[0]
    range_meet = subspace_meet(Subspace(A.shape[0], fs.range_basis), T, tol)
    fs_sig = fundamental_subspaces(sig, tol)
    sig_rank = fs_sig.at_scale(max(norm_a, fs_sig.s[0]), tol).rank
    if sig_rank != range_meet.dim:
        return False
    if not opnorm_leq(sig - range_meet.projection @ sig, tol.eq_rel, norm_a):
        return False
    expected_null = subspace_join(S.complement(), Subspace(A.shape[1], fs.null_basis), tol)
    if A.shape[1] - sig_rank != expected_null.dim:
        return False
    return opnorm_leq(sig @ expected_null.basis, tol.eq_rel, norm_a)


@_invariant("shorted-range-nullspace", draw=draw_complementable)
def _inv_shorted_range_nullspace(rng, tol, A, S, T):
    sig = shorted(A, S, T, tol).shorted
    return shorted_range_nullspace_ok(A, S, T, sig, tol)


def shorted_qa_ap(A, res) -> float:
    """The largest of ||Q A - A P||, ||Q A - shorted|| and ||A P - shorted||
    relative to max(||A||, 1), from the public fields of ``shorted``'s
    result ``res`` on A."""
    A = as_operator(A)
    QA, AP = res.Q @ A, A @ res.P
    norm = opnorm(A)
    return max(_relative(r, norm) for r in (QA - AP, QA - res.shorted, AP - res.shorted))


@_invariant("shorted-qa-ap", draw=draw_complementable)
def _inv_shorted_qa_ap(rng, tol, A, S, T):
    return shorted_qa_ap(A, shorted(A, S, T, tol)) <= tol.eq_rel


@_invariant("iterated-shorting")
def _inv_iterated_shorting(rng, cfg, tol):
    n = int(rng.integers(4, 7))
    m = int(rng.integers(4, 7))
    s_dim = int(rng.integers((n + 1) // 2 + 1, n + 1))
    t_dim = int(rng.integers((m + 1) // 2 + 1, m + 1))
    sigma_rank = min(int(rng.integers(0, 3)), s_dim, t_dim)
    rank22 = int(rng.integers(0, min(n - s_dim, m - t_dim) + 1))
    drawn = draw_with_known_shorted(rng, cfg, tol, n, m, s_dim, t_dim, sigma_rank, rank22)
    if drawn is None:
        return None
    A, S, T = drawn
    s_hat = int(rng.integers(n - sigma_rank, n + 1))
    t_hat = int(rng.integers(m - sigma_rank, m + 1))
    S_hat = gen_subspace(n, s_hat, rng)
    T_hat = gen_subspace(m, t_hat, rng)
    try:
        first = shorted(A, S, T, tol).shorted
        lhs = shorted(first, S_hat, T_hat, tol).shorted
        rhs = shorted(A, subspace_meet(S, S_hat, tol), subspace_meet(T, T_hat, tol), tol).shorted
    except NotComplementable:
        return None
    return opnorm_leq(lhs - rhs, 1e-8, A)


@_invariant("projection-shorted")
def _inv_projection_shorted(rng, cfg, tol):
    lo, hi = cfg.dim_range
    n = int(max(2, rng.integers(lo, hi + 1)))
    k = int(rng.integers(0, n + 1))
    A = _random_idempotent(rng, n, k, tol)
    if A is None or not cond_ok(A, cfg.condition_cap, tol):
        return None
    dim = int(rng.integers(0, n + 1))
    S = gen_subspace(n, dim, rng)
    T = gen_subspace(n, dim, rng)
    try:
        sig = shorted(A, S, T, tol).shorted
    except NotComplementable:
        return None
    # the bound is 1e-8 * max(||A||, 1)^2, and ||A* A|| = ||A||^2
    if not opnorm_leq(sig @ sig - sig, 1e-8, A.conj().T @ A):
        return False
    return shorted_range_nullspace_ok(A, S, T, sig, tol)


@_invariant("psd-shorted-dominated")
def _inv_psd_shorted_dominated(rng, cfg, tol):
    lo, hi = cfg.dim_range
    n = int(rng.integers(lo, hi + 1))
    r = int(rng.integers(0, n + 1))
    G = gauss(rng, r, n)
    A = G.conj().T @ G
    norm = _screened_norm(A, cfg.condition_cap, tol)
    if norm is None:
        return None
    S = gen_subspace(n, int(rng.integers(0, n + 1)), rng)
    sig = shorted(A, S, S, tol).shorted  # positive A is always complementable
    scale = max(norm, 1.0)
    herm = 0.5 * (sig + sig.conj().T)
    if not opnorm_leq(sig - herm, tol.eq_rel, scale):
        return False
    floor = -tol.psd_slack * scale - 1e-12 * scale
    if np.linalg.eigvalsh(herm)[0] < floor:
        return False
    if np.linalg.eigvalsh(0.5 * ((A - sig) + (A - sig).conj().T))[0] < floor:
        return False
    return opnorm_leq(sig - S.projection @ sig, tol.eq_rel, scale)


@_invariant("schur-compression-identity", draw=draw_complementable)
def _inv_schur_compression_identity(rng, tol, A, S, T):
    report = complementability(A, S, T, tol)
    if report.witnesses is None:
        return None
    res = shorted(A, S, T, tol)
    w = report.witnesses
    comp_s = np.eye(A.shape[1]) - S.projection
    comp_t = np.eye(A.shape[0]) - T.projection
    residuals = [
        (A - res.shorted) - A @ w.M_r,
        (A - res.shorted) - w.M_l @ A,
        # definition identities for the witness pair
        comp_s @ w.M_r - w.M_r,
        comp_t @ (A @ w.M_r) - comp_t @ A,
        w.M_l @ comp_t - w.M_l,
        w.M_l @ (A @ comp_s) - A @ comp_s,
    ]
    rel = tol.eq_rel * max(1.0, max_opnorm([w.M_r, w.M_l]))
    return all(opnorm_leq(X, rel, A) for X in residuals)


@_invariant("shorting-direction", draw=draw_complementable)
def _inv_shorting_direction(rng, tol, A, S, T):
    if S.dim == 0:
        return None
    coeff = gauss(rng, S.dim, 1)[:, 0]
    x = S.basis @ coeff
    y = solve_shorting_direction(A, S, T, x, tol)
    sig = shorted(A, S, T, tol).shorted
    if not opnorm_leq(S.projection @ y, tol.eq_rel, y):
        return False
    return opnorm_leq(A @ (x + y) - sig @ x, tol.eq_rel * max(_fro(x), 1.0), A)


# ---------------------------------------------------------------------------
# minus-order invariants


@_invariant("minus-axioms")
def _inv_minus_axioms(rng, cfg, tol):
    m, n = _dims(rng, cfg)
    r_total = int(rng.integers(0, min(m, n) + 1))
    B = gauss(rng, m, r_total) @ gauss(rng, r_total, n)
    fs = fundamental_subspaces(B, tol)
    if not cond_ok(fs, cfg.condition_cap):
        return None
    r = fs.rank
    perm = rng.permutation(r)
    k1 = int(rng.integers(0, r + 1))
    k2 = int(rng.integers(0, k1 + 1))
    C1 = _svd_triple_subset(fs, perm[:k1])
    C2 = _svd_triple_subset(fs, perm[:k2])
    c1, c2 = fundamental_subspaces(C1, tol), fundamental_subspaces(C2, tol)

    def leq(C, c, D, d):
        """minus_leq(C, D) on the factors c and d that each operand keeps."""
        return _minus_leq(C, D, d, c, fundamental_subspaces(D - C, tol), tol)

    if not leq(B, fs, B, fs).holds:
        return False
    if not (leq(C1, c1, B, fs).holds and leq(C2, c2, C1, c1).holds
            and leq(C2, c2, B, fs).holds):
        return False
    back = leq(B, fs, C1, c1)
    if back.holds != (k1 == r):
        return False
    return not back.holds or opnorm_leq(B - C1, tol.eq_rel, B)


@_invariant("minus-range-inclusion")
def _inv_minus_range_inclusion(rng, cfg, tol):
    m, n = _dims(rng, cfg)
    B = gauss(rng, m, n)
    fs = fundamental_subspaces(B, tol)
    C = _svd_triple_subset(fs, rng.permutation(fs.rank)[: int(rng.integers(0, fs.rank + 1))])
    if not minus_leq(C, B, tol).holds:
        return False
    return range_leq(C, B, tol) and range_leq(C.conj().T, B.conj().T, tol)


@_invariant("minus-projection-inheritance")
def _inv_minus_projection_inheritance(rng, cfg, tol):
    m, n = _dims(rng, cfg)
    k = int(rng.integers(0, n + 1))
    B = _random_idempotent(rng, n, k, tol)
    if B is None or not opnorm_leq(B, 1e2):
        return None
    fs = fundamental_subspaces(B, tol)
    C = _svd_triple_subset(fs, rng.permutation(fs.rank)[: int(rng.integers(0, fs.rank + 1))])
    if not minus_leq(C, B, tol).holds:
        return False
    return opnorm_leq(C @ C - C, 1e-8)


@_invariant("minus-route-agreement")
def _inv_minus_route_agreement(rng, cfg, tol):
    m, n = _dims(rng, cfg)
    mode = int(rng.integers(0, 3))
    if mode == 0:
        B = gauss(rng, m, n)
        fs = fundamental_subspaces(B, tol)
        C = _svd_triple_subset(fs, rng.permutation(fs.rank)[: int(rng.integers(0, fs.rank + 1))])
    elif mode == 1:
        B = gauss(rng, m, n)
        C = gauss(rng, m, n)
    else:
        B = gauss(rng, m, n)
        C = 0.5 * B
    c = fundamental_subspaces(C, tol)
    d = fundamental_subspaces(B - C, tol)
    if _ambiguous_minus_angles(c, d):
        return None
    v = _minus_leq(C, B, fundamental_subspaces(B, tol), c, d, tol)
    return v.rank_route == v.projection_route


@_invariant("mitra-maximality", draw=draw_complementable)
def _inv_mitra_maximality(rng, tol, A, S, T):
    sig = shorted(A, S, T, tol).shorted
    # A and the shorted matrix are factored once for every comparison
    a = fundamental_subspaces(A, tol)
    fs = fundamental_subspaces(sig, tol)
    if not _in_minus_set(sig, A, S, T, (a, fs), tol):
        return False
    r = fs.at_scale(max(a.s[0], fs.s[0]), tol).rank
    if r == 0:
        return True  # the minorant set degenerates to {0}; membership was the test
    for _ in range(4):
        if rng.integers(0, 2) == 0 and r > 0:
            J = rng.permutation(r)[: int(rng.integers(0, r + 1))]
            E = fs.U[:, sorted(J)] @ fs.U[:, sorted(J)].conj().T
        else:
            E = _random_idempotent(rng, A.shape[0], int(rng.integers(0, A.shape[0] + 1)), tol)
            if E is None:
                continue
        C = E @ sig
        c = fundamental_subspaces(C, tol)
        if not _in_minus_set(C, A, S, T, (a, c), tol):
            continue  # rejection sampling: candidate outside the set
        v = _minus_leq(C, sig, fs, c, fundamental_subspaces(sig - C, tol), tol)
        if not (v.holds and v.rank_route and v.projection_route):
            return False
    return True


# ---------------------------------------------------------------------------
# parallel invariants


@_invariant("parallel-commutativity", draw=draw_summable)
def _inv_parallel_commutativity(rng, tol, A, B):
    lhs = parallel_sum(A, B, tol).sum
    rhs = parallel_sum(B, A, tol).sum
    return opnorm_leq(lhs - rhs, tol.eq_rel, max_opnorm([A, B]))


@_invariant("parallel-route-agreement", draw=draw_summable)
def _inv_parallel_route_agreement(rng, tol, A, B):
    # the sum against A (A+B)^+ B and the arguments-swapped B - B (A+B)^+ B
    total_pinv = pinv(A + B, tol)
    block = parallel_sum(A, B, tol).sum
    reduced, swapped = A @ total_pinv @ B, B - B @ total_pinv @ B
    bound = 10 * tol.eq_rel * max_opnorm([A, B])
    return all(opnorm_leq(gap, bound) for gap in (block - reduced, block - swapped,
                                                  reduced - swapped))


@_invariant("parallel-rank-intersection", draw=draw_summable)
def _inv_parallel_rank_intersection(rng, tol, A, B):
    res = parallel_sum(A, B, tol)
    meet = subspace_meet(Subspace.range_of(A, tol), Subspace.range_of(B, tol), tol)
    return rank_at_scale(res.sum, max_opnorm([A, B]), tol) == meet.dim


@_invariant("parallel-subtract-round-trip")
def _inv_parallel_subtract_round_trip(rng, cfg, tol):
    m, n = _dims(rng, cfg)
    r = int(rng.integers(1, min(m, n) + 1))
    A = gauss(rng, m, r) @ gauss(rng, r, n)
    if not cond_ok(A, cfg.condition_cap, tol):
        return None
    C = gen_da_member(A, rng, tol)
    if not cond_ok(C - A, cfg.condition_cap, tol):
        return None
    D = parallel_subtract(C, A, tol)
    if not in_da(D, -A, tol):
        return False
    E = parallel_sum(D, A, tol).sum
    if not opnorm_leq(E - C, 1e-8, C):
        return False
    # reverse direction of the bijection; E outside D_A raises NotInDA
    return opnorm_leq(parallel_subtract(E, A, tol) - D, 1e-8, D)


@_invariant("shorted-parallel-exchange", draw=draw_complementable_matched)
def _inv_shorted_parallel_exchange(rng, tol, A, S, T):
    B = float(2 ** rng.integers(0, 5)) * gen_with_ranges(T, S, rng)
    sig = shorted(A, S, T, tol).shorted
    try:
        blend = parallel_sum(A, B, tol).sum
        lhs = parallel_sum(sig, B, tol).sum
        rhs = shorted(blend, S, T, tol).shorted
    except (NotSummable, NotComplementable):
        return None
    return opnorm_leq(lhs - rhs, 1e-8, max_opnorm([A, B]))


@_invariant("limit-convergence", draw=draw_complementable_matched)
def _inv_limit_convergence(rng, tol, A, S, T):
    B = gen_with_ranges(T, S, rng)
    if not cond_ok(B, 1e4, tol):
        return None
    record = shorted_via_limit(A, S, T, B, tol=tol)
    if not all(np.isfinite(e) for e in record.errors):
        return False
    if record.errors[-1] < 1e-13 * max(opnorm(A), 1.0):
        return None  # already at the rounding floor; no slope to fit
    if record.errors[-1] > min(record.errors) * (1 + 1e-9):
        return False
    tail = record.errors[-4:]
    if any(tail[i + 1] > tail[i] * (1 + 1e-6) for i in range(len(tail) - 1)):
        return False
    return record.fitted_slope <= -0.9


@_invariant("strong-sum-direction", draw=draw_summable)
def _inv_strong_sum_direction(rng, tol, A, B):
    res = parallel_sum(A, B, tol).sum
    stacked = np.vstack([A, B])
    # column i solves [A; B] y = [(res - A) e_i; -res e_i]: all in one lstsq,
    # one verdict per column
    rhs = np.vstack([res - A, -res])
    y, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
    columns = (stacked @ y - rhs).T[:, :, None]
    return bool(opnorm_leq(columns, tol.eq_rel, max_opnorm([A, B])).all())


@_invariant("collapse-summability")
def _inv_weak_strong_collapse_summability(rng, cfg, tol):
    m, n = _dims(rng, cfg)
    mode = int(rng.integers(0, 3))
    if mode == 0:
        A, B = gauss(rng, m, n), gauss(rng, m, n)
    elif mode == 1:
        drawn = draw_summable(rng, cfg, tol)
        if drawn is None:
            return None
        A, B = drawn
    else:
        r = int(rng.integers(0, min(m, n) + 1))
        total = gauss(rng, m, r) @ gauss(rng, r, n)
        A = gauss(rng, m, n)
        B = total - A  # sum is rank-deficient; A generically pokes out of it
    report = summability(A, B, tol)
    # the weak notion literally, on re-factored roots of A + B
    fs = fundamental_subspaces(A + B, tol)
    weakly = range_leq(A, fs.root_left, tol) and range_leq(A.conj().T, fs.root_right, tol)
    return weakly == report.weakly == report.strongly


@_invariant("recover-shorted-identity", draw=draw_complementable_matched)
def _inv_recover_shorted_identity(rng, tol, A, S, T):
    L = gen_with_ranges(T, S, rng)
    if not cond_ok(L, 1e4, tol):
        return None
    recovered = recover_shorted(A, S, T, L, 4, tol)
    sig = shorted(A, S, T, tol).shorted
    return opnorm_leq(recovered - sig, 1e-7, A)


# ---------------------------------------------------------------------------
# generator soundness


@_invariant("generator-soundness")
def _inv_generator_soundness(rng, cfg, tol):
    lo, hi = cfg.dim_range
    n = int(rng.integers(lo, hi + 1))
    m = int(rng.integers(lo, hi + 1))
    sub = gen_subspace(n, int(rng.integers(0, n + 1)), rng)
    gram = sub.basis.conj().T @ sub.basis
    if not opnorm_leq(gram - np.eye(sub.dim), tol.eq_rel):
        return False
    drawn = draw_complementable(rng, cfg, tol)
    if drawn is None:
        return None
    A, S, T = drawn
    if not complementability(A, S, T, tol).strongly:
        return False
    d = int(rng.integers(1, min(m, n) + 1))
    Tq = gen_subspace(m, d, rng)
    Sq = gen_subspace(n, d, rng)
    Bq = gen_with_ranges(Tq, Sq, rng)
    if not (Subspace.range_of(Bq, tol).equals(Tq, tol)
            and Subspace.range_of(Bq.conj().T, tol).equals(Sq, tol)):
        return False
    M = gauss(rng, m, n)
    return in_da(gen_da_member(M, rng, tol), M, tol)


def run_suite(config: GenConfig, tol: Tolerance = DEFAULT_TOL) -> SuiteReport:
    """Run every invariant ``config.trials`` times; deterministic given the seed.

    Draws rejected by the condition cap or by unmet preconditions count as
    skips, so vacuously green invariants remain visible.  Each trial has its
    own seed derived from (seed, invariant index, trial index), the index
    being the invariant's position in ``INVARIANTS``, so trials are order
    independent.
    """
    report = SuiteReport(
        seed=config.seed,
        dim_range=config.dim_range,
        trials=config.trials,
        condition_cap=config.condition_cap,
        rng_name=RNG_NAME,
    )
    for index, (name, fn) in enumerate(INVARIANTS):
        outcome = InvariantOutcome()
        for trial in range(config.trials):
            rng = trial_rng(config.seed, index, trial)
            try:
                verdict = fn(rng, config, tol)
            except RangeNotIncluded as exc:
                verdict = None if exc.borderline else False
            except ShortopsError:
                verdict = False
            if verdict is None:
                outcome.skipped += 1
            elif verdict:
                outcome.passed += 1
            else:
                outcome.failed += 1
                report.failures.append(
                    {"invariant": name, "trial": trial,
                     "entropy": [config.seed, index, trial]}
                )
        report.outcomes[name] = outcome
    return report
