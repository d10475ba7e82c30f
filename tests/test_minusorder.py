import numpy as np
import pytest

from shortops import (
    DimensionMismatch,
    Subspace,
    fundamental_subspaces,
    in_minus_set,
    minus_leq,
    opnorm,
    shorted,
    subspace_join,
    subspace_meet,
)
from shortops.genlab import gauss, gen_complementable, trial_rng
from shortops.geometry import _split_along
from shortops.numcore import DEFAULT_TOL


def test_minus_leq_examples():
    v = minus_leq(np.diag([1.0, 0.0, 0.0]), np.diag([1.0, 1.0, 0.0]))
    assert v.holds and v.rank_route and v.projection_route

    v = minus_leq([[1.0]], [[2.0]])
    assert not v.holds and not v.rank_route

    B = np.random.default_rng(0).standard_normal((3, 4))
    v = minus_leq(B, B)
    assert v.holds
    assert np.allclose(v.Q @ B, B)
    assert np.allclose(B @ v.P, B)

    with pytest.raises(DimensionMismatch):
        minus_leq(np.eye(2), np.eye(3))


def test_minus_leq_witness_factorizations():
    rng = trial_rng(31, 0, 0)
    for _ in range(50):
        m, n = [int(v) for v in rng.integers(2, 7, size=2)]
        B = gauss(rng, m, n)
        U, s, Vh = np.linalg.svd(B)
        r = int(np.sum(s > 1e-10 * max(m, n) * s[0]))
        k = int(rng.integers(0, r + 1))
        keep = sorted(rng.permutation(r)[:k])
        C = (U[:, keep] * s[keep]) @ Vh[keep]
        v = minus_leq(C, B)
        assert v.holds
        assert opnorm(v.Q @ B - C) <= 1e-9 * max(opnorm(B), 1.0)
        assert opnorm(B @ v.P - C) <= 1e-9 * max(opnorm(B), 1.0)


def test_minus_leq_zero_and_strict_cases():
    B = np.array([[3.0, 0.0], [0.0, 1.0]])
    assert minus_leq(np.zeros((2, 2)), B).holds
    v = minus_leq(np.zeros((3, 2)), np.zeros((3, 2)))
    assert v.holds and v.rank_route and v.projection_route
    assert np.array_equal(v.Q, np.zeros((3, 3))) and np.array_equal(v.P, np.zeros((2, 2)))
    for shape in ((1, 1), (4, 4), (2, 5)):
        v = minus_leq(np.zeros(shape), np.zeros(shape))
        assert v.holds and v.rank_route and v.projection_route
    assert minus_leq(B, B).holds
    # a scalar multiple strictly between 0 and B fails rank additivity
    assert not minus_leq(0.5 * B, B).holds


def test_in_minus_set_examples():
    A = np.array([[2.0, 1.0], [1.0, 1.0]])
    S = T = Subspace(2, np.eye(2, dtype=np.complex128)[:, :1])
    sig = shorted(A, S, T).shorted
    assert in_minus_set(sig, A, S, T)
    # A itself has range outside T
    assert not in_minus_set(A, A, S, T)
    assert in_minus_set(np.zeros((2, 2)), A, S, T)


def test_in_minus_set_on_generated_triples():
    rng = trial_rng(17, 1, 0)
    for _ in range(30):
        m, n = [int(v) for v in rng.integers(2, 7, size=2)]
        s_dim = int(rng.integers(0, n + 1))
        t_dim = int(rng.integers(0, m + 1))
        r22 = int(rng.integers(0, min(n - s_dim, m - t_dim) + 1))
        A, S, T = gen_complementable(m, n, s_dim, t_dim, r22, rng)
        sig = shorted(A, S, T).shorted
        assert in_minus_set(sig, A, S, T)


def test_route_agreement_on_mixed_pairs():
    rng = trial_rng(53, 2, 0)
    for _ in range(100):
        m, n = [int(v) for v in rng.integers(2, 7, size=2)]
        B = gauss(rng, m, n)
        mode = int(rng.integers(0, 2))
        C = gauss(rng, m, n) if mode else 0.5 * B
        v = minus_leq(C, B)
        assert v.rank_route == v.projection_route


def _frame_inverse_projection(W1, W2, tol):
    """Reference splitting projection through the subspace API: the meet,
    the complement of the join, and the inverse of the frame [W1 W2 rest]."""
    n = W1.shape[0]
    R1, R2 = Subspace(n, W1), Subspace(n, W2)
    if subspace_meet(R1, R2, tol).dim:
        return None
    rest = subspace_join(R1, R2, tol).complement()
    frame = np.hstack([W1, W2, rest.basis])
    if frame.shape[1] != n:
        return None
    return W1 @ np.linalg.inv(frame)[:W1.shape[1]]


def test_split_matches_frame_inverse_construction():
    rng = trial_rng(61, 0, 0)
    tol = DEFAULT_TOL
    split = holds = 0
    for trial in range(240):
        m, n = [int(v) for v in rng.integers(2, 7, size=2)]
        B = gauss(rng, m, n)
        if trial % 4 == 3:
            B = gauss(rng, m, 2) @ gauss(rng, 2, n)
        mode = trial % 3
        if mode == 0:
            U, s, Vh = np.linalg.svd(B)
            keep = [i for i in range(len(s)) if s[i] > 1e-8 * s[0] and rng.integers(0, 2)]
            C = (U[:, keep] * s[keep]) @ Vh[keep]
        else:
            C = gauss(rng, m, 1) @ gauss(rng, 1, n) if mode == 1 else 0.5 * B
        scale = max(np.linalg.svd(B, compute_uv=False)[0], np.linalg.svd(C, compute_uv=False)[0])
        c = fundamental_subspaces(C).at_scale(scale, tol)
        d = fundamental_subspaces(B - C).at_scale(scale, tol)
        refs = []
        for W1, W2, W2_perp in ((c.range_basis, d.range_basis, d.conull_basis),
                                (c.corange_basis, d.corange_basis, d.null_basis)):
            got = _split_along(W1, W2_perp, tol)
            want = _frame_inverse_projection(W1, W2, tol)
            assert (got is None) == (want is None)
            if want is not None:
                split += 1
                assert opnorm(got - want) <= 1e-9 * max(opnorm(want), 1.0)
            refs.append(want)
        v = minus_leq(C, B)
        if v.projection_route:
            holds += 1
            assert opnorm(v.Q - refs[0]) <= 1e-9 * max(opnorm(refs[0]), 1.0)
            assert opnorm(v.P - refs[1].conj().T) <= 1e-9 * max(opnorm(refs[1]), 1.0)
    assert holds >= 60 and split > 2 * holds


def _unitary(rng, n):
    return np.linalg.qr(gauss(rng, n, n))[0]


def _nearly_meeting_ranges(rng, n, theta):
    """Rank-one C and D in C^(n x n) with generic coranges and ranges theta
    apart: R(C) ∩ R(D) = {0}, so C ≤⁻ C + D."""
    F, G = _unitary(rng, n), _unitary(rng, n)
    C = F[:, :1] @ G[:, :1].conj().T
    D = (np.cos(theta) * F[:, :1] + np.sin(theta) * F[:, 1:2]) @ G[:, 1:2].conj().T
    return C, D


@pytest.mark.parametrize("theta", [1e-7, 1e-6, 1e-5])
def test_minus_splits_follow_the_meet_when_ranges_nearly_meet(theta):
    # 1 - cos θ <= eq_rel, which the splits once read as an overlap; the
    # meet's cutoff (θ ≈ 2e-10 n) lies far below, so both splits exist
    rng = trial_rng(20, 1, 0)
    for _ in range(40):
        C, D = _nearly_meeting_ranges(rng, int(rng.integers(2, 7)), theta)
        c, d = fundamental_subspaces(C), fundamental_subspaces(D)
        assert minus_leq(C, C + D).rank_route
        assert _split_along(c.range_basis, d.conull_basis, DEFAULT_TOL) is not None
        assert _split_along(c.corange_basis, d.null_basis, DEFAULT_TOL) is not None


@pytest.mark.parametrize("theta", [
    pytest.param(1e-7, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "two causes: the projection route tests Q B - C against "
        "eq_rel max(||B||, ||C||), while its rounding is about eps ||Q|| ||B|| "
        "with ||Q|| = 1/sin θ; and its inclusion C ⊆ R(B), on both sides "
        "(douglas._gate), tests against eq_rel ||C||, while B's bases carry "
        "rounding of about eps ||B|| / σ_r(B), so 2 of the 40 draws fail there "
        "even with the first threshold scaled by ||Q||"))),
    1e-6, 1e-5])
def test_minus_routes_agree_when_ranges_nearly_meet(theta):
    rng = trial_rng(20, 2, 0)
    for _ in range(40):
        C, D = _nearly_meeting_ranges(rng, int(rng.integers(2, 7)), theta)
        v = minus_leq(C, C + D)
        assert v.rank_route and v.projection_route and v.holds


def _minus_draw(rng, trial):
    """A pair (C, B), rectangular on most trials, with B of random rank on
    every third and scaled by 1e-3 ... 1e3: C a subset of B's singular
    triples, 0, B itself (all below B), 0.5 B or a rank-one C (neither,
    unless B = 0)."""
    m, n = (int(v) for v in rng.integers(1, 7, size=2))
    r = min(m, n) if trial % 3 else int(rng.integers(0, min(m, n) + 1))
    B = 10.0 ** rng.uniform(-3, 3) * gauss(rng, m, r) @ gauss(rng, r, n)
    mode = trial % 5
    if mode == 0:
        U, s, Vh = np.linalg.svd(B)
        keep = [i for i in range(r) if rng.integers(0, 2)]
        return (U[:, keep] * s[keep]) @ Vh[keep], B
    if mode == 1:
        return np.zeros_like(B), B
    if mode == 2:
        return B.copy(), B
    if mode == 3:
        return 0.5 * B, B
    return opnorm(B) * gauss(rng, m, 1) @ gauss(rng, 1, n), B


def _same_verdicts(v, w):
    return (v.holds, v.rank_route, v.projection_route) == (w.holds, w.rank_route,
                                                           w.projection_route)


def test_minus_leq_is_frame_and_adjoint_invariant():
    rng = trial_rng(16, 0, 0)
    holds = 0
    for trial in range(400):
        C, B = _minus_draw(rng, trial)
        X, Y = _unitary(rng, B.shape[0]), _unitary(rng, B.shape[1])
        v = minus_leq(C, B)
        framed = minus_leq(X @ C @ Y.conj().T, X @ B @ Y.conj().T)
        adjoint = minus_leq(C.conj().T, B.conj().T)
        assert _same_verdicts(v, framed) and _same_verdicts(v, adjoint), trial
        if not v.projection_route:
            continue
        holds += v.holds
        q_bound, p_bound = (1e-10 * max(opnorm(W), 1.0) for W in (v.Q, v.P))
        assert opnorm(framed.Q - X @ v.Q @ X.conj().T) <= q_bound
        assert opnorm(framed.P - Y @ v.P @ Y.conj().T) <= p_bound
        assert opnorm(adjoint.Q - v.P.conj().T) <= p_bound
        assert opnorm(adjoint.P - v.Q.conj().T) <= q_bound
    assert holds >= 200


def test_in_minus_set_dimension_errors():
    A = np.diag([1.0, 2.0, 3.0])
    S = Subspace(3, np.eye(3)[:, :1])
    with pytest.raises(DimensionMismatch, match="subspace ambient dimensions do not match C"):
        in_minus_set(np.zeros((3, 3)), A, S, Subspace(2, np.eye(2)[:, :1]))
    with pytest.raises(DimensionMismatch, match="subspace ambient dimensions do not match C"):
        in_minus_set(np.zeros((3, 3)), A, Subspace(2, np.eye(2)[:, :1]), S)
    with pytest.raises(DimensionMismatch, match="shapes differ"):
        in_minus_set(np.zeros((2, 2)), A, S, S)
