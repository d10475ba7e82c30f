import numpy as np
import pytest

from shortops import (
    DimensionMismatch,
    NotComplementable,
    Subspace,
    block_decompose,
    complementability,
    opnorm,
    schur_compression,
    shorted,
    solve_shorting_direction,
)
from shortops.genlab import gen_complementable, trial_rng
from shortops.shorting import shorted_matrix


def e1_subspace(n):
    return Subspace(n, np.eye(n, dtype=np.complex128)[:, :1])


def test_block_decompose_examples():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    S = T = e1_subspace(2)
    blocks = block_decompose(A, S, T)
    assert np.allclose(blocks.A11, [[1.0]])
    assert np.allclose(blocks.A12, [[2.0]])
    assert np.allclose(blocks.A21, [[3.0]])
    assert np.allclose(blocks.A22, [[4.0]])
    assert np.allclose(blocks.reassemble(), A)

    full = block_decompose(A, Subspace.full(2), Subspace.full(2))
    assert np.allclose(full.A11, A)
    assert full.A12.shape == (2, 0)
    assert full.A22.shape == (0, 0)

    ident = block_decompose(np.eye(2), S, T)
    assert np.allclose(ident.A11, [[1.0]])
    assert np.allclose(ident.A12, [[0.0]])
    assert np.allclose(ident.A21, [[0.0]])
    assert np.allclose(ident.A22, [[1.0]])

    with pytest.raises(DimensionMismatch):
        block_decompose(A, Subspace.full(3), T)


def test_block_reassembly_random():
    rng = trial_rng(99, 0, 0)
    from shortops.genlab import gauss, gen_subspace

    for _ in range(50):
        m, n = rng.integers(1, 8, size=2)
        A = gauss(rng, int(m), int(n))
        S = gen_subspace(int(n), int(rng.integers(0, n + 1)), rng)
        T = gen_subspace(int(m), int(rng.integers(0, m + 1)), rng)
        blocks = block_decompose(A, S, T)
        assert opnorm(blocks.reassemble() - A) <= 1e-9 * max(opnorm(A), 1.0)


def test_complementability_examples():
    S = T = e1_subspace(2)
    assert not complementability([[1.0, 1.0], [1.0, 0.0]], S, T).strongly
    report = complementability([[2.0, 1.0], [1.0, 1.0]], S, T)
    assert report.strongly and report.weakly
    assert report.witnesses is not None

    # A12* outside R(A22*): rank of [A22* | A12*] exceeds rank of A22*
    A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    S3 = Subspace(3, np.eye(3, dtype=np.complex128)[:, :1])
    T2 = e1_subspace(2)
    report = complementability(A, S3, T2)
    assert not report.strongly
    assert not report.weakly


def test_complementability_witness_identities():
    A = np.array([[2.0, 1.0], [1.0, 1.0]])
    S = T = e1_subspace(2)
    w = complementability(A, S, T).witnesses
    P_s = S.projection
    n = 2
    # defining identities of the witness pair, with orthogonal projections
    assert np.allclose((np.eye(n) - P_s) @ w.M_r, w.M_r)
    assert np.allclose((np.eye(n) - T.projection) @ A @ w.M_r,
                       (np.eye(n) - T.projection) @ A)
    assert np.allclose(w.M_l @ (np.eye(n) - T.projection), w.M_l)
    assert np.allclose(w.M_l @ A @ (np.eye(n) - P_s), A @ (np.eye(n) - P_s))
    # both compressions agree with A minus the shorted part
    sigma = shorted(A, S, T).shorted
    assert np.allclose(A @ w.M_r, A - sigma)
    assert np.allclose(w.M_l @ A, A - sigma)


def test_shorted_worked_example():
    A = np.array([[2.0, 1.0], [1.0, 1.0]])
    S = T = e1_subspace(2)
    res = shorted(A, S, T)
    assert np.allclose(res.shorted, [[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(res.P, [[1.0, 0.0], [-1.0, 0.0]])
    assert np.allclose(A @ res.P, [[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(res.Q @ A, res.shorted)
    assert res.diagnostics.qa_ap_gap <= 1e-9
    assert res.diagnostics.route_disagreement <= 1e-8


def test_shorted_degenerate_subspaces():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 4))
    full_S, full_T = Subspace.full(4), Subspace.full(3)
    assert np.allclose(shorted(A, full_S, full_T).shorted, A)

    assert np.allclose(shorted(A, Subspace.trivial(4), Subspace.trivial(3)).shorted, 0.0)

    res = shorted(np.eye(2), e1_subspace(2), e1_subspace(2))
    assert np.allclose(res.shorted, np.diag([1.0, 0.0]))


def test_shorted_matrix_agrees_with_full_result():
    rng = trial_rng(123, 1, 0)
    for _ in range(20):
        m, n = [int(v) for v in rng.integers(2, 7, size=2)]
        s_dim = int(rng.integers(0, n + 1))
        t_dim = int(rng.integers(0, m + 1))
        r22 = int(rng.integers(0, min(n - s_dim, m - t_dim) + 1))
        A, S, T = gen_complementable(m, n, s_dim, t_dim, r22, rng)
        assert np.allclose(shorted_matrix(A, S, T), shorted(A, S, T).shorted)


def _random_unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def test_zero_corner_not_complementable_in_any_frame():
    # A22 = 0 while A21 != 0: R(A21) is not inside R(A22) = {0}.  In a
    # random frame the corner is rounding noise, which must count as rank 0.
    A0 = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    e1 = np.eye(3)[:, :1]
    rng = np.random.default_rng(0)
    frames = [(np.eye(3), np.eye(3))] + [
        (_random_unitary(rng, 3), _random_unitary(rng, 3)) for _ in range(20)
    ]
    for U, V in frames:
        A = U @ A0 @ V.conj().T
        S, T = Subspace(3, V @ e1), Subspace(3, U @ e1)
        report = complementability(A, S, T)
        assert not report.weakly and not report.strongly
        with pytest.raises(NotComplementable):
            shorted(A, S, T)


def test_not_complementable_error_carries_report():
    S = T = e1_subspace(2)
    with pytest.raises(NotComplementable) as info:
        shorted([[1.0, 1.0], [1.0, 0.0]], S, T)
    assert info.value.report.weakly is False
    assert info.value.report.strongly is False
    assert len(info.value.report.angle_check) == 2


def test_schur_compression_examples():
    S = T = e1_subspace(2)
    comp = schur_compression([[2.0, 1.0], [1.0, 1.0]], S, T)
    assert np.allclose(comp, [[1.0, 1.0], [1.0, 1.0]])
    A = np.random.default_rng(0).standard_normal((2, 2))
    assert np.allclose(schur_compression(A, Subspace.full(2), Subspace.full(2)), 0.0)
    assert np.allclose(
        schur_compression(np.diag([1.0, 1.0]), S, T), np.diag([0.0, 1.0])
    )


def test_solve_shorting_direction():
    A = np.array([[2.0, 1.0], [1.0, 1.0]])
    S = T = e1_subspace(2)
    x = np.array([1.0, 0.0])
    y = solve_shorting_direction(A, S, T, x)
    assert np.allclose(y, [0.0, -1.0])
    assert np.allclose(A @ (x + y), [1.0, 0.0])

    # diagonal operator: blocks decouple, no correction needed
    y = solve_shorting_direction(np.diag([2.0, 3.0]), S, T, x)
    assert np.allclose(y, 0.0)

    y = solve_shorting_direction(A, S, T, np.zeros(2))
    assert np.allclose(y, 0.0)

    with pytest.raises(ValueError):
        solve_shorting_direction(A, S, T, np.array([0.0, 1.0]))


def test_shorted_basic_algebra_random():
    rng = trial_rng(7, 2, 0)
    for _ in range(30):
        m, n = [int(v) for v in rng.integers(2, 7, size=2)]
        s_dim = int(rng.integers(0, n + 1))
        t_dim = int(rng.integers(0, m + 1))
        r22 = int(rng.integers(0, min(n - s_dim, m - t_dim) + 1))
        A, S, T = gen_complementable(m, n, s_dim, t_dim, r22, rng)
        sig = shorted(A, S, T).shorted
        scale = max(opnorm(A), 1.0)
        # supported on T x S
        assert opnorm(sig - T.projection @ sig) <= 1e-9 * scale
        assert opnorm(sig - sig @ S.projection) <= 1e-9 * scale
        # homogeneity and adjoint symmetry
        assert opnorm(shorted(2j * A, S, T).shorted - 2j * sig) <= 1e-9 * scale
        assert opnorm(
            shorted(A.conj().T, T, S).shorted - sig.conj().T
        ) <= 1e-9 * scale
