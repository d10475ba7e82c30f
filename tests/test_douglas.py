import numpy as np
import pytest

from shortops import (
    DimensionMismatch,
    RangeNotIncluded,
    fundamental_subspaces,
    opnorm,
    range_leq,
    range_residual,
    reduced_solution,
)


def test_range_leq_examples():
    assert range_leq(np.array([[1.0], [0.0]]), np.diag([1.0, 0.0]))
    assert not range_leq(np.array([[0.0], [1.0]]), np.diag([1.0, 0.0]))
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 4))
    assert range_leq(A, A)
    with pytest.raises(DimensionMismatch):
        range_leq(np.eye(3), np.eye(2))


def test_reduced_solution_examples():
    sol = reduced_solution(np.diag([1.0, 0.0]), np.array([[1.0], [0.0]]))
    assert np.allclose(sol.D, [[1.0], [0.0]])

    sol = reduced_solution([[2.0]], [[1.0]])
    assert np.allclose(sol.D, [[0.5]])
    assert sol.norm_sq == pytest.approx(0.25)

    # reduced solution must be orthogonal to N(A) = span{(1,-1)}
    A = np.array([[1.0, 1.0], [0.0, 0.0]])
    B = np.array([[2.0], [0.0]])
    sol = reduced_solution(A, B)
    assert np.allclose(sol.D, [[1.0], [1.0]])
    assert np.allclose(A @ sol.D, B)
    assert abs(np.vdot([1.0, -1.0], sol.D[:, 0])) <= 1e-12
    assert sol.residual <= 1e-9
    assert sol.corange_defect <= 1e-9


def test_reduced_solution_raises_with_residual():
    A = np.diag([1.0, 0.0])
    B = np.array([[0.0], [1.0]])
    with pytest.raises(RangeNotIncluded) as info:
        reduced_solution(A, B)
    assert info.value.residual > 0.1
    assert not info.value.borderline


def test_norm_sq_is_least_lambda():
    # lambda* makes lambda A A* - B B* barely PSD
    rng = np.random.default_rng(8)
    for _ in range(50):
        m, n, k = rng.integers(1, 6, size=3)
        A = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        B = A @ (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
        sol = reduced_solution(A, B)
        lam = sol.norm_sq
        gram = lam * (A @ A.conj().T) - B @ B.conj().T
        evals = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
        scale = max(opnorm(gram), 1.0)
        assert evals.min() >= -1e-9 * scale
        # any smaller lambda loses positivity
        if lam > 1e-9:
            gram = 0.9 * lam * (A @ A.conj().T) - B @ B.conj().T
            evals = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
            assert evals.min() < -1e-12 * scale


def test_minimal_norm_among_solutions():
    rng = np.random.default_rng(13)
    for _ in range(100):
        m, n = rng.integers(2, 7, size=2)
        r = int(rng.integers(1, min(m, n) + 1))
        A = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        B = A @ rng.standard_normal((n, 2))
        sol = reduced_solution(A, B)
        # add a nullspace component and check the norm can only grow
        _, _, Vh = np.linalg.svd(A)
        null = Vh[r:].conj().T
        if null.shape[1] == 0:
            continue
        other = sol.D + null @ rng.standard_normal((null.shape[1], 2))
        assert opnorm(other) >= np.sqrt(sol.norm_sq) - 1e-9


def test_nullspace_of_solution_matches_rhs():
    rng = np.random.default_rng(29)
    for _ in range(100):
        m, n = rng.integers(2, 7, size=2)
        A = rng.standard_normal((m, n))
        k = int(rng.integers(1, 5))
        kb = int(rng.integers(0, k + 1))
        B = A @ (rng.standard_normal((n, kb)) @ rng.standard_normal((kb, k)))
        sol = reduced_solution(A, B)
        assert np.linalg.matrix_rank(sol.D) == np.linalg.matrix_rank(B)


def test_borderline_flag_set_near_threshold():
    err = RangeNotIncluded(5e-9, borderline=True)
    assert err.borderline
    assert "5" in str(err)


def test_range_leq_full_row_rank_and_zero_edges():
    rng = np.random.default_rng(16)
    for m, n in ((3, 3), (3, 5), (1, 4)):
        A = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        # A has full row rank: R(A) is everything, its complement is empty
        assert fundamental_subspaces(A).conull_basis.shape == (m, 0)
        for scale in (1e-6, 1.0, 1e6):
            B = scale * (rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2)))
            assert range_leq(B, A)
            assert range_residual(B, A) == 0.0
        Z = np.zeros((m, n))
        B = rng.standard_normal((m, 2))
        assert not range_leq(B, Z)
        assert range_leq(np.zeros((m, 2)), Z)
        assert range_leq(np.zeros((m, 2)), A)
