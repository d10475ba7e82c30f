import numpy as np
import pytest

from shortops import (
    DEFAULT_TOL,
    DimensionMismatch,
    RangeNotIncluded,
    Subspace,
    douglas,
    fundamental_subspaces,
    opnorm,
    parallel,
    parallel_sum,
    range_leq,
    range_residual,
    reduced_solution,
    shorted_via_limit,
)
from shortops.douglas import _gate, _in_span
from shortops.genlab import gauss
from shortops.numcore import _spectrum, opnorm_leq


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
    null = fundamental_subspaces(A).null_basis
    assert opnorm(null.conj().T @ sol.D) <= 1e-9


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


def _reference_gate(left, right, factors, tol):
    """The gate as ||N* B|| <= eq_rel max(||B||, 1) on both sides, with the
    product formed even when the complement basis N has no columns."""
    return bool(opnorm_leq(factors.conull_basis.conj().T @ right, tol.eq_rel, right)
                and opnorm_leq(factors.null_basis.conj().T @ left.conj().T,
                               tol.eq_rel, left.conj().T))


def _gate_draw(rng):
    """An operator M (square or rectangular, of full or deficient rank, empty
    or zero) and operands whose ranges lie in M's or poke out of them."""
    m, n = (int(v) for v in rng.integers(0, 6, size=2))
    kind = rng.integers(4)
    r = min(m, n) if kind == 0 else int(rng.integers(0, min(m, n) + 1))
    M = gauss(rng, m, r) @ gauss(rng, r, n) if kind < 3 else np.zeros((m, n))
    c, q = (int(v) for v in rng.integers(0, 4, size=2))
    right = M @ gauss(rng, n, c) if rng.random() < 0.5 else gauss(rng, m, c)
    left = gauss(rng, q, m) @ M if rng.random() < 0.5 else gauss(rng, q, n)
    if rng.random() < 0.1:
        right = np.zeros_like(right)
    return M, left, right


def test_gate_keeps_its_verdict_when_a_complement_is_empty():
    # an empty complement basis (full rank, or an empty side) decides True
    # with no product formed; the verdict is that of the product's norm
    rng = np.random.default_rng(2025)
    empties = 0
    for _ in range(2000):
        M, left, right = _gate_draw(rng)
        factors = _spectrum(M, DEFAULT_TOL)
        empties += 0 in (factors.conull_basis.shape[1], factors.null_basis.shape[1])
        assert _gate(left, right, factors, DEFAULT_TOL) == _reference_gate(
            left, right, factors, DEFAULT_TOL)
    assert empties > 500


def test_in_span_on_an_empty_basis_is_per_item_on_a_stack():
    stack, empty = np.ones((3, 4, 2)), np.zeros((4, 0))
    assert _in_span(np.ones((4, 2)), empty, DEFAULT_TOL) is True
    for got in (_in_span(stack, empty, DEFAULT_TOL),
                _in_span(np.ones((4, 2)), np.zeros((3, 4, 0)), DEFAULT_TOL)):
        assert got.dtype == bool and got.tolist() == [True] * 3


def test_full_rank_parallel_sum_decides_no_norm_in_the_gate(monkeypatch):
    # A + B of full rank: both complement bases are empty, so summability
    # costs no comparison (two when each empty product was measured)
    calls = [0]
    real = douglas.opnorm_leq

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(douglas, "opnorm_leq", counting)
    rng = np.random.default_rng(4)
    parallel_sum(gauss(rng, 4, 4), gauss(rng, 4, 4))
    assert calls == [0]


def test_stacked_gate_gives_one_verdict_per_schedule_point(monkeypatch):
    verdicts = []
    real = parallel._gate

    def recording(*args, **kwargs):
        verdicts.append(real(*args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(parallel, "_gate", recording)
    S = Subspace(2, np.eye(2)[:, :1])
    record = shorted_via_limit(np.array([[2.0, 1.0], [1.0, 1.0]]), S, S,
                               np.diag([1.0, 0.0]), schedule=(1, 2, 4))
    assert record.schedule == [1, 2, 4]
    assert len(verdicts) == 1
    assert verdicts[0].dtype == bool and verdicts[0].tolist() == [True] * 3
