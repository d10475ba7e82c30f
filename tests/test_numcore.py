import numpy as np
import pytest

from shortops import (
    NotPSD,
    Tolerance,
    as_operator,
    fundamental_subspaces,
    opnorm,
    pinv,
    polar,
    rank,
    sqrt_abs,
    sqrt_abs_adjoint,
    sqrt_psd,
)
from shortops.numcore import max_opnorm, opnorm_leq


def _random_complex(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def test_tolerance_defaults_and_validation():
    tol = Tolerance()
    assert tol.rank_rel == 1e-10
    assert tol.eq_rel == 1e-9
    assert tol.psd_slack == 1e-10
    with pytest.raises(ValueError):
        Tolerance(rank_rel=0.0)
    with pytest.raises(ValueError):
        Tolerance(eq_rel=1.5)
    with pytest.raises(ValueError):
        Tolerance(psd_slack=-1e-3)


def test_as_operator_rejects_bad_input():
    with pytest.raises(ValueError):
        as_operator([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        as_operator([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_operator([[np.inf]])


def test_rank_examples():
    assert rank(np.zeros((3, 3))) == 0
    assert rank(np.eye(4)) == 4
    assert rank([[1, 1], [1, 1]]) == 1


def test_pinv_examples():
    assert np.allclose(pinv([[2.0]]), [[0.5]])
    assert np.allclose(pinv(np.diag([1.0, 0.0])), np.diag([1.0, 0.0]))
    # verify the four Penrose identities for the worked rectangular case
    A = np.array([[1.0, 1.0], [0.0, 0.0]])
    P = pinv(A)
    assert np.allclose(P, [[0.5, 0.0], [0.5, 0.0]])
    assert np.allclose(A @ P @ A, A)
    assert np.allclose(P @ A @ P, P)
    assert np.allclose((A @ P).conj().T, A @ P)
    assert np.allclose((P @ A).conj().T, P @ A)


def test_pinv_penrose_identities_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m, n = rng.integers(1, 9, size=2)
        A = _random_complex(rng, m, n)
        P = pinv(A)
        assert opnorm(A @ P @ A - A) <= 1e-9 * max(opnorm(A), 1.0)
        assert opnorm(P @ A @ P - P) <= 1e-9 * max(opnorm(P), 1.0)


def test_polar_examples():
    U, absA = polar([[-3.0]])
    assert np.allclose(U, [[-1.0]])
    assert np.allclose(absA, [[3.0]])
    U, absA = polar(np.zeros((2, 2)))
    assert np.allclose(U, 0) and np.allclose(absA, 0)
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    U, absA = polar(A)
    assert np.allclose(U @ absA, A)
    assert np.allclose(absA, np.diag([0.0, 1.0]))
    # U*U is the orthogonal projection onto the corange
    corange_proj = pinv(A) @ A
    assert np.allclose(U.conj().T @ U, corange_proj)


def test_polar_partial_isometry_random():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        m, n = rng.integers(1, 7, size=2)
        A = _random_complex(rng, m, n)
        U, absA = polar(A)
        assert opnorm(U @ absA - A) <= 1e-9 * max(opnorm(A), 1.0)
        evals = np.linalg.eigvalsh(0.5 * (absA + absA.conj().T))
        assert evals.min() >= -1e-10 * max(opnorm(A), 1.0)


def test_sqrt_psd_examples():
    assert np.allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    assert np.allclose(sqrt_psd(np.eye(3)), np.eye(3))
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    R = sqrt_psd(A)
    assert np.allclose(R @ R, A)
    assert sorted(np.round(np.linalg.eigvalsh(R), 10)) == pytest.approx([1.0, np.sqrt(3)])


def test_sqrt_psd_rejects_non_psd():
    with pytest.raises(NotPSD):
        sqrt_psd(np.diag([1.0, -1.0]))
    with pytest.raises(NotPSD):
        sqrt_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(NotPSD):
        sqrt_psd(np.ones((2, 3)))


def test_sqrt_psd_roundtrip_random():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        G = _random_complex(rng, n, n)
        M = G.conj().T @ G
        R = sqrt_psd(M)
        assert opnorm(R @ R - M) <= 1e-9 * max(opnorm(M), 1.0)


def test_sqrt_abs_matches_quartic_root():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m, n = rng.integers(1, 7, size=2)
        A = _random_complex(rng, m, n)
        absA = polar(A)[1]
        assert opnorm(sqrt_abs(A) @ sqrt_abs(A) - absA) <= 1e-9 * max(opnorm(A), 1.0)
        absAs = polar(A.conj().T)[1]
        got = sqrt_abs_adjoint(A)
        assert opnorm(got @ got - absAs) <= 1e-9 * max(opnorm(A), 1.0)


def test_fundamental_subspaces_examples():
    fs = fundamental_subspaces(np.diag([1.0, 0.0]))
    assert fs.rank == 1
    assert np.allclose(np.abs(fs.range_basis), [[1.0], [0.0]])
    assert np.allclose(np.abs(fs.null_basis), [[0.0], [1.0]])

    rng = np.random.default_rng(1)
    full = _random_complex(rng, 3, 3) + 3 * np.eye(3)
    assert fundamental_subspaces(full).null_basis.shape == (3, 0)

    fs = fundamental_subspaces(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(np.abs(fs.range_basis), np.full((2, 1), 1 / np.sqrt(2)))
    assert np.allclose(np.abs(fs.null_basis.conj().T @ [[1.0], [1.0]]), 0.0)


def test_fundamental_subspaces_counts_and_orthogonality():
    rng = np.random.default_rng(77)
    for _ in range(200):
        m, n = rng.integers(1, 8, size=2)
        r = int(rng.integers(0, min(m, n) + 1))
        A = _random_complex(rng, m, r) @ _random_complex(rng, r, n)
        fs = fundamental_subspaces(A)
        assert fs.range_basis.shape[1] + fs.conull_basis.shape[1] == m
        assert fs.null_basis.shape[1] + fs.corange_basis.shape[1] == n
        # projection onto the range equals A pinv(A)
        proj = fs.range_basis @ fs.range_basis.conj().T
        assert opnorm(proj - A @ pinv(A)) <= 1e-9


def _exact_leq(X, rel, anchor):
    """The comparison opnorm_leq decides, computed from exact spectral norms."""
    if anchor is None:
        a = 0.0
    elif np.ndim(anchor) == 0:
        a = float(anchor)
    else:
        a = opnorm(anchor)
    return opnorm(X) <= rel * max(a, 1.0)


def test_opnorm_leq_matches_exact_comparison():
    rng = np.random.default_rng(31)
    rel = 1e-3
    undecided = 0
    for trial in range(1500):
        m, n = (int(v) for v in rng.integers(1, 9, size=2))
        X = _random_complex(rng, m, n)
        if trial % 5 == 0:
            X = X[0]  # a vector
        kind = trial % 3
        if kind == 0:
            anchor = None
        elif kind == 1:
            anchor = float(10 ** rng.uniform(-2, 4))  # a norm the caller knows
        else:
            p, q = (int(v) for v in rng.integers(1, 9, size=2))
            anchor = _random_complex(rng, p, q) * 10 ** rng.uniform(-2, 4)
        threshold = rel * max(0.0 if anchor is None else
                              (anchor if np.ndim(anchor) == 0 else opnorm(anchor)), 1.0)
        if trial % 4:
            # into the band between the Frobenius bounds, and around the threshold
            X = X * (threshold * rng.uniform(0.2, 3.0) / opnorm(X))
        fro = np.linalg.norm(X)
        k = min(X.shape) if X.ndim == 2 else 1
        undecided += fro / np.sqrt(k) <= threshold < fro
        assert opnorm_leq(X, rel, anchor) == _exact_leq(X, rel, anchor), trial
    assert undecided > 100  # the exact fallback was exercised


def test_opnorm_leq_edge_cases():
    rel = 1e-9
    assert opnorm_leq(np.zeros((0, 3)), rel)
    assert opnorm_leq(np.zeros((0, 3)), rel, np.zeros((2, 0)))
    assert opnorm_leq(np.zeros((2, 2)), rel, 0.0)
    assert opnorm_leq(np.full((2, 2), 1e-10), rel)
    assert not opnorm_leq(np.full((2, 2), 1e-9), rel)
    # the anchor scales the threshold, floored at 1
    assert opnorm_leq(np.full((3, 3), 1e-8), rel, 100.0)
    assert not opnorm_leq(np.full((3, 3), 1e-8), rel, 0.01)
    # exactly at the threshold: rank-one X has ||X||_2 = ||X||_F
    X = np.outer([3.0, 4.0], [1.0, 0.0]) * 1e-9 / 5.0
    assert opnorm_leq(X, rel) == (opnorm(X) <= rel)
    # a vector X and a vector anchor
    assert opnorm_leq(np.array([3e-9, 4e-9]), rel, np.array([3.0, 4.0]))
    assert not opnorm_leq(np.array([3e-9, 4e-9]), rel, np.array([0.3, 0.4]))


def test_max_opnorm_is_exact_maximum():
    rng = np.random.default_rng(8)
    for _ in range(200):
        m, n = (int(v) for v in rng.integers(1, 9, size=2))
        mats = [_random_complex(rng, m, n) * 10 ** rng.uniform(-3, 0)
                for _ in range(int(rng.integers(1, 7)))]
        if rng.integers(0, 2):
            mats.append(np.outer(_random_complex(rng, m, 1), _random_complex(rng, 1, n)))
        assert max_opnorm(mats) == max(opnorm(M) for M in mats)
    assert max_opnorm([np.zeros((2, 2))]) == 0.0
