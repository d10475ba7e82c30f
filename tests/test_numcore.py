import ast
import inspect
import re

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
from shortops import douglas, genlab, geometry, minusorder, parallel, shorting
from shortops.numcore import max_opnorm, opnorm_leq, _spectrum

from _roots import abs_root_factors, root_factors


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                                 complex(1.0, -np.inf)])
def test_as_operator_rejects_each_non_finite_entry(bad):
    entries = np.ones((3, 4), dtype=np.complex128)
    entries[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        as_operator(entries)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (4, 0)])
def test_as_operator_accepts_huge_finite_and_empty_input(shape):
    huge = np.full((2, 3), 1e308) + 1j * np.array([[-1e308, 0.0, 1.7e308]] * 2)
    assert np.array_equal(as_operator(huge), huge)
    assert as_operator(np.zeros(shape)).shape == shape


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


def test_sqrt_psd_of_the_empty_matrix():
    root = sqrt_psd(np.zeros((0, 0)))
    assert root.shape == (0, 0) and root.dtype == np.complex128


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


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (2, 3)])
def test_zero_and_empty_operators(shape):
    m, n = shape
    A = np.zeros(shape)
    assert rank(A) == 0
    U, absA = polar(A)
    for got, want in ((pinv(A), (n, m)), (U, (m, n)), (absA, (n, n)),
                      (sqrt_abs(A), (n, n)), (sqrt_abs_adjoint(A), (m, m))):
        assert got.shape == want and got.dtype == np.complex128
        assert not np.any(got)
    fs = fundamental_subspaces(A)
    assert fs.range_basis.shape == (m, 0) and fs.corange_basis.shape == (n, 0)
    assert np.allclose(fs.null_basis @ fs.null_basis.conj().T, np.eye(n))
    assert np.allclose(fs.conull_basis @ fs.conull_basis.conj().T, np.eye(m))


def test_at_scale_matches_fresh_factorization():
    rng = np.random.default_rng(31)
    tol = Tolerance()
    for _ in range(100):
        m, n = rng.integers(1, 8, size=2)
        r = int(rng.integers(0, min(m, n) + 1))
        A = _random_complex(rng, m, r) @ _random_complex(rng, r, n)
        A = A + 10.0 ** rng.uniform(-14, -8) * _random_complex(rng, m, n)
        spectrum = _spectrum(A, tol)
        for scale in (0.0, 1e-6, 1.0, spectrum.s[0], 1e4):
            want = int(np.count_nonzero(spectrum.s > tol.rank_rel * max(m, n) * scale))
            assert spectrum.at_scale(scale, tol).rank == want
            assert _spectrum(A, tol, scale).rank == want


def _projectors(fs):
    W, V = fs.range_basis, fs.corange_basis
    return W @ W.conj().T, V @ V.conj().T


def _check_root_factors(A):
    """The root factor values rebuild the root matrices, and their rank and
    subspaces are those of a fresh factorization of each root matrix."""
    tol = Tolerance()
    fs = fundamental_subspaces(A)
    polar_root = (fs.range_basis * np.sqrt(fs.s[:fs.rank])) @ fs.Vh[:fs.rank]
    root, abs_root = root_factors(fs), abs_root_factors(fs)

    def rebuild(U, s, Vh):
        return (U[:, :len(s)] * s) @ Vh[:len(s)]

    for got, want in ((rebuild(root.U, root.s, root.Vh), polar_root),
                      (rebuild(root.U, root.s, root.U.conj().T), fs.root_left),
                      (rebuild(abs_root.U, abs_root.s, abs_root.Vh), fs.root_right)):
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0.0, atol=1e-12 * max(1.0, opnorm(A)))
    for value, matrix in ((root, polar_root), (abs_root, fs.root_right)):
        fresh = fundamental_subspaces(matrix)
        assert value.rank == fresh.rank == fs.rank
        for got, want in zip(_projectors(value), _projectors(fresh)):
            assert opnorm(got - want) <= tol.eq_rel
    return fs


def test_roots_have_the_rank_of_the_operator():
    rng = np.random.default_rng(37)
    for _ in range(100):
        m, n = rng.integers(1, 8, size=2)
        r = int(rng.integers(0, min(m, n) + 1))
        A = _random_complex(rng, m, r) @ _random_complex(rng, r, n)
        fs = _check_root_factors(A)
        assert fs.rank == r
        assert rank(fs.root_left) == r
    for shape in ((2, 3), (0, 3), (3, 0)):
        assert _check_root_factors(np.zeros(shape)).rank == 0


def test_rank_rule_lives_in_numcore():
    for module in (douglas, geometry, shorting, minusorder, parallel):
        source = inspect.getsource(module)
        for banned in ("np.linalg.svd", "np.linalg.inv", "np.linalg.qr", "_svd(",
                       "rank_rel", "root_left", "root_right", "polar_root"):
            assert banned not in source, f"{module.__name__} uses {banned}"
        # a reported residual takes its floor from numcore._relative
        assert not re.search(r"max\(.*, 1\.0\)", source), module.__name__
        # every inclusion outside douglas goes through douglas._gate
        if module is not douglas:
            assert "_in_span(" not in source, f"{module.__name__} uses _in_span("
    # the parallel sum reads the doubled matrix's blocks by slicing
    assert "np.block(" not in inspect.getsource(parallel)


def test_inclusion_decisions_take_one_matrix():
    # a stack's items are decided one at a time, on their 2-D factors
    for helper in (douglas._gate, douglas._in_span):
        source = inspect.getsource(helper)
        for banned in ("stacked", "swapaxes"):
            assert banned not in source, f"{helper.__name__} uses {banned}"


def test_geometry_reads_pairs_from_the_stacked_bases():
    # one anchor, sigma_max of [W1 W2], for every subspace-pair question:
    # no re-truncation and no stacked projection complements [I - P_M; I - P_N]
    source = inspect.getsource(geometry)
    for banned in ("at_scale(", "np.vstack(", "np.eye(n) -", "eye - "):
        assert banned not in source, f"geometry uses {banned}"


# Exact spectral norms genlab uses as values, not as a residual against a
# threshold: eigenvalue floors, a reported error against the rounding floor,
# and the minimal-norm inequality (a lower bound).  A norm the factors in
# hand already carry is read from them instead.
_GENLAB_NORM_VALUE_USES = {
    ("_lambda_exists_oracle",
     "certificate >= -tol.psd_slack * (lam_hat * wmax + opnorm(B) ** 2 + 1.0)"),
    ("_inv_reduced_solution_minimal_norm",
     "opnorm(other) >= np.sqrt(sol.norm_sq) - tol.eq_rel"),
    ("_inv_limit_convergence", "record.errors[-1] < 1e-13 * max(opnorm(A), 1.0)"),
    ("_inv_limit_convergence", "max(opnorm(A), 1.0)"),
}


def _is_call(node, name):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name)


def test_genlab_residuals_go_through_opnorm_leq():
    source = inspect.getsource(genlab)
    found = set()
    for func in ast.parse(source).body:
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            compared = (isinstance(node, ast.Compare)
                        and any(_is_call(sub, "opnorm") for sub in ast.walk(node)))
            threshold = (_is_call(node, "max")
                         and any(_is_call(arg, "opnorm") for arg in node.args))
            if compared or threshold:
                found.add((func.name, ast.get_source_segment(source, node)))
    assert found == _GENLAB_NORM_VALUE_USES


def _exact_leq(X, rel, anchor):
    """The comparison opnorm_leq decides, computed from exact spectral norms."""
    if anchor is None:
        a = 0.0
    elif np.ndim(anchor) == 0:
        a = float(anchor)
    else:
        a = opnorm(anchor)
    return opnorm(X) <= rel * max(a, 1.0)


def test_closed_form_opnorm_near_a_double_singular_value():
    # matrices with a side of length 2 take the closed-form norm; with the
    # two singular values within 1e-12..1e-4 of each other, tr^2 - 4 det
    # cancelled to ~1e-8 relative error
    rng = np.random.default_rng(2)
    for _ in range(400):
        k = int(rng.integers(2, 6))
        U = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        V = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
        s = 10.0 ** rng.uniform(-12, 12) * np.array([1.0, 1.0 - 10.0 ** rng.uniform(-12, -4)])
        A = (U * s) @ V[:2]
        for X in (A, A.T):
            assert abs(opnorm(X) - s[0]) <= 1e-14 * s[0]


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
