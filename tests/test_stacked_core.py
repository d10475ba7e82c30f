"""The factorization core on a stack of matrices gives the verdicts and values
of its 2-D calls, item by item.

A (K, m, n) stack is factored in one SVD call, with per-item ranks and full
width bases whose columns past each item's rank are zero; opnorm_leq and the
range test return one verdict per item.  shorted_via_limit factors its whole
schedule as such a stack; its record is compared with a per-point loop on the
2-D core, written here.
"""

from fractions import Fraction

import numpy as np
import pytest

from shortops import (
    DEFAULT_TOL,
    EscalationExhausted,
    NotSummable,
    Subspace,
    opnorm,
    shorted,
    shorted_via_limit,
)
from shortops import douglas, parallel
from shortops.douglas import _gate, _in_span, _reduced_coeffs
from shortops.genlab import (
    INVARIANTS,
    GenConfig,
    cond_ok,
    draw_complementable_matched,
    gen_with_ranges,
    trial_rng,
)
from shortops.numcore import _fro, _spectrum, complement_basis, opnorm_leq
from shortops.parallel import _loglog_slope, _parallel_sum
from shortops.shorting import _weak_solutions

from _roots import abs_root_factors, root_factors

TOL = DEFAULT_TOL


def _gauss(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def _mixed_stack(rng, m, n):
    """Items of full rank, of lower rank, at the rank cutoff's edge, scaled
    far from 1, and zero."""
    items = [_gauss(rng, m, n), 1e-7 * _gauss(rng, m, n), np.zeros((m, n))]
    for r in range(min(m, n)):
        items.append(_gauss(rng, m, r) @ _gauss(rng, r, n) * 10.0 ** rng.uniform(-3, 3))
    edge = np.linalg.svd(_gauss(rng, m, n))
    s = edge[1].copy()
    s[-1] = s[0] * TOL.rank_rel * max(m, n) * rng.choice([0.5, 2.0])
    items.append((edge[0][:, :len(s)] * s) @ edge[2][:len(s)])
    return np.stack(items)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 5), (6, 4), (8, 8)])
def test_spectrum_of_a_stack_matches_each_item(m, n):
    stack = _mixed_stack(np.random.default_rng(10 * m + n), m, n)
    total = _spectrum(stack, TOL)
    assert total.stacked and total.rank.shape == (len(stack),)
    for i, item in enumerate(stack):
        alone = _spectrum(item, TOL)
        assert np.array_equal(total.s[i], alone.s)
        assert total.rank[i] == alone.rank
        one = total[i]
        assert not one.stacked and one.rank == alone.rank
        assert np.array_equal(one.s, alone.s)
        # full width bases: the item's own columns, then zeros
        r = alone.rank
        for stacked_basis, basis in ((total.range_basis[i], alone.range_basis),
                                     (total.corange_basis[i], alone.corange_basis)):
            assert np.array_equal(stacked_basis[:, :r], basis)
            assert not stacked_basis[:, r:].any()
        assert np.array_equal(total.null_basis[i][:, r:], alone.null_basis)
        assert np.array_equal(total.conull_basis[i][:, r:], alone.conull_basis)
        scale = max(np.abs(alone.pinv()).max(), 1.0)
        assert np.allclose(total.pinv()[i], alone.pinv(), rtol=0, atol=1e-12 * scale)


def test_spectrum_of_a_stack_of_empty_matrices():
    total = _spectrum(np.zeros((3, 0, 4), dtype=np.complex128), TOL)
    assert total.rank.tolist() == [0, 0, 0]
    assert total.range_basis.shape == (3, 0, 0)
    assert total.null_basis.shape == (3, 4, 4)
    assert opnorm(np.zeros((3, 0, 4))).tolist() == [0.0, 0.0, 0.0]


def test_stacked_roots_and_reduced_solutions_match_each_item():
    rng = np.random.default_rng(4)
    stack = _mixed_stack(rng, 5, 5)
    B = _gauss(rng, 5, 3)
    total = _spectrum(stack, TOL)
    stacked_coeffs = (_reduced_coeffs(root_factors(total), B),
                      _reduced_coeffs(abs_root_factors(total), B))
    for i, item in enumerate(stack):
        alone = _spectrum(item, TOL)
        for stacked, single in zip(stacked_coeffs,
                                   (_reduced_coeffs(root_factors(alone), B),
                                    _reduced_coeffs(abs_root_factors(alone), B))):
            scale = max(np.abs(single).max(), 1.0)
            assert np.allclose(stacked[i], single, rtol=0, atol=1e-12 * scale)
        assert np.allclose(total.root_left[i], alone.root_left, atol=1e-12 * max(opnorm(item), 1))
        assert np.allclose(total.root_right[i], alone.root_right,
                           atol=1e-12 * max(opnorm(item), 1))


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 5), (6, 4), (8, 8)])
def test_weak_solutions_are_the_reduced_solutions_on_the_root_factors(m, n):
    # the route check's weak solutions, read from the corner's bases, equal
    # the reduced solutions on the root factor values bit for bit, on 2-D
    # factors and on a stack
    rng = np.random.default_rng(100 + 10 * m + n)
    stack = _mixed_stack(rng, m, n)
    A21, A12 = _gauss(rng, m, 3), _gauss(rng, 2, n)
    for factors in [_spectrum(stack, TOL)] + [_spectrum(item, TOL) for item in stack]:
        E_weak, F_weak = _weak_solutions(factors, A21, A12)
        assert np.array_equal(E_weak, _reduced_coeffs(root_factors(factors), A21))
        assert np.array_equal(F_weak, _reduced_coeffs(abs_root_factors(factors),
                                                      A12.conj().T))
        assert np.array_equal(_weak_solutions(factors, A21)[0], E_weak)
        assert _weak_solutions(factors, A21)[1] is None


# spectral norms relative to the threshold: inside the Frobenius band for
# three equal singular values, then far on either side, then zero
_FACTORS = (1.0 - 1e-6, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 + 1e-6, 0.7, 1.5, 1e-3, 1e3, 0.0)


def _at_norm(rng, m, n, norm):
    """An m x n matrix with three singular values equal to ``norm``: its
    Frobenius norm is sqrt(3) times the spectral one, so near the threshold
    only the exact norm decides."""
    U = np.linalg.qr(_gauss(rng, m, 3))[0]
    V = np.linalg.qr(_gauss(rng, n, 3))[0]
    return norm * U @ V.conj().T


def _threshold(rel, anchor):
    norm = 0.0 if anchor is None else anchor if np.ndim(anchor) == 0 else opnorm(anchor)
    return rel * max(norm, 1.0)


@pytest.mark.parametrize("kind", ["none", "norm", "matrix", "norms", "matrices"])
def test_opnorm_leq_on_a_stack_gives_the_scalar_verdict_per_item(kind):
    rng = np.random.default_rng(["none", "norm", "matrix", "norms", "matrices"].index(kind))
    rel, m, n, K = 1e-3, 5, 4, len(_FACTORS)
    anchor = {
        "none": None,
        "norm": 3e3,
        "matrix": 1e3 * _gauss(rng, 4, 6),
        "norms": 10.0 ** rng.uniform(-2, 5, size=K),
        "matrices": np.stack([10.0 ** rng.uniform(-2, 5) * _gauss(rng, 3, 3) for _ in range(K)]),
    }[kind]
    anchors = list(anchor) if kind in ("norms", "matrices") else [anchor] * K
    X = np.stack([_at_norm(rng, m, n, f * _threshold(rel, a)) for f, a in zip(_FACTORS, anchors)])
    got = opnorm_leq(X, rel, anchor)
    assert got.dtype == bool and got.shape == (K,)
    assert got.tolist() == [opnorm_leq(x, rel, a) for x, a in zip(X, anchors)]
    # the exact per-item test was exercised
    assert sum(_fro(x) / np.sqrt(min(m, n)) <= _threshold(rel, a) < _fro(x)
               for x, a in zip(X, anchors)) >= 2


def test_opnorm_leq_on_a_stack_of_band_items_with_a_shared_anchor():
    rng = np.random.default_rng(7)
    rel, anchor = 1e-9, 2e4
    X = np.stack([_at_norm(rng, 6, 6, f * rel * anchor) for f in _FACTORS])
    got = opnorm_leq(X, rel, anchor)
    assert got.tolist() == [opnorm_leq(x, rel, anchor) for x in X]
    assert got.tolist() == [True, True, False, False, True, False, True, False, True]


def test_in_span_on_a_stack_gives_the_scalar_verdict_per_item():
    rng = np.random.default_rng(12)
    m, n = 6, 5
    W = np.linalg.qr(_gauss(rng, m, 3))[0]
    leak = np.linalg.qr(np.hstack([W, _gauss(rng, m, 1)]))[0][:, 3:]
    inside = W @ _gauss(rng, 3, n)
    outside = inside + leak @ _gauss(rng, 1, n)
    # totals with range R(W) plus a leak direction of relative size around
    # the rank cutoff and eq_rel, and a zero total
    sizes = (0.0, 1e-12, 0.5e-9, 0.9e-9, 1.1e-9, 1e-6, 1.0)
    stack = np.stack([W @ _gauss(rng, 3, n) + size * leak @ _gauss(rng, 1, n)
                      for size in sizes] + [np.zeros((m, n))])
    complements = _spectrum(stack, TOL).conull_basis
    for operand in (inside, outside):
        got = _in_span(operand, complements, TOL)
        assert got.tolist() == [_in_span(operand, _spectrum(G, TOL).conull_basis, TOL)
                                for G in stack]
    # a stack of operands, each its own anchor, against one basis
    operands = np.stack([inside + size * opnorm(inside) * leak @ _gauss(rng, 1, n)
                         for size in (0.0, 0.9e-9, 1e-9, 1.1e-9, 1e-3)])
    W_perp = complement_basis(W)
    got = _in_span(operands, W_perp, TOL)
    assert got.tolist() == [_in_span(b, W_perp, TOL) for b in operands]
    assert got[0] and not got[-1]


def _per_point_limit(A, S, T, B, schedule=parallel.DEFAULT_SCHEDULE):
    """shorted_via_limit written one schedule point at a time on the 2-D
    core, as it was before the schedule was stacked."""
    target = shorted(A, S, T, TOL).shorted
    used, errors = [], []
    for n in sorted(int(k) for k in schedule):
        if n < 1:
            raise ValueError("schedule entries must be positive integers")
        scaled = n * B
        total = _spectrum(A + scaled, TOL)
        if not _gate(A, A, total, TOL):
            if not used:
                continue
            raise NotSummable(parallel._summability_report(A, scaled, total, False))
        used.append(n)
        errors.append(opnorm(_parallel_sum(A, total) - target))
    if not used:
        raise EscalationExhausted("no schedule entry made the pair summable")
    return used, errors, _loglog_slope(used, errors)


def _assert_same_record(record, reference):
    used, errors, slope = reference
    assert record.schedule == used
    for got, want in zip(record.errors, errors):
        assert abs(got - want) <= 1e-12 * want + 1e-300
    if np.isnan(slope):
        assert np.isnan(record.fitted_slope)
    else:
        assert abs(record.fitted_slope - slope) <= 1e-9


def test_shorted_via_limit_matches_the_per_point_loop_on_suite_draws():
    index = [name for name, _ in INVARIANTS].index("limit-convergence")
    compared = 0
    for trial in range(60):
        rng = trial_rng(424242, index, trial)
        drawn = draw_complementable_matched(rng, GenConfig(), TOL)
        if drawn is None:
            continue
        A, S, T = drawn
        B = gen_with_ranges(T, S, rng)
        if not cond_ok(B, 1e4, TOL):
            continue
        for schedule in (parallel.DEFAULT_SCHEDULE, tuple(range(1, 41)), (9, 3, 1)):
            _assert_same_record(shorted_via_limit(A, S, T, B, schedule=schedule),
                                _per_point_limit(A, S, T, B, schedule))
        compared += 1
    assert compared >= 40


def test_shorted_via_limit_matches_the_per_point_loop_in_closed_form():
    A = np.array([[2.0, 1.0], [1.0, 1.0]])
    S = T = Subspace(2, np.eye(2)[:, :1])
    B = np.diag([1.0, 0.0])
    record = shorted_via_limit(A, S, T, B, schedule=[1, 2, 4, 8, 9, 16])
    _assert_same_record(record, _per_point_limit(A, S, T, B, [1, 2, 4, 8, 9, 16]))
    for n, err in zip(record.schedule, record.errors):
        assert err == pytest.approx(1.0 / (n + 1), abs=1e-12)
    full = Subspace.full(2)
    for A, schedule in ((np.diag([-1.0, 1.0]), (1, 2, 4)), (np.diag([3.0, 1.0]), range(1, 60))):
        _assert_same_record(shorted_via_limit(A, full, full, np.eye(2), schedule=schedule),
                            _per_point_limit(A, full, full, np.eye(2), schedule))


def _diagonal_case(b):
    """A = I on C^4, S = T = span(e1, e2, e3), B = diag(b, 0): A + n B is
    diagonal, singular where n b_i = -1 and ill-conditioned near it."""
    S = Subspace(4, np.eye(4)[:, :3])
    return np.eye(4, dtype=np.complex128), S, S, np.diag(list(b) + [0.0])


def _exact_diagonal_errors(b, schedule):
    """The errors ||A ∥ n B - shorted|| of ``_diagonal_case(b)``, exactly, on
    the floats passed: the shorted operator is diag(1, 1, 1, 0), and
    1 ∥ y - 1 = -1 / (1 + y) on each of the first three entries."""
    return [max(abs(1 / (1 + n * Fraction(x))) for x in b) for n in schedule]


def _assert_unsummable_at_the_same_point(A, S, T, B, schedule):
    with pytest.raises(NotSummable) as stacked:
        shorted_via_limit(A, S, T, B, schedule=schedule)
    with pytest.raises(NotSummable) as reference:
        _per_point_limit(A, S, T, B, schedule)
    assert stacked.value.report.defects == reference.value.report.defects


def _assert_exact_errors(A, S, T, B, b, schedule):
    """The record on ``schedule`` is the per-point loop's, and each error
    is within 4 u of the exact one."""
    record = shorted_via_limit(A, S, T, B, schedule=schedule)
    _assert_same_record(record, _per_point_limit(A, S, T, B, schedule))
    assert record.schedule == list(schedule)
    for got, want in zip(record.errors, _exact_diagonal_errors(b, schedule)):
        assert abs(Fraction(got) - want) <= 4 * Fraction(np.finfo(float).eps / 2) * want


# n = 2 brings two entries of A + n B to 1e-3 and 1e-9, where 1 / sigma_min
# of the sum is 1e9; n = 4 makes A + n B singular
_EDGE = ((-1 + 1e-3) / 2, (-1 + 1e-9) / 2)


def test_ill_conditioned_points_are_used_up_to_a_later_unsummable_point():
    b = _EDGE + (-0.25,)
    A, S, T, B = _diagonal_case(b)
    _assert_unsummable_at_the_same_point(A, S, T, B, (1, 2, 4, 8))
    _assert_exact_errors(A, S, T, B, b, (1, 2))


def test_an_unsummable_point_ends_the_record_before_later_ill_conditioned_points():
    # n = 2 makes A + n B singular, n = 8 brings the ill-conditioned entries
    b = (_EDGE[0] / 4, _EDGE[1] / 4, -0.5)
    A, S, T, B = _diagonal_case(b)
    _assert_unsummable_at_the_same_point(A, S, T, B, (1, 2, 4, 8))
    _assert_exact_errors(A, S, T, B, b, (1,))


def test_shorted_via_limit_errors_keep_schedule_order_across_slices():
    A, S, T, B = _diagonal_case((-1.0 / 30, 0.5, 0.25))
    # n = 30 is singular: after 29 usable points, in the second slice
    with pytest.raises(NotSummable):
        shorted_via_limit(A, S, T, B, schedule=range(1, 50))
    # the same point leads a schedule that starts there: skipped
    record = shorted_via_limit(A, S, T, B, schedule=range(30, 80))
    assert record.schedule == list(range(31, 80))
    _assert_same_record(record, _per_point_limit(A, S, T, B, range(30, 80)))
    with pytest.raises(EscalationExhausted):
        shorted_via_limit(A, S, T, B, schedule=(30,))
    with pytest.raises(ValueError):
        shorted_via_limit(A, S, T, B, schedule=(3, 0, 5))


def test_shorted_via_limit_factors_the_schedule_in_bounded_slices(monkeypatch):
    A, S, T, B = _diagonal_case((0.5, 0.25, 2.0))
    stacks = []
    real_svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        if a.ndim > 2:
            stacks.append(a.shape[0])
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    record = shorted_via_limit(A, S, T, B, schedule=range(1, 41))
    assert record.schedule == list(range(1, 41))
    # 40 points in slices of 17, 17 and 6: a factorization and an error
    # norm call for each
    assert stacks == [17, 17, 17, 17, 6, 6]
    assert parallel._SLICE_POINTS == len(parallel.DEFAULT_SCHEDULE)


def test_stacked_gate_gives_the_2d_verdict_per_item(monkeypatch):
    # mixed stacks test both sides per item; a stack of full rank on a side
    # decides it True for every item with no product formed
    rng = np.random.default_rng(26)
    products = []
    real = douglas.opnorm_leq

    def counting(X, *args):
        products.append(X.shape)
        return real(X, *args)

    for m, n in ((3, 3), (2, 5), (5, 2), (4, 4)):
        mixed = _mixed_stack(rng, m, n)
        full = np.stack([_gauss(rng, m, n) for _ in range(4)])
        for stack in (mixed, full):
            total = _spectrum(stack, TOL)
            for left, right in ((_gauss(rng, 2, n), _gauss(rng, m, 3)),
                                (_gauss(rng, 2, m) @ stack[0], stack[0] @ _gauss(rng, n, 3))):
                products.clear()
                monkeypatch.setattr(douglas, "opnorm_leq", counting)
                got = _gate(left, right, total, TOL)
                monkeypatch.setattr(douglas, "opnorm_leq", real)
                assert got.dtype == bool and got.tolist() == [
                    _gate(left, right, _spectrum(item, TOL), TOL) for item in stack]
                # a side is tested only when some item's rank falls short of it
                assert len(products) == int((total.rank < m).any()) + int((total.rank < n).any())
                if stack is full:
                    assert len(products) == (m > n) + (n > m)
