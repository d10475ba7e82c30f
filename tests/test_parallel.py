import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from shortops import (
    DEFAULT_TOL,
    BadAuxiliary,
    DimensionMismatch,
    EscalationExhausted,
    NotComplementable,
    NotInDA,
    NotSummable,
    Subspace,
    block_decompose,
    complementability,
    in_da,
    opnorm,
    parallel_subtract,
    parallel_sum,
    pinv,
    recover_shorted,
    shorted,
    shorted_via_limit,
    summability,
)
from shortops.genlab import (
    gauss,
    gen_complementable,
    gen_da_member,
    gen_with_ranges,
    trial_rng,
)
from shortops.numcore import as_operator
from shortops.parallel import _auxiliary_factors

from _census import record


def e1_subspace(n):
    return Subspace(n, np.eye(n, dtype=np.complex128)[:, :1])


def route_gap(A, B, block):
    """The largest gap among the sum, A (A+B)^+ B and B - B (A+B)^+ B."""
    total_pinv = pinv(A + B)
    reduced, swapped = A @ total_pinv @ B, B - B @ total_pinv @ B
    return max(opnorm(block - reduced), opnorm(block - swapped), opnorm(reduced - swapped))


def test_summability_examples():
    assert summability([[1.0]], [[1.0]]).strongly
    report = summability(np.diag([1.0, 0.0]), np.diag([-1.0, 0.0]))
    assert not report.strongly and not report.weakly
    assert summability(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])).strongly
    for shape in ((1, 1), (3, 3), (2, 4)):
        report = summability(np.zeros(shape), np.zeros(shape))
        assert report.strongly and report.weakly
    with pytest.raises(DimensionMismatch):
        summability(np.eye(2), np.eye(3))


def test_parallel_sum_examples():
    res = parallel_sum([[2.0]], [[2.0]])
    assert np.allclose(res.sum, [[1.0]])

    res = parallel_sum(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert np.allclose(res.sum, 0.0)

    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    res = parallel_sum(A, A)
    assert np.allclose(res.sum, A / 2)


def test_parallel_sum_routes_exposed():
    A = np.array([[2.0, 1.0], [1.0, 1.0]])
    B = np.diag([3.0, 1.0])
    res = parallel_sum(A, B)
    assert route_gap(A, B, res.sum) <= 1e-9 * max(opnorm(A), opnorm(B))
    # the sum is the one A - A(A+B)^+A route; the others are formed by the caller
    assert [field.name for field in dataclasses.fields(res)] == ["sum"]


def test_parallel_sum_not_summable():
    with pytest.raises(NotSummable) as info:
        parallel_sum(np.diag([1.0, 0.0]), np.diag([-1.0, 0.0]))
    assert info.value.report.defects.a_range > 0.1


def test_parallel_sum_raises_no_complementability_error():
    # A + B is summable but near-singular; the doubled matrix's corner is a
    # detail of the definition and must not surface as NotComplementable
    pairs = [(np.eye(2), np.diag([-1 + 1e-3, -1 + 1e-11]))]
    rng = np.random.default_rng(43)
    for eps in (1e-8, 1e-9):
        for _ in range(20):
            A = gauss(rng, 4, 4)
            U, V = (np.linalg.qr(gauss(rng, 4, 4))[0] for _ in range(2))
            pairs.append((A, -A + (U * [1, 1, 1, eps]) @ V.conj().T))
    for A, B in pairs:
        try:
            parallel_sum(A, B)
        except NotSummable:
            pass


def test_parallel_sum_near_singular_sum_matches_the_exact_sum():
    # 1 / sigma_min(A + B) = 1e9 puts the two association orders of
    # A (A+B)^+ A 1.2e-7 apart relative to the doubled matrix's norm, yet
    # the sum is right to 2 u of its own norm
    a, b = [1.0, 1.0], [-1 + 1e-3, -1 + 1e-9]
    res = parallel_sum(np.diag(a), np.diag(b))
    exact = [Fraction(x) * Fraction(y) / (Fraction(x) + Fraction(y)) for x, y in zip(a, b)]
    norm = max(abs(x) for x in exact)
    assert not (res.sum - np.diag(np.diag(res.sum))).any()
    for got, want in zip(np.diag(res.sum), exact):
        assert got.imag == 0.0
        assert abs(Fraction(got.real) - want) <= 2 * Fraction(np.finfo(float).eps / 2) * norm


def test_parallel_sum_decides_summability_once():
    # B = (A+B) - A lies in R(A+B) once A does; a second inclusion test of B,
    # at B's own anchor, used to reject these strongly summable pairs with
    # RangeNotIncluded
    A = np.diag([1e3, 0.0])
    for b in (1e-8, 1e-7, 1e-6):
        B = np.array([[0.0, 0.0], [b, 0.0]])
        assert summability(A, B).strongly
        res = parallel_sum(A, B)
        assert opnorm(res.sum) <= 1e-12
        assert route_gap(A, B, res.sum) <= 10 * b


def test_in_da_examples():
    assert in_da([[1.0]], [[2.0]])
    A = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert not in_da(A, A)
    assert in_da(2 * A, A)
    for shape in ((1, 1), (3, 3), (2, 4)):
        assert in_da(np.zeros(shape), np.zeros(shape))


def test_parallel_subtract_examples():
    assert np.allclose(parallel_subtract([[1.0]], [[2.0]]), [[2.0]])

    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 3))
    X = parallel_subtract(2 * A, A)
    assert np.allclose(X, -2 * A)
    assert np.allclose(parallel_sum(A, X).sum, 2 * A)

    with pytest.raises(NotInDA):
        parallel_subtract(A, A)


def test_parallel_subtract_decides_summability_by_da():
    # membership in D_A makes C and -A summable; a second summability test
    # on the factors of C - A used to reject these members with NotSummable
    A = np.diag([1e3, 0.0])
    for g in (1e-8, 1e-7):
        C = np.array([[1e-3, 0.0], [g, 0.0]])
        assert in_da(C, A)
        X = parallel_subtract(C, A)
        # the round trip misses C by its part outside R(A), which is g: the
        # D_A test admits C - A up to eq_rel of ||A||
        residual = opnorm(parallel_sum(A, X).sum - C)
        assert residual <= 1.01 * g
        assert residual <= DEFAULT_TOL.eq_rel * opnorm(A)


def test_parallel_subtract_round_trip_random():
    rng = trial_rng(61, 0, 0)
    for _ in range(50):
        m, n = [int(v) for v in rng.integers(2, 6, size=2)]
        r = int(rng.integers(1, min(m, n) + 1))
        A = gauss(rng, m, r) @ gauss(rng, r, n)
        C = gen_da_member(A, rng)
        X = parallel_subtract(C, A)
        assert opnorm(parallel_sum(A, X).sum - C) <= 1e-8 * max(opnorm(C), 1.0)


def test_parallel_subtract_is_parallel_sum_with_minus_a_bit_for_bit():
    # the D_A test factors C - A, which equals C + (-A) bit for bit, and the
    # parallel sum reuses those factors: no bit of C ∥ (-A) may change
    rng = trial_rng(62, 0, 0)
    shapes = [(k, k) for k in range(2, 9)] + [(2, 5), (6, 3), (4, 7), (8, 5)]
    shapes += [(64, 64), (64, 48)]
    for trial in range(120):
        m, n = shapes[trial % len(shapes)]
        r = int(rng.integers(1, min(m, n) + 1))
        A = gauss(rng, m, r) @ gauss(rng, r, n)
        C = gen_da_member(A, rng)
        assert np.array_equal(parallel_subtract(C, A), parallel_sum(C, -A).sum)


def test_shorted_via_limit_closed_form():
    A = np.array([[2.0, 1.0], [1.0, 1.0]])
    S = T = e1_subspace(2)
    B = np.diag([1.0, 0.0])
    record = shorted_via_limit(A, S, T, B, schedule=[1, 2, 4, 8, 9, 16])
    assert record.schedule == [1, 2, 4, 8, 9, 16]
    for n, err in zip(record.schedule, record.errors):
        assert err == pytest.approx(1.0 / (n + 1), abs=1e-12)
    # the n = 9 entry matches the worked value 0.9 exactly
    res = parallel_sum(A, 9 * B)
    assert np.allclose(res.sum, [[0.9, 0.0], [0.0, 0.0]], atol=1e-12)


def test_shorted_via_limit_full_space():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 3)) + 4 * np.eye(3)
    S = T = Subspace.full(3)
    record = shorted_via_limit(A, S, T, np.eye(3), schedule=[1, 4, 16, 64])
    assert all(e1 >= e2 for e1, e2 in zip(record.errors, record.errors[1:]))
    assert record.errors[-1] < record.errors[0]


def test_shorted_via_limit_skips_only_leading_unsummable_points():
    S = T = Subspace.full(2)
    # A + 1 I is singular: skipped before the first usable point
    record = shorted_via_limit(np.diag([-1.0, 1.0]), S, T, np.eye(2), schedule=(1, 2, 4))
    assert record.schedule == [2, 4]
    # A + 2 I is singular after the usable n = 1: the pair's own error
    with pytest.raises(NotSummable) as info:
        shorted_via_limit(np.diag([-2.0, 1.0]), S, T, np.eye(2), schedule=(1, 2, 4))
    assert not info.value.report.strongly
    assert info.value.report.defects.a_range > 0.1


def test_shorted_via_limit_bad_auxiliary():
    A = np.array([[2.0, 1.0], [1.0, 1.0]])
    S = T = e1_subspace(2)
    with pytest.raises(BadAuxiliary):
        shorted_via_limit(A, S, T, np.eye(2))


@pytest.mark.parametrize("tilt", [1e-8, 5e-8, 2e-7, 1e-6])
@pytest.mark.parametrize("side", ["range", "corange"])
def test_auxiliary_check_is_subspace_equality(tilt, side):
    # R(L) or R(L*) tilted off span(e1) by an angle whose sine is the gap
    # between the projections, on either side of the 100 eq_rel rule
    S = T = e1_subspace(3)
    u = np.array([[np.cos(tilt)], [np.sin(tilt)], [0.0]])
    e1 = T.basis.real
    L = u @ e1.T if side == "range" else e1 @ u.T
    same = (Subspace.range_of(L).equals(T)
            and Subspace.range_of(L.conj().T).equals(S))
    assert same == (tilt < 1e-7)
    if same:
        _auxiliary_factors(as_operator(L), S, T, DEFAULT_TOL)
    else:
        with pytest.raises(BadAuxiliary, match="must have range T and corange S"):
            _auxiliary_factors(as_operator(L), S, T, DEFAULT_TOL)


def test_recover_shorted_examples():
    A = np.array([[2.0, 1.0], [1.0, 1.0]])
    S = T = e1_subspace(2)
    L = np.diag([1.0, 0.0])
    got = recover_shorted(A, S, T, L, 10)
    assert np.allclose(got, [[1.0, 0.0], [0.0, 0.0]], atol=1e-9)

    rng = np.random.default_rng(2)
    M = rng.standard_normal((3, 3)) + 4 * np.eye(3)
    got = recover_shorted(M, Subspace.full(3), Subspace.full(3), np.eye(3), 1)
    assert np.allclose(got, M, atol=1e-9)

    D = np.diag([2.0, 3.0])
    got = recover_shorted(D, e1_subspace(2), e1_subspace(2), L, 8)
    assert np.allclose(got, np.diag([2.0, 0.0]), atol=1e-9)


def test_recover_shorted_doubles_past_a_singular_sum():
    # A + L = diag(0, 1) is singular where A is not, so (A, L) is not
    # summable and n = 1 doubles to 2, where A + 2L = I (the factorizations
    # from n = 1 and n = 2 are in the census)
    A = np.diag([-1.0, 1.0])
    S = T = e1_subspace(2)
    L = np.diag([1.0, 0.0])
    assert not summability(A, L).strongly and summability(A, 2 * L).strongly
    assert np.allclose(recover_shorted(A, S, T, L, 1), np.diag([-1.0, 0.0]), atol=1e-12)
    assert np.allclose(recover_shorted(A, S, T, L, 2), np.diag([-1.0, 0.0]), atol=1e-12)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            recover_shorted(A, S, T, L, n)


def test_recover_shorted_exhausts_from_a_scale_above_the_operator():
    # doubling only grows n: from n L = 1e10 e1 e1*, A's e2 part (1) is under
    # the rank cutoff 1e-10 * 2 * sigma_max(A + n L) at every scale, so no
    # sum is summable, although a smaller start recovers diag(-1, 0)
    A = np.diag([-1.0, 1.0])
    S = T = e1_subspace(2)
    with pytest.raises(EscalationExhausted, match="between n=1 and n=1048576"):
        recover_shorted(A, S, T, np.diag([1e10, 0.0]), 1)
    assert np.allclose(recover_shorted(A, S, T, np.diag([1e8, 0.0]), 1),
                       np.diag([-1.0, 0.0]), atol=1e-6)


@pytest.mark.parametrize("shape", [(4, 3), (2, 3), (1, 1)])
def test_recover_shorted_rejects_a_misshaped_auxiliary(shape):
    # a dimension error, not a numpy broadcast error (4x3, 2x3) or a
    # BadAuxiliary from projections that happen to broadcast (1x1)
    S = e1_subspace(3)
    L = np.zeros(shape)
    L[0, 0] = 1.0
    with pytest.raises(DimensionMismatch):
        recover_shorted(np.diag([2.0, 1.0, 1.0]), S, S, L, 1)


def test_recover_shorted_is_the_shorted_operator_on_caller_bases():
    # complementability is decided in L's singular frames, so the
    # caller-built S and T take no complement QR; the recovered operator is
    # still the one shorted computes in their own frames
    for trial in range(200):
        rng = trial_rng(25, 0, trial)
        n = int(rng.integers(1, 9))
        k = int(rng.integers(0, n + 1))
        A, S, T = gen_complementable(n, n, k, k, int(rng.integers(0, n - k + 1)), rng)
        S, T = Subspace(n, S.basis), Subspace(n, T.basis)
        L = gen_with_ranges(T, S, rng)
        with record() as calls:
            got = recover_shorted(A, S, T, L, 1)
        assert calls["qr"] == 0
        assert opnorm(got - shorted(A, S, T).shorted) <= 1e-9 * max(opnorm(A), 1.0)


def test_recover_shorted_decides_complementability_as_complementability_does():
    # S and T apart and the corner rank-deficient; half the draws get an
    # A21 part off the corner's range, which makes them not complementable
    verdicts = []
    for trial in range(200):
        rng = trial_rng(25, 1, trial)
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n))
        A, S, T = gen_complementable(n, n, k, k, int(rng.integers(0, n - k)), rng)
        if trial % 2:
            A = A + T.complement().basis @ gauss(rng, n - k, k) @ S.basis.conj().T
        S, T = Subspace(n, S.basis), Subspace(n, T.basis)
        L = gen_with_ranges(T, S, rng)
        want = complementability(A, S, T)
        verdicts.append(want.weakly)
        if want.weakly:
            got = recover_shorted(A, S, T, L, 1)
            assert opnorm(got - shorted(A, S, T).shorted) <= 1e-9 * max(opnorm(A), 1.0)
        else:
            with pytest.raises(NotComplementable) as info:
                recover_shorted(A, S, T, L, 1)
            assert (info.value.report.weakly, info.value.report.strongly) == (False, False)
    assert verdicts == [trial % 2 == 0 for trial in range(200)]


def test_recover_shorted_is_the_shorted_operator_at_64():
    # the identity's rounding grows with L's condition on its range: a flat
    # 1e-9 misses about one generic draw in 30, where that condition is
    # several hundred, while error / cond(L) stays below 2e-11
    for trial in range(20):
        rng = trial_rng(25, 64, trial)
        k = int(rng.integers(1, 64))
        S, T = (Subspace(64, np.linalg.qr(gauss(rng, 64, k))[0]) for _ in range(2))
        A, L = gauss(rng, 64, 64), gen_with_ranges(T, S, rng)
        s = np.linalg.svd(L, compute_uv=False)
        got = recover_shorted(A, S, T, L, 1)
        assert opnorm(got - shorted(A, S, T).shorted) <= (
            1e-9 * (s[0] / s[k - 1]) * max(opnorm(A), 1.0))


@pytest.mark.parametrize("shape", [(3, 4), (4, 3), (2, 2)])
def test_recover_shorted_keeps_the_block_message_for_a_misshaped_operator(shape):
    S = e1_subspace(3)
    A = np.ones(shape)
    with pytest.raises(DimensionMismatch) as want:
        block_decompose(A, S, S)
    with pytest.raises(DimensionMismatch) as got:
        recover_shorted(A, S, S, np.diag([1.0, 0.0, 0.0]), 1)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n", [2.0, "3", True, np.True_, None, 0, -1])
def test_recover_shorted_rejects_n_that_is_not_a_positive_integer(n):
    # ValueError, not a TypeError from n << 20 or n < 1, before anything is done
    S = e1_subspace(2)
    with record() as calls, pytest.raises(ValueError) as info:
        recover_shorted(np.eye(2), S, S, np.diag([1.0, 0.0]), n)
    assert str(info.value) == "n must be a positive integer"
    assert info.value.__notes__ == [f"got {n!r}"]
    assert not calls
    assert np.allclose(recover_shorted(np.eye(2), S, S, np.diag([1.0, 0.0]), np.int64(2)),
                       np.diag([1.0, 0.0]), atol=1e-12)


@pytest.mark.parametrize("schedule, bad", [
    ((1.5, 3.7), 1.5), (("8",), "8"), ((True, 2), True), ((2, np.True_), np.True_),
    ((4, 0), 0),
])
def test_shorted_via_limit_rejects_a_schedule_entry_that_is_not_a_positive_integer(
        schedule, bad):
    # each of these once gave a plausible record on truncated entries:
    # [1, 3], [8] and [1, 2]; the ValueError comes before anything is done
    S = e1_subspace(2)
    with record() as calls, pytest.raises(ValueError) as info:
        shorted_via_limit(np.array([[2.0, 1.0], [1.0, 1.0]]), S, S, np.diag([1.0, 0.0]),
                          schedule=schedule)
    # the message the CLI prints is unchanged; the note names the entry
    assert str(info.value) == "schedule entries must be positive integers"
    assert info.value.__notes__ == [f"got {bad!r}"]
    assert not calls


def test_shorted_via_limit_takes_numpy_integer_entries():
    S = e1_subspace(2)
    record = shorted_via_limit(np.array([[2.0, 1.0], [1.0, 1.0]]), S, S,
                               np.diag([1.0, 0.0]), schedule=np.array([4, 1, 2]))
    assert record.schedule == [1, 2, 4]
    assert all(type(k) is int for k in record.schedule)


def test_commutativity_and_rank_random():
    rng = trial_rng(71, 1, 0)
    from shortops import subspace_meet, rank

    for _ in range(40):
        m, n = [int(v) for v in rng.integers(2, 6, size=2)]
        r = int(rng.integers(1, min(m, n) + 1))
        total = gauss(rng, m, r) @ gauss(rng, r, n)
        U, s, Vh = np.linalg.svd(total)
        A = (U[:, :r] @ gauss(rng, r, r)) @ Vh[:r]
        B = total - A
        if not summability(A, B).strongly:
            continue
        left = parallel_sum(A, B).sum
        right = parallel_sum(B, A).sum
        assert opnorm(left - right) <= 1e-9 * max(opnorm(A), opnorm(B), 1.0)
        meet = subspace_meet(Subspace.range_of(A), Subspace.range_of(B))
        got_rank = sum(
            np.linalg.svd(left, compute_uv=False)
            > 1e-10 * max(m, n) * max(opnorm(A), opnorm(B))
        )
        assert got_rank == meet.dim


def _pair_near_summability_threshold(rng, rho):
    """(A, B) with A + B = G1 G2 of rank r and A = G1 X G2 + E, where E has
    spectral norm rho ||G1 X G2|| and points out of R(A+B) or out of
    R((A+B)*), so the a_range or a_corange defect is about rho."""
    m, n = (int(k) for k in rng.integers(2, 7, size=2))
    r = int(rng.integers(1, max(m, n)))      # leaves room on at least one side
    r = min(r, m, n)
    G1, G2 = gauss(rng, m, r), gauss(rng, r, n)
    A = G1 @ gauss(rng, r, r) @ G2
    total = G1 @ G2
    range_side = r < m and (r == n or rng.random() < 0.5)
    if range_side:
        Q = np.linalg.svd(G1)[0][:, r:]          # orthonormal basis of R(A+B)-perp
        u = Q @ gauss(rng, m - r, 1)
        v = gauss(rng, n, 1)
    else:
        Q = np.linalg.svd(G2.conj().T)[0][:, r:]
        u = gauss(rng, m, 1)
        v = Q @ gauss(rng, n - r, 1)
    E = (u / np.linalg.norm(u)) @ (v / np.linalg.norm(v)).conj().T
    A = A + rho * np.linalg.norm(A, 2) * E
    return A, total - A


def test_summability_verdict_is_the_exact_defect_verdict():
    """summability decides through the Frobenius-bounded residual tests of
    the inclusion gate douglas._gate(A, A, A + B); its verdict must be that of the exact a_range and a_corange
    defects, and parallel_sum must raise NotSummable exactly when it is
    False.  A third of the draws sit within a decade of eq_rel."""
    rng = np.random.default_rng(20260418)
    eq_rel = DEFAULT_TOL.eq_rel
    near_verdicts = set()
    for k in range(400):
        rho = (0.0, 10.0 ** rng.uniform(-10.0, -8.0), 10.0 ** rng.uniform(-7.0, 0.0))[k % 3]
        A, B = _pair_near_summability_threshold(rng, rho)
        report = summability(A, B)
        d = report.defects
        exact = d.a_range <= eq_rel and d.a_corange <= eq_rel
        assert report.strongly == report.weakly == exact, (k, d)
        try:
            parallel_sum(A, B)
            raised = False
        except NotSummable as err:
            raised = True
            assert err.report.defects == d
        assert raised == (not exact), (k, d)
        if k % 3 == 1:
            near_verdicts.add(exact)
    assert near_verdicts == {True, False}
