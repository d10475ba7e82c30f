"""SVDs and QRs made by single public calls, pinned as counts.

Each call is the first of its kind and shape, on fresh Subspace objects
and fixed inputs.  A Subspace built from a caller's basis takes one QR for
its frame [basis | complement], cached per object; one made by a complete
factorization (from_spanning, range_of, subspace_join, complement, genlab's
draws) keeps that factorization's unitary frame and takes none, and
recover_shorted blocks A in its auxiliary's singular frames, so it takes
none for either kind.  Pinned:
parallel_sum 2x2, shorted 2x2 (the README example) and 64x64, minus_leq
3x3 on a singular-triple subset and 64x64 (with the shapes it factors),
parallel_sum 64x64, parallel_subtract
64x64, recover_shorted and shorted_via_limit on a 64x64 triple,
summability 8x8, schur_compression 3x3, genlab's gen_da_member 4x4 and
_random_idempotent at n = 1..8,
shorted_range_nullspace_ok 6x6, minus-route-agreement,
reduced-solution-minimal-norm and limit-convergence trials,
oblique_projection 4x4, angles and subspace_meet on a pair of planes in C^4
that share one line, and complementability on a 4x4 triple that is not
complementable, and in_da 3x3 on a C - A whose range lies in R(A) but whose
corange does not.
The inclusion gates in parallel (``douglas._gate`` calls made there) of
parallel_sum, parallel_subtract, recover_shorted and shorted_via_limit are
pinned too: each sum decides summability once, in its public call, and a
D_A test gates both ways.
A count that rises means a factorization came back; one that falls is a
gain to pin here.  Reported norms that decide nothing (shorted's
diagnostics, summability defects, the route disagreement, the
complementability angle check) are computed on first read, so each of
those calls is counted before and after that read.  The shorting routes
read every block quantity from the two subspace frames: they build no
Subspace and no np.block matrix.
"""

import numpy as np
import pytest

import shortops
from shortops import (
    BadAuxiliary,
    NotComplementable,
    Subspace,
    angles,
    block_decompose,
    complementability,
    in_da,
    minus_leq,
    oblique_projection,
    parallel_subtract,
    parallel_sum,
    recover_shorted,
    schur_compression,
    shorted,
    shorted_via_limit,
    subspace_meet,
    summability,
)
from shortops.genlab import (
    INVARIANTS,
    GenConfig,
    gen_complementable,
    gen_da_member,
    gen_with_ranges,
    _random_idempotent,
    shorted_range_nullspace_ok,
    trial_rng,
)


def _gauss(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)


def _minus_pair(rng):
    """C keeps some singular triples of a well-conditioned 3x3 B."""
    U, _ = np.linalg.qr(_gauss(rng, 3, 3))
    V, _ = np.linalg.qr(_gauss(rng, 3, 3))
    s = np.array([3.0, 2.0, 1.0])
    w = np.array([3.0, 0.0, 1.0])
    return (U * w) @ V.conj().T, (U * s) @ V.conj().T


@pytest.fixture
def svd_shapes(monkeypatch):
    """Shapes of the matrices passed to np.linalg.svd, in call order, for
    full factorizations and for singular values alone."""
    shapes = {"factor": [], "norm": []}
    real_svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        kind = "factor" if kwargs.get("compute_uv", True) else "norm"
        shapes[kind].append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return shapes


@pytest.fixture
def opnorm_calls(monkeypatch):
    """Count of exact spectral norms (opnorm calls, closed-form 2x2 ones
    included) in the library modules, as a one-item list."""
    count = [0]
    real = shortops.numcore.opnorm

    def counting(a):
        count[0] += 1
        return real(a)

    for module in (shortops.numcore, shortops.douglas, shortops.geometry,
                   shortops.shorting, shortops.parallel):
        monkeypatch.setattr(module, "opnorm", counting)
    return count


@pytest.fixture
def inv_calls(monkeypatch):
    """Count of np.linalg.inv calls, as a one-item list."""
    count = [0]
    real = np.linalg.inv

    def counting(a, *args, **kwargs):
        count[0] += 1
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", counting)
    return count


@pytest.fixture
def builds(monkeypatch):
    """Counts of Subspace objects built (each validated) and of np.block
    calls."""
    counts = {"subspace": 0, "block": 0}
    real_post_init, real_block = Subspace.__post_init__, np.block

    def counting_post_init(self):
        counts["subspace"] += 1
        real_post_init(self)

    def counting_block(*args, **kwargs):
        counts["block"] += 1
        return real_block(*args, **kwargs)

    monkeypatch.setattr(Subspace, "__post_init__", counting_post_init)
    monkeypatch.setattr(np, "block", counting_block)
    return counts


@pytest.fixture
def gate_calls(monkeypatch):
    """Count of the inclusion gates parallel decides (``_gate`` calls in
    that module: summability, and each way of a D_A test), as a one-item
    list."""
    count = [0]
    real = shortops.parallel._gate

    def counting(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(shortops.parallel, "_gate", counting)
    return count


def test_parallel_sum_2x2(svd_calls):
    rng = np.random.default_rng(0)
    parallel_sum(_gauss(rng, 2, 2), _gauss(rng, 2, 2))
    # A + B alone: the doubled matrix's shorted block is read by slicing, and
    # the reduced routes take their roots from the same factors
    assert svd_calls == {"factor": 1, "norm": 0, "qr": 0}


def test_shorted_2x2(svd_calls, opnorm_calls):
    S = Subspace(2, np.eye(2)[:, :1])
    res = shorted(np.array([[2.0, 1.0], [1.0, 1.0]]), S, S)
    # the corner, and one QR for the complement of S, which serves as T
    assert svd_calls == {"factor": 1, "norm": 0, "qr": 1}
    assert opnorm_calls == [0]
    res.diagnostics
    # ||A|| and the four residuals, in closed form at 2x2; read once
    res.diagnostics
    assert opnorm_calls == [5]
    assert svd_calls == {"factor": 1, "norm": 0, "qr": 1}


def test_shorted_64x64(svd_calls):
    rng = np.random.default_rng(0)
    S = Subspace(64, np.linalg.qr(_gauss(rng, 64, 40))[0])
    T = Subspace(64, np.linalg.qr(_gauss(rng, 64, 40))[0])
    svd_calls.update(qr=0)
    res = shorted(_gauss(rng, 64, 64), S, T)
    # the corner, and one QR each for the complements of S and T
    assert svd_calls == {"factor": 1, "norm": 0, "qr": 2}
    res.diagnostics
    assert svd_calls == {"factor": 1, "norm": 5, "qr": 2}


_FRAMED_TRIPLES = {
    # S is spanned by five columns of rank 3, the range of a rank-3 product
    # is 3-dimensional, and so is T: the 3x3 corner is invertible
    "from_spanning": lambda rng: (_gauss(rng, 6, 6),
                                  Subspace.from_spanning(_gauss(rng, 6, 3) @ _gauss(rng, 3, 5)),
                                  Subspace.from_spanning(_gauss(rng, 6, 3))),
    "range_of": lambda rng: (_gauss(rng, 6, 6),
                             Subspace.range_of(_gauss(rng, 6, 3) @ _gauss(rng, 3, 6)),
                             Subspace.range_of(_gauss(rng, 6, 3))),
    "gen_complementable": lambda rng: gen_complementable(6, 6, 3, 2, 2, rng),
}


@pytest.mark.parametrize("source", list(_FRAMED_TRIPLES))
def test_framed_subspaces_take_no_complement_qr(source, svd_calls):
    A, S, T = _FRAMED_TRIPLES[source](np.random.default_rng(0))
    svd_calls.update(factor=0, norm=0, qr=0)
    block_decompose(A, S, T)
    # the frames of the SVDs or QRs that made S and T (one QR each when
    # every frame was completed from its basis)
    assert svd_calls == {"factor": 0, "norm": 0, "qr": 0}
    shorted(A, S, T)
    # the corner alone
    assert svd_calls == {"factor": 1, "norm": 0, "qr": 0}


def test_caller_built_subspace_takes_one_qr_per_frame(svd_calls):
    A, S, T = gen_complementable(6, 6, 3, 3, 2, np.random.default_rng(0))
    built_S, built_T = Subspace(6, S.basis), Subspace(6, T.basis)
    svd_calls.update(factor=0, norm=0, qr=0)
    block_decompose(A, built_S, T)
    assert svd_calls["qr"] == 1
    # built_S's frame is cached; built_T's is its first
    shorted(A, built_S, built_T)
    assert svd_calls["qr"] == 2
    shorted(A, built_S, built_T)
    assert svd_calls["qr"] == 2


def test_complement_frame_takes_no_qr(svd_calls):
    rng = np.random.default_rng(0)
    framed = Subspace.from_spanning(_gauss(rng, 5, 2))
    built = Subspace(5, framed.basis)
    svd_calls.update(factor=0, norm=0, qr=0)
    framed.complement().extended_frame
    framed.complement().complement().extended_frame
    assert svd_calls == {"factor": 0, "norm": 0, "qr": 0}
    # the caller's basis takes its one QR; its complement's frame is that
    # frame with the blocks swapped
    built.complement().extended_frame
    built.complement().complement().extended_frame
    assert svd_calls == {"factor": 0, "norm": 0, "qr": 1}


def test_minus_leq_3x3(svd_calls, inv_calls):
    C, B = _minus_pair(np.random.default_rng(0))
    svd_calls.update(qr=0)
    assert minus_leq(C, B).holds
    # B, C and B - C, then one SVD on the range side and one on the corange
    # side, K = N* W for C's basis W and the complement basis N that B - C's
    # SVD holds, each giving the overlap test and the projection
    assert svd_calls == {"factor": 5, "norm": 0, "qr": 0}
    assert inv_calls == [0]


def test_minus_leq_64x64_split_sizes(svd_shapes):
    rng = np.random.default_rng(0)
    U, _ = np.linalg.qr(_gauss(rng, 64, 64))
    V, _ = np.linalg.qr(_gauss(rng, 64, 64))
    s = np.linspace(2.0, 1.0, 64)
    w = np.where(np.arange(64) < 20, s, 0.0)
    C, B = (U * w) @ V.conj().T, (U * s) @ V.conj().T
    assert minus_leq(C, B).holds
    # B, C and B - C in full; each split's K is (64 - rank(B - C)) x rank C
    assert svd_shapes == {"factor": [(64, 64)] * 3 + [(20, 20)] * 2, "norm": []}


def test_oblique_projection_4x4(svd_calls, inv_calls):
    rng = np.random.default_rng(0)
    R = Subspace(4, np.linalg.qr(_gauss(rng, 4, 2))[0])
    N = Subspace(4, np.linalg.qr(_gauss(rng, 4, 2))[0])
    svd_calls.update(qr=0)
    oblique_projection(R, N)
    # the complement of N from its frame's QR, then one 2x2 SVD of
    # K = N-perp* W_R gives the overlap test and the projection
    assert svd_calls == {"factor": 1, "norm": 0, "qr": 1}
    assert inv_calls == [0]


def _planes_sharing_a_line():
    """Two 2-dim subspaces of C^4 whose meet is 1-dimensional."""
    rng = np.random.default_rng(0)
    F = np.linalg.qr(_gauss(rng, 4, 4))[0]
    tilt = (F[:, 1] + 2.0 * F[:, 2]) / np.sqrt(5.0)
    return Subspace(4, F[:, :2]), Subspace(4, np.column_stack([F[:, 0], tilt]))


def test_angles_with_a_1dim_meet(svd_calls):
    M, N = _planes_sharing_a_line()
    svd_calls.update(qr=0)
    ap = angles(M, N)
    assert ap.dixmier_cos == pytest.approx(1.0, abs=1e-12)
    assert ap.friedrichs_cos == pytest.approx(1 / np.sqrt(5.0), abs=1e-12)
    # both cosines and the meet's dimension from one SVD of the stacked
    # bases (3 when the meet and the two deflated bases were factored apart)
    assert svd_calls == {"factor": 1, "norm": 0, "qr": 0}


def test_subspace_meet_1dim(svd_calls):
    M, N = _planes_sharing_a_line()
    svd_calls.update(qr=0)
    assert subspace_meet(M, N).dim == 1
    # the meet's basis comes from the stacked bases' near-null singular
    # vectors, with no further QR or SVD
    assert svd_calls == {"factor": 1, "norm": 0, "qr": 0}


def _not_complementable_4x4():
    A = np.zeros((4, 4))
    A[:2, :2] = [[2.0, 1.0], [1.0, 3.0]]
    A[2, 2] = 1.0
    A[3, 0] = 1.0  # R(A21) leaves R(A22): not complementable
    e = np.eye(4)
    return A, Subspace(4, e[:, :2]), Subspace(4, e[:, :2])


def test_complementability_report_4x4(svd_calls):
    report = complementability(*_not_complementable_4x4())
    assert not report.weakly
    # the corner, and one QR each for the complements of S and T
    assert svd_calls == {"factor": 1, "norm": 0, "qr": 2}
    # the two images whose Dixmier cosines against S and T make the angle
    # cross-check, factored once
    report.angle_check
    report.angle_check
    assert svd_calls == {"factor": 3, "norm": 0, "qr": 2}


def test_parallel_sum_64x64(svd_calls, gate_calls):
    rng = np.random.default_rng(0)
    res = parallel_sum(_gauss(rng, 64, 64), _gauss(rng, 64, 64))
    assert svd_calls == {"factor": 1, "norm": 0, "qr": 0}
    # summability, decided once on the factors of A + B
    assert gate_calls == [1]
    # the exact route disagreement needs at most one norm per pair of the
    # three distinct routes; how many the Frobenius pruning skips depends on
    # rounding
    res.max_route_disagreement
    res.max_route_disagreement
    assert svd_calls["factor"] == 1
    assert 1 <= svd_calls["norm"] <= 3


def test_parallel_subtract_64x64(svd_calls, gate_calls):
    rng = np.random.default_rng(0)
    A = _gauss(rng, 64, 48) @ _gauss(rng, 48, 64)
    C = gen_da_member(A, np.random.default_rng(1))
    svd_calls.update(factor=0, norm=0, qr=0)
    parallel_subtract(C, A)
    # A and C - A for the D_A test; the parallel sum C ∥ (-A) reuses the
    # factors of C - A (3 SVDs before they were shared)
    assert svd_calls == {"factor": 2, "norm": 0, "qr": 0}
    # the D_A test is the summability decision: C - A against A, then A
    # against C - A; the sum tests nothing again (the D_A test wrote its
    # four inclusions inline, so no gate was counted)
    assert gate_calls == [2]


def test_in_da_stops_before_factoring_d(svd_calls):
    u, v, w = np.eye(3)
    A = np.outer(u, v)
    D = np.outer(u, w)  # R(D) = R(A), but R(D*) is not R(A*)
    assert not in_da(A + D, A)
    # A alone: the corange inclusion fails before D is factored (2 SVDs
    # when D was factored once its range inclusion held)
    assert svd_calls == {"factor": 1, "norm": 0, "qr": 0}


def _triple_with_auxiliary(rng, n, k):
    """A generic 64x64 A with generic S and T of one dimension k (the corner
    is invertible) and an auxiliary L with R(L) = T and R(L*) = S."""
    S = Subspace(n, np.linalg.qr(_gauss(rng, n, k))[0])
    T = Subspace(n, np.linalg.qr(_gauss(rng, n, k))[0])
    L = gen_with_ranges(T, S, rng)
    return _gauss(rng, n, n), S, T, L


def test_recover_shorted_64x64(svd_calls, gate_calls):
    A, S, T, L = _triple_with_auxiliary(np.random.default_rng(0), 64, 40)
    svd_calls.update(factor=0, norm=0, qr=0)
    recover_shorted(A, S, T, L, 1)
    # L once, for both subspace checks, for the frames of the corner and,
    # scaled, for the D_A test; the corner; A + L; the blend minus L, whose
    # factors the subtraction reuses (9 SVDs when each call factored anew).
    # L's singular vectors frame S and T, so the caller-built subspaces take
    # no complement QR (2 when the corner was split in their own frames)
    assert svd_calls == {"factor": 4, "norm": 0, "qr": 0}
    # the summability of (A, L) once, then the D_A test, which decides the
    # subtraction, both ways (1 while the D_A test wrote its inclusions
    # inline)
    assert gate_calls == [3]


def test_recover_shorted_decides_complementability_in_the_auxiliary_frames(
        svd_calls, gate_calls):
    A, S, T = _not_complementable_4x4()
    L = gen_with_ranges(T, S, np.random.default_rng(0))
    svd_calls.update(factor=0, norm=0, qr=0)
    with pytest.raises(NotComplementable) as info:
        recover_shorted(A, S, T, L, 1)
    # L, then the corner in L's singular frames: the caller-built S and T
    # take no complement QR, and no sum is factored or gated
    assert svd_calls == {"factor": 2, "norm": 0, "qr": 0}
    assert gate_calls == [0]
    want = complementability(A, S, T)
    got = info.value.report
    assert not got.weakly
    assert (got.weakly, got.strongly) == (want.weakly, want.strongly)


def test_recover_shorted_checks_the_auxiliary_before_complementability(svd_calls):
    # an invalid L and a triple that is not complementable: BadAuxiliary,
    # from L's one SVD, before any corner is factored
    A, S, T = _not_complementable_4x4()
    svd_calls.update(factor=0, norm=0, qr=0)
    with pytest.raises(BadAuxiliary):
        recover_shorted(A, S, T, np.eye(4), 1)
    assert svd_calls == {"factor": 1, "norm": 0, "qr": 0}


def test_shorted_via_limit_64x64(svd_calls, gate_calls):
    A, S, T, L = _triple_with_auxiliary(np.random.default_rng(0), 64, 40)
    schedule = (1, 2, 4)
    svd_calls.update(factor=0, norm=0, qr=0)
    record = shorted_via_limit(A, S, T, L, schedule=schedule)
    assert record.schedule == list(schedule)
    # the corner and the complements of S and T for the target, the
    # auxiliary once for both subspace checks, then one stacked SVD of
    # A + n L for the whole schedule (2 + len(schedule) when each entry was
    # factored apart), and one singular-value call for every error
    assert svd_calls == {"factor": 3, "norm": 1, "qr": 2}
    # one summability decision for the whole stack ([len(schedule)] when
    # each entry decided apart, 4 when the first usable one was tested twice)
    assert gate_calls == [1]


_FRAME_CALLS = {
    "shorted": lambda A, S, T, L: shorted(A, S, T),
    "complementability": lambda A, S, T, L: complementability(A, S, T).weakly,
    "complementability-false": lambda A, S, T, L: complementability(A, S, T).weakly,
    "recover_shorted": lambda A, S, T, L: recover_shorted(A, S, T, L, 1),
    "shorted_via_limit": lambda A, S, T, L: shorted_via_limit(A, S, T, L, schedule=(1, 2)),
}


@pytest.mark.parametrize("name", list(_FRAME_CALLS))
def test_shorting_routes_build_no_subspace_and_no_block_matrix(name, builds):
    A, S, T, L = _triple_with_auxiliary(np.random.default_rng(0), 6, 3)
    if name == "complementability-false":
        (A, S, T), L = _not_complementable_4x4(), None
    builds.update(subspace=0, block=0)
    result = _FRAME_CALLS[name](A, S, T, L)
    if name.startswith("complementability"):
        assert result is (name == "complementability")
    # the complements of S and T come from their frames (from L's singular
    # vectors in recover_shorted), and the auxiliary's range and corange
    # are compared as projections (Subspaces built when
    # each was validated: 2 for shorted and complementability, 4 for
    # recover_shorted and shorted_via_limit); the witness projections
    # multiply the frames out (np.block twice in shorted and a
    # complementable report)
    assert builds == {"subspace": 0, "block": 0}


def test_summability_8x8(svd_calls):
    rng = np.random.default_rng(0)
    report = summability(_gauss(rng, 8, 8), _gauss(rng, 8, 8))
    assert report.strongly
    assert svd_calls == {"factor": 1, "norm": 0, "qr": 0}
    # ||A||, ||B|| and the four defect residuals
    report.defects
    report.defects
    assert svd_calls == {"factor": 1, "norm": 6, "qr": 0}


def test_schur_compression_3x3(svd_calls):
    A = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 1.0], [0.5, 1.0, 2.0]])
    S = Subspace(3, np.eye(3)[:, :1])
    T = Subspace(3, np.eye(3)[:, 1:2])
    schur_compression(A, S, T)
    # the matrix-only path: no witness projections, no diagnostic norms;
    # the corner, and one QR each for the complements of S and T
    assert svd_calls == {"factor": 1, "norm": 0, "qr": 2}


def test_gen_da_member_4x4(svd_calls):
    A = _gauss(np.random.default_rng(0), 4, 4)
    gen_da_member(A, np.random.default_rng(1))
    # one factorization gives both the rank and the singular vectors
    assert svd_calls == {"factor": 1, "norm": 0, "qr": 0}


def test_random_idempotent_takes_one_svd(svd_calls):
    for n in range(1, 9):
        for k in range(n + 1):
            before = dict(svd_calls)
            assert _random_idempotent(trial_rng(3, n, k), n, k, shortops.DEFAULT_TOL) is not None
            # the two drawn frames, then oblique_projection's one SVD of
            # N-perp* R, which also gives the least sine through ||Q||
            # (none for k = 0; a separate sine took one more at k >= 1)
            made = {key: svd_calls[key] - before[key] for key in svd_calls}
            assert made == {"factor": int(k > 0), "norm": 0, "qr": 2}, (n, k)


def test_shorted_range_nullspace_ok_6x6(svd_calls):
    A, S, T = gen_complementable(6, 6, 3, 3, 2, np.random.default_rng(0))
    sig = shorted(A, S, T).shorted
    svd_calls.update(factor=0, norm=0, qr=0)
    assert shorted_range_nullspace_ok(A, S, T, sig, shortops.DEFAULT_TOL)
    # A and sig once each (ranges, null space, norms and the scaled rank),
    # then the meet and the join; every residual settles from Frobenius bounds
    assert svd_calls == {"factor": 4, "norm": 0, "qr": 0}


def test_minus_route_agreement_trials(svd_calls):
    names = [name for name, _ in INVARIANTS]
    check = dict(INVARIANTS)["minus-route-agreement"]
    counts = []
    for trial in range(8):
        before = svd_calls["factor"]
        rng = trial_rng(11, names.index("minus-route-agreement"), trial)
        assert check(rng, GenConfig(), shortops.DEFAULT_TOL) is True
        counts.append(svd_calls["factor"] - before)
    # C and B - C once each, for the angle screen and the comparison, then B
    # and the one or two splits, none for a C of rank 0 (trial 2); mode-0
    # trials factor B once more to build C (two more per trial when the
    # screen factored C and B - C apart from minus_leq: 5, 8, 8, 5, 5, 5, 6, 6;
    # 6 in trial 2 while each split factored the stacked bases)
    assert counts == [3, 6, 4, 3, 3, 3, 4, 4]


def test_reduced_solution_minimal_norm_trials(svd_calls):
    names = [name for name, _ in INVARIANTS]
    check = dict(INVARIANTS)["reduced-solution-minimal-norm"]
    factors, norms = [], []
    for trial in range(8):
        before = dict(svd_calls)
        rng = trial_rng(11, names.index("reduced-solution-minimal-norm"), trial)
        assert check(rng, GenConfig(), shortops.DEFAULT_TOL)
        factors.append(svd_calls["factor"] - before["factor"])
        norms.append(svd_calls["norm"] - before["norm"])
    # A once for the draw's condition screen and the null basis, once inside
    # reduced_solution; the norms are ||D|| and the competing solution's, by
    # SVD when neither side is 2 or less (the screen took A's singular values
    # in one more SVD when the draw dropped them: norms 1, 3, 1, 1, 1, 3, 3, 3)
    assert factors == [2] * 8
    assert norms == [0, 2, 0, 0, 0, 2, 2, 2]


def test_limit_convergence_trials(svd_calls):
    names = [name for name, _ in INVARIANTS]
    check = dict(INVARIANTS)["limit-convergence"]
    factors, norms = [], []
    for trial in range(8):
        before = dict(svd_calls)
        rng = trial_rng(11, names.index("limit-convergence"), trial)
        assert check(rng, GenConfig(), shortops.DEFAULT_TOL) is True
        factors.append(svd_calls["factor"] - before["factor"])
        norms.append(svd_calls["norm"] - before["norm"])
    # the corner (none when it is empty) and the auxiliary, then one stacked
    # SVD of A + n B for the 17 schedule points (18 or 19 when each point was
    # factored apart: 18, 19, 19, 18, 19, 19, 18, 19)
    assert factors == [2, 3, 3, 2, 3, 3, 2, 3]
    # the condition screens of A and B, one singular-value call for the 17
    # errors, and ||A|| by SVD when neither side is 2 or less (17 error
    # norms apart: 20, 20, 2, 20, 2, 20, 2, 20, the 2 where every point
    # of a 2-sided matrix took the closed form)
    assert norms == [4, 4, 3, 4, 3, 4, 3, 4]
