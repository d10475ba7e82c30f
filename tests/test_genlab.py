import ast
import inspect

import numpy as np
import pytest

from shortops import (
    BadDims,
    GenConfig,
    Subspace,
    ZeroOperator,
    complementability,
    gen_complementable,
    gen_da_member,
    gen_subspace,
    gen_with_ranges,
    in_da,
    run_suite,
)
from shortops import genlab
from shortops.errors import NotComplementable, NotSummable
from shortops.genlab import INVARIANTS, gauss, trial_rng


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(dim_range=(0, 4))
    with pytest.raises(ValueError):
        GenConfig(dim_range=(5, 3))
    with pytest.raises(ValueError):
        GenConfig(trials=0)
    with pytest.raises(ValueError):
        GenConfig(seed=-1)
    # a condition number is at least 1: a smaller cap skips every screened
    # draw, and a NaN or infinite cap cannot be written in the JSON report
    for cap in (0.0, -5.0, 0.999, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="condition_cap must be finite and >= 1"):
            GenConfig(condition_cap=cap)
    assert GenConfig(condition_cap=1.0).condition_cap == 1.0


def test_gen_subspace():
    rng = trial_rng(1, 0, 0)
    assert gen_subspace(3, 0, rng).dim == 0
    full = gen_subspace(3, 3, rng)
    assert full.dim == 3
    assert np.allclose(full.basis @ full.basis.conj().T, np.eye(3))
    S = gen_subspace(4, 2, rng)
    assert np.allclose(S.basis.conj().T @ S.basis, np.eye(2))
    with pytest.raises(BadDims):
        gen_subspace(3, 4, rng)


@pytest.mark.parametrize("n", [*range(1, 17), 64])
def test_gen_subspace_basis_is_the_reduced_qr(n):
    # the complete QR of the draw frames the subspace, and its leading
    # columns are the reduced QR's bit for bit: the same draw, the same
    # basis and the same rng stream afterwards
    for dim in range(n + 1):
        rng, reference = trial_rng(n, dim, 0), trial_rng(n, dim, 0)
        S = gen_subspace(n, dim, rng)
        assert np.array_equal(S.basis, np.linalg.qr(gauss(reference, n, dim))[0])
        assert rng.bit_generator.state == reference.bit_generator.state


def test_gen_complementable_soundness():
    rng = trial_rng(2, 0, 0)
    for _ in range(40):
        m, n = [int(v) for v in rng.integers(2, 8, size=2)]
        s_dim = int(rng.integers(0, n + 1))
        t_dim = int(rng.integers(0, m + 1))
        r22 = int(rng.integers(0, min(n - s_dim, m - t_dim) + 1))
        A, S, T = gen_complementable(m, n, s_dim, t_dim, r22, rng)
        assert complementability(A, S, T).strongly
    with pytest.raises(BadDims):
        gen_complementable(3, 3, 1, 1, 5, rng)


def test_gen_complementable_zero_corner():
    rng = trial_rng(3, 0, 0)
    A, S, T = gen_complementable(4, 4, 2, 2, 0, rng)
    # rank-0 corner forces both off-diagonal blocks to vanish
    from shortops import block_decompose

    blocks = block_decompose(A, S, T)
    assert np.allclose(blocks.A21, 0.0, atol=1e-12)
    assert np.allclose(blocks.A12, 0.0, atol=1e-12)
    assert complementability(A, S, T).strongly


def test_gen_with_ranges():
    rng = trial_rng(4, 0, 0)
    T = gen_subspace(4, 2, rng)
    S = gen_subspace(5, 2, rng)
    B = gen_with_ranges(T, S, rng)
    assert Subspace.range_of(B).equals(T)
    assert Subspace.range_of(B.conj().T).equals(S)
    with pytest.raises(BadDims):
        gen_with_ranges(gen_subspace(4, 2, rng), gen_subspace(5, 3, rng), rng)


def test_gen_with_ranges_unit_vectors():
    e1 = Subspace(3, np.eye(3, dtype=np.complex128)[:, :1])
    rng = trial_rng(5, 0, 0)
    B = gen_with_ranges(e1, e1, rng)
    assert B.shape == (3, 3)
    assert np.allclose(B[1:], 0.0) and np.allclose(B[:, 1:], 0.0)
    assert B[0, 0] != 0


def test_gen_da_member():
    rng = trial_rng(6, 0, 0)
    for _ in range(30):
        m, n = [int(v) for v in rng.integers(1, 6, size=2)]
        r = int(rng.integers(1, min(m, n) + 1))
        A = (rng.standard_normal((m, r)) @ rng.standard_normal((r, n))).astype(complex)
        C = gen_da_member(A, rng)
        assert in_da(C, A)
    with pytest.raises(ZeroOperator):
        gen_da_member(np.zeros((2, 2)), rng)


def test_run_suite_deterministic():
    cfg = GenConfig(seed=42, trials=3)
    first = run_suite(cfg).to_dict()
    second = run_suite(cfg).to_dict()
    assert first == second


def test_run_suite_covers_all_invariants_cleanly():
    report = run_suite(GenConfig(seed=1234, trials=8))
    assert set(report.outcomes) == {name for name, _ in INVARIANTS}
    assert report.total_failures == 0
    for name, outcome in report.outcomes.items():
        assert outcome.passed + outcome.failed + outcome.skipped == 8, name


# Per-invariant (passed, failed, skipped) of run_suite(GenConfig(seed=11,
# trials=30)); every invariant not listed passes all 30 trials.  A change
# that moves a suite verdict updates this golden and lists the move.
_GOLDEN_SEED_11 = {
    "iterated-shorting": (20, 0, 10),
    "shorting-direction": (22, 0, 8),
}
# The factorizations the same run makes: full SVDs, singular values alone
# and QRs.  A change that moves a count updates it and says why.
_GOLDEN_SEED_11_CALLS = {"svd": 3688, "svdvals": 1013, "qr": 1546}


def test_run_suite_golden_counts(calls):
    report = run_suite(GenConfig(seed=11, trials=30))
    counts = {name: (o.passed, o.failed, o.skipped) for name, o in report.outcomes.items()}
    assert counts == {name: _GOLDEN_SEED_11.get(name, (30, 0, 0)) for name, _ in INVARIANTS}
    assert {kind: calls[kind] for kind in _GOLDEN_SEED_11_CALLS} == _GOLDEN_SEED_11_CALLS


def test_iterated_shorting_skip_is_the_library_gate(monkeypatch):
    # seed 11, trial 0 skips: shorted(A, S, T) succeeds and shorted(first,
    # S_hat, T_hat) raises NotComplementable, the (first, S_hat, T_hat) gate
    real, calls = genlab.shorted, []

    def recorded(A, S, T, tol):
        calls.append(A)
        try:
            result = real(A, S, T, tol)
        except NotComplementable as exc:
            calls.append(exc)
            raise
        calls.append(result.shorted)
        return result

    monkeypatch.setattr(genlab, "shorted", recorded)
    index = _REGISTERED.index("iterated-shorting")
    check = INVARIANTS[index][1]
    assert check(trial_rng(11, index, 0), GenConfig(seed=11), genlab.DEFAULT_TOL) is None
    _, first, operand, raised = calls
    assert operand is first
    assert isinstance(raised, NotComplementable) and not raised.report.weakly


def test_psd_shorted_dominated_counts_not_complementable_as_failure(monkeypatch):
    # positive operators are always complementable, so the library's
    # NotComplementable is a failure through run_suite's error mapping
    def refuse(A, S, T, tol):
        raise NotComplementable(None)

    monkeypatch.setattr(genlab, "shorted", refuse)
    monkeypatch.setattr(genlab, "INVARIANTS", [
        (name, check if name == "psd-shorted-dominated" else lambda *_: True)
        for name, check in INVARIANTS])
    outcome = run_suite(GenConfig(seed=11, trials=5)).outcomes["psd-shorted-dominated"]
    assert outcome.passed == 0 and outcome.failed > 0
    assert outcome.failed + outcome.skipped == 5


def test_summable_draws_count_not_summable_as_failure(monkeypatch):
    # draw_summable screens only the condition number: a pair its
    # construction fails to make summable is a failure of the body's
    # parallel_sum, never a skip
    def refuse(A, B, tol):
        raise NotSummable(None)

    summed = {"parallel-commutativity", "parallel-route-agreement",
              "parallel-rank-intersection", "strong-sum-direction"}
    monkeypatch.setattr(genlab, "parallel_sum", refuse)
    monkeypatch.setattr(genlab, "INVARIANTS", [
        (name, check if name in summed else lambda *_: True) for name, check in INVARIANTS])
    outcomes = run_suite(GenConfig(seed=11, trials=5)).outcomes
    for name in summed:
        assert outcomes[name].passed == 0 and outcomes[name].failed > 0, name
        assert outcomes[name].failed + outcomes[name].skipped == 5, name


# The library decisions a draw leaves to the body that uses its operands.
_LIBRARY_DECISIONS = {"summability", "complementability", "in_da", "parallel_sum", "shorted"}


def test_draws_decide_no_library_precondition():
    # walk each draw and every genlab function it calls, transitively
    tree = ast.parse(inspect.getsource(genlab))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def called(node):
        return {sub.func.id for sub in ast.walk(node)
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)}

    draws = [name for name in functions if name.lstrip("_").startswith("draw_")]
    assert {"draw_summable", "draw_complementable", "_draw_inclusion_instance"} <= set(draws)
    for draw in draws:
        seen, todo = set(), [draw]
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(called(functions[name]) & functions.keys())
        names = set().union(*(called(functions[name]) for name in seen))
        assert not names & _LIBRARY_DECISIONS, (draw, names & _LIBRARY_DECISIONS)


# Registration order: a trial's entropy is (seed, position, trial), so this
# list fixes every replay seed.
_REGISTERED = [
    "friedrichs-complement-symmetry", "dixmier-intersection-criterion",
    "ortho-projection-laws", "oblique-projection-idempotent",
    "douglas-equivalence", "reduced-solution-minimal-norm",
    "reduced-solution-nullspace", "collapse-complementability",
    "shorted-scalar-homogeneity", "shorted-adjoint",
    "shorted-idempotent-operation", "shorted-hermitian",
    "shorted-range-nullspace", "shorted-qa-ap", "iterated-shorting",
    "projection-shorted", "psd-shorted-dominated",
    "schur-compression-identity", "shorting-direction", "minus-axioms",
    "minus-range-inclusion", "minus-projection-inheritance",
    "minus-route-agreement", "mitra-maximality", "parallel-commutativity",
    "parallel-route-agreement", "parallel-rank-intersection",
    "parallel-subtract-round-trip", "shorted-parallel-exchange",
    "limit-convergence", "strong-sum-direction", "collapse-summability",
    "recover-shorted-identity", "generator-soundness",
]


def test_invariants_registered_in_order():
    assert [name for name, _ in INVARIANTS] == _REGISTERED


def test_run_suite_calls_invariants_rewritten_in_place():
    cfg = GenConfig(seed=5, trials=2)
    plain = run_suite(cfg).to_dict()
    calls = dict.fromkeys(_REGISTERED, 0)

    def counted(name, check):
        def wrapper(rng, config, tol):
            calls[name] += 1
            return check(rng, config, tol)
        return wrapper

    saved = list(INVARIANTS)
    # the way a tracer wraps the bodies: the same list object, new entries
    INVARIANTS[:] = [(name, counted(name, check)) for name, check in saved]
    try:
        wrapped = run_suite(cfg).to_dict()
    finally:
        INVARIANTS[:] = saved
    assert calls == dict.fromkeys(_REGISTERED, 2)
    assert wrapped == plain


def test_run_suite_condition_cap_rejection():
    # an impossible cap rejects nearly every draw but never fails
    report = run_suite(GenConfig(seed=9, trials=6, condition_cap=1.0 + 1e-12))
    assert report.total_failures == 0
    skipped = sum(o.skipped for o in report.outcomes.values())
    assert skipped > 0


def test_failures_carry_reproduction_entropy():
    report = run_suite(GenConfig(seed=13, trials=2))
    assert report.failures == []
    # the entropy convention: the trial stream is rebuilt from the triple
    r1 = trial_rng(13, 4, 1).standard_normal(5)
    r2 = trial_rng(13, 4, 1).standard_normal(5)
    assert np.allclose(r1, r2)


@pytest.mark.xfail(strict=True, reason=(
    "the reverse subtraction round trip misses its fixed 1e-8 relative bound "
    "(error 4.5e-8) on an ill-conditioned draw; bounds relative to the "
    "operands' conditioning are open work"))
def test_replayed_parallel_subtract_round_trip():
    report = run_suite(GenConfig(seed=7703226341779245175, trials=1))
    assert report.outcomes["parallel-subtract-round-trip"].failed == 0


def test_skip_band_brackets_the_overlap_cutoff():
    # the band is on sin θ₁, which resolves the cutoff where 1 - cos θ₁
    # rounds to 0; planted sines a decade either side of the cutoff are
    # skipped, exact and forced meets and generic angles are scored
    from shortops.genlab import _AMBIG_HI, _AMBIG_LO, _ambiguous_minus_angles, _least_sine
    from shortops.numcore import DEFAULT_TOL, complement_basis, fundamental_subspaces

    rng = trial_rng(5, 0, 0)
    for n in range(2, 11):
        cutoff = 2.0 * np.arctan(DEFAULT_TOL.rank_rel * n)
        assert _AMBIG_LO < np.sin(cutoff) / 10.0 and np.sin(cutoff) * 10.0 < _AMBIG_HI
        F = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        for theta in (cutoff / 10.0, cutoff * 10.0):
            tilted = np.cos(theta) * F[:, :1] + np.sin(theta) * F[:, 1:2]
            sine = _least_sine(F[:, :1], complement_basis(tilted))
            assert abs(sine - np.sin(theta)) <= 1e-14  # rounding is absolute
            C, D = F[:, :1] @ F[:, :1].conj().T, tilted @ F[:, 1:2].conj().T
            assert _ambiguous_minus_angles(fundamental_subspaces(C), fundamental_subspaces(D))
        assert _least_sine(F[:, :1], complement_basis(F[:, :1])) <= _AMBIG_LO
        assert _least_sine(F[:, :2], F[:, 2:3]) == 0.0  # 2 > 1: the dimensions force a meet
        assert _least_sine(F[:, :0], F[:, :1]) == 1.0
        C = F[:, :1] @ F[:, :1].conj().T
        assert not _ambiguous_minus_angles(fundamental_subspaces(C), fundamental_subspaces(C))
        assert not _ambiguous_minus_angles(fundamental_subspaces(C),
                                           fundamental_subspaces(F[:, 1:] @ F[:, 1:].conj().T))
