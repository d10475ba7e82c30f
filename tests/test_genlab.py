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
from shortops.genlab import INVARIANTS, trial_rng


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(dim_range=(0, 4))
    with pytest.raises(ValueError):
        GenConfig(dim_range=(5, 3))
    with pytest.raises(ValueError):
        GenConfig(trials=0)
    with pytest.raises(ValueError):
        GenConfig(seed=-1)


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
