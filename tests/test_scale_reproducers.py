"""Known scale-dependent verdicts, pinned as strict xfails.

Each test states the scale-covariant answer: the verdict at scale 1 must
hold at every rescaling.  Today the thresholds are floored at
``rel * max(||anchor||, 1)``, so at small scales residuals that are large
relative to the operands pass as rounding noise.  A fix makes these pass,
and strict xfail then forces the marker off.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from shortops import NotSummable, Subspace, complementability, parallel_sum, range_leq

SCALE_FLOOR = pytest.mark.xfail(
    strict=True,
    raises=(AssertionError, pytest.fail.Exception),
    reason="thresholds floored at max(||anchor||, 1) are not scale-covariant",
)


def _bench_gen():
    """bench/gen.py, the benchmark's numpy-only input generators."""
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@SCALE_FLOOR
def test_parallel_sum_rejects_a_small_nonsummable_pair():
    A = np.diag([1.0, 0.0])
    E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotSummable):
        parallel_sum(A, E12)
    # today: returns 5e-10 * E11 instead of raising
    with pytest.raises(NotSummable):
        parallel_sum(1e-9 * A, 1e-9 * E12)


@SCALE_FLOOR
def test_range_leq_rejects_a_small_column_outside_the_range():
    e2 = np.array([[0.0], [1.0]])
    A = np.diag([1.0, 0.0])
    assert not range_leq(e2, A)
    # today: True
    assert not range_leq(1e-12 * e2, A)


@SCALE_FLOOR
def test_noncomplementable_triples_stay_so_at_small_scale():
    gen = _bench_gen()
    wrong = {}
    for scale in (1.0, 1e-9, 1e9):
        wrong[scale] = []
        for seed in range(20):
            t = gen.triple(np.random.default_rng(seed), 4, 4, 2, 2, 1,
                           complementable=False)
            S, T = Subspace(4, t["S"]), Subspace(4, t["T"])
            if complementability(scale * t["A"], S, T).weakly:
                wrong[scale].append(seed)
    # today: seeds 7, 12 and 19 are called complementable at 1e-9
    assert wrong == {1.0: [], 1e-9: [], 1e9: []}
