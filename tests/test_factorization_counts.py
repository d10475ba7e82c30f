"""SVDs made by single public calls, pinned as counts.

Each call is the first of its kind and shape, with the library's caches
cleared, on fixed inputs: parallel_sum 2x2, shorted 2x2 (the README
example), minus_leq 3x3 on a singular-triple subset, parallel_sum 64x64.
A count that rises means a factorization came back; one that falls is a
gain to pin here.
"""

import numpy as np
import pytest

from shortops import Subspace, minus_leq, parallel_sum, shorted
from shortops.parallel import _first_copy_subspace


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
def svd_calls(monkeypatch):
    """Counts of np.linalg.svd calls: full factorizations, and singular
    values alone (the spectral norms opnorm computes)."""
    counts = {"factor": 0, "norm": 0}
    real = np.linalg.svd

    def counting(a, *args, **kwargs):
        counts["factor" if kwargs.get("compute_uv", True) else "norm"] += 1
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    _first_copy_subspace.cache_clear()
    yield counts
    _first_copy_subspace.cache_clear()


def test_parallel_sum_2x2(svd_calls):
    rng = np.random.default_rng(0)
    parallel_sum(_gauss(rng, 2, 2), _gauss(rng, 2, 2))
    assert svd_calls == {"factor": 11, "norm": 0}


def test_shorted_2x2(svd_calls):
    S = Subspace(2, np.eye(2)[:, :1])
    shorted(np.array([[2.0, 1.0], [1.0, 1.0]]), S, S)
    assert svd_calls == {"factor": 6, "norm": 0}


def test_minus_leq_3x3(svd_calls):
    C, B = _minus_pair(np.random.default_rng(0))
    assert minus_leq(C, B).holds
    assert svd_calls == {"factor": 11, "norm": 0}


def test_parallel_sum_64x64(svd_calls):
    rng = np.random.default_rng(0)
    parallel_sum(_gauss(rng, 64, 64), _gauss(rng, 64, 64))
    assert svd_calls["factor"] == 11
    # the exact route disagreement needs at most one norm per pair of the
    # four routes; how many the Frobenius pruning skips depends on rounding
    assert svd_calls["norm"] <= 6
