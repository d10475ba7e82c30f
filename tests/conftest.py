import numpy as np
import pytest


@pytest.fixture
def svd_calls(monkeypatch):
    """Counts of np.linalg.svd calls, full factorizations and singular
    values alone (the spectral norms opnorm computes), and of np.linalg.qr
    calls (subspace complements and drawn frames)."""
    counts = {"factor": 0, "norm": 0, "qr": 0}
    real_svd, real_qr = np.linalg.svd, np.linalg.qr

    def counting_svd(a, *args, **kwargs):
        counts["factor" if kwargs.get("compute_uv", True) else "norm"] += 1
        return real_svd(a, *args, **kwargs)

    def counting_qr(a, *args, **kwargs):
        counts["qr"] += 1
        return real_qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    return counts
