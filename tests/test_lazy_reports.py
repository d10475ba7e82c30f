"""Reported norms computed on first read equal the eager formulas exactly.

shorted's diagnostics (with the products Q A and A P), the summability
defects, the parallel sum's route disagreement (with the swapped route
B - B (A+B)^+ B), the reduced solution's residuals and the complementability
angle check decide nothing, so each is computed when first read.  Each test
here computes the value by its eager formula right after the call, then
overwrites the complex128 inputs (which ``as_operator`` does not copy) and
the returned matrices in place, and requires every later read to give the
value of the formula bit for bit.  A report that kept a reference to a
caller-owned array instead of a copy would read the overwritten entries.
"""

import numpy as np
import pytest

from shortops import (
    DEFAULT_TOL,
    NotComplementable,
    NotSummable,
    Subspace,
    complementability,
    opnorm,
    parallel_sum,
    reduced_solution,
    shorted,
    summability,
)
from shortops.geometry import _largest_cosine
from shortops.numcore import FundamentalSubspaces, max_opnorm, _spectrum
from shortops.parallel import SummabilityDefects
from shortops.shorting import (
    ShortedDiagnostics,
    _complementable_blocks,
    _schur_complement,
    block_decompose,
)

TOL = DEFAULT_TOL


def _gauss(rng, m, n, scale=3.0):
    """Complex128 draws with norms well above 1, so the max(||X||, 1)
    anchors read the operand."""
    return scale * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))


def _overwrite(*arrays):
    for a in arrays:
        a[...] = 7.0 - 2.0j


def _basis(rng, n, k):
    return np.linalg.qr(_gauss(rng, n, k))[0]


def _complementable_triple(rng, n, k):
    """A generic A with generic S and T of one dimension k: the corner is
    invertible, so the triple is complementable."""
    return _gauss(rng, n, n), _basis(rng, n, k), _basis(rng, n, k)


def _summable_pair(rng, m, n, r):
    """A and B = G1 G2 - A with A = G1 X G2, so R(A) ⊆ R(A+B) and
    R(A*) ⊆ R((A+B)*)."""
    G1, G2 = _gauss(rng, m, r), _gauss(rng, r, n)
    A = G1 @ _gauss(rng, r, r) @ G2
    return A, G1 @ G2 - A


def _non_complementable_triple(rng):
    """A 4x4 triple whose A21 leaves the range of a rank-1 corner."""
    U, V = _basis(rng, 4, 4), _basis(rng, 4, 4)
    blocks = _gauss(rng, 4, 4)
    blocks[2:, 2:] = np.outer(_gauss(rng, 2, 1), _gauss(rng, 1, 2))
    return U @ blocks @ V.conj().T, V[:, :2].copy(), U[:, :2].copy()


def _eager_diagnostics(A, S, T, res):
    blocks, corner = _complementable_blocks(A, S, T, TOL)
    _, gap, *_ = _schur_complement(blocks.A11, blocks.A12, blocks.A21, corner, A, TOL)
    scale = max(opnorm(A), 1.0)
    QA = res.Q @ A
    AP = A @ res.P
    return ShortedDiagnostics(
        route_disagreement=opnorm(gap) / scale,
        qa_ap_gap=opnorm(QA - AP) / scale,
        qa_residual=opnorm(QA - res.shorted) / scale,
        ap_residual=opnorm(AP - res.shorted) / scale,
    )


def _eager_angle_check(A, S, T):
    blocks = block_decompose(A, S, T, TOL)
    corange_image = _spectrum(A.conj().T @ blocks.t_perp_basis, TOL).range_basis
    range_image = _spectrum(A @ blocks.s_perp_basis, TOL).range_basis
    return (_largest_cosine(blocks.s_basis, corange_image),
            _largest_cosine(blocks.t_basis, range_image))


def _eager_defects(A, B):
    total = _spectrum(A + B, TOL)
    W, V = total.range_basis, total.corange_basis
    As, Bs = A.conj().T, B.conj().T
    na = max(opnorm(A), 1.0)
    nb = max(opnorm(B), 1.0)
    return SummabilityDefects(
        a_range=opnorm(A - W @ (W.conj().T @ A)) / na,
        a_corange=opnorm(As - V @ (V.conj().T @ As)) / na,
        b_range=opnorm(B - W @ (W.conj().T @ B)) / nb,
        b_corange=opnorm(Bs - V @ (V.conj().T @ Bs)) / nb,
    )


def _eager_route_disagreement(A, B, res):
    swapped = B - B @ _spectrum(A + B, TOL).pinv() @ B
    return max_opnorm([res.sum - res.route_reduced, res.sum - swapped,
                       res.route_reduced - swapped])


@pytest.mark.parametrize("n,k", [(2, 1), (5, 3), (6, 2)])
def test_shorted_diagnostics(n, k):
    A, Sb, Tb = _complementable_triple(np.random.default_rng(n), n, k)
    S, T = Subspace(n, Sb), Subspace(n, Tb)
    res = shorted(A, S, T)
    expected = _eager_diagnostics(A, S, T, res)
    _overwrite(A, Sb, Tb, res.shorted, res.E, res.F, res.P, res.Q)
    assert res.diagnostics == expected
    assert res.diagnostics is res.diagnostics


@pytest.mark.parametrize("n,k", [(3, 2), (5, 3)])
def test_complementability_angle_check(n, k):
    A, Sb, Tb = _complementable_triple(np.random.default_rng(10 + n), n, k)
    S, T = Subspace(n, Sb), Subspace(n, Tb)
    report = complementability(A, S, T)
    assert report.weakly
    expected = _eager_angle_check(A, S, T)
    w = report.witnesses
    _overwrite(A, Sb, Tb, w.E, w.F, w.P_hat, w.Q_hat, w.M_r, w.M_l)
    assert report.angle_check == expected
    assert max(expected) < 1.0


def test_not_complementable_report():
    A, Sb, Tb = _non_complementable_triple(np.random.default_rng(3))
    S, T = Subspace(4, Sb), Subspace(4, Tb)
    with pytest.raises(NotComplementable) as info:
        shorted(A, S, T)
    report = info.value.report
    assert not report.weakly and report.witnesses is None
    expected = _eager_angle_check(A, S, T)
    assert max(expected) == pytest.approx(1.0)
    _overwrite(A, Sb, Tb)
    assert report.angle_check == expected


@pytest.mark.parametrize("m,n,r", [(2, 2, 2), (4, 6, 3), (7, 5, 5)])
def test_parallel_sum_route_disagreement(m, n, r):
    A, B = _summable_pair(np.random.default_rng(m * n), m, n, r)
    res = parallel_sum(A, B)
    expected = _eager_route_disagreement(A, B, res)
    _overwrite(A, B, res.sum, res.route_reduced)
    assert res.max_route_disagreement == expected


def test_parallel_sum_swapped_route_formed_on_read(monkeypatch):
    calls = [0]
    real = FundamentalSubspaces.pinv

    def counting(self):
        calls[0] += 1
        return real(self)

    monkeypatch.setattr(FundamentalSubspaces, "pinv", counting)
    A, B = _summable_pair(np.random.default_rng(9), 5, 4, 3)
    res = parallel_sum(A, B)
    # the Schur-complement core only; (A+B)^+ for the swapped route waits
    assert calls == [1]
    expected = _eager_route_disagreement(A, B, res)
    _overwrite(B)
    calls[0] = 0
    assert res.max_route_disagreement == expected
    assert res.max_route_disagreement == expected
    assert calls == [1]


@pytest.mark.parametrize("m,n,r", [(2, 2, 1), (4, 6, 2), (6, 6, 6)])
def test_summability_defects(m, n, r):
    rng = np.random.default_rng(100 + m * n + r)
    total = _gauss(rng, m, r) @ _gauss(rng, r, n)
    A = _gauss(rng, m, n)
    B = total - A                      # R(A) leaves R(A+B) unless r is full
    report = summability(A, B)
    expected = _eager_defects(A, B)
    _overwrite(A, B)
    assert report.defects == expected
    assert report.strongly == (r == min(m, n))


def test_not_summable_report():
    rng = np.random.default_rng(5)
    A = _gauss(rng, 4, 4)
    B = _gauss(rng, 4, 3) @ _gauss(rng, 3, 4) - A
    with pytest.raises(NotSummable) as info:
        parallel_sum(A, B)
    report = info.value.report
    expected = _eager_defects(A, B)
    _overwrite(A, B)
    assert report.defects == expected
    assert expected.a_range > TOL.eq_rel and not report.strongly


@pytest.mark.parametrize("m,n,k", [(2, 2, 1), (5, 4, 3), (6, 6, 2)])
def test_reduced_solution_residuals(m, n, k):
    rng = np.random.default_rng(200 + m + n + k)
    A = _gauss(rng, m, n - 1) @ _gauss(rng, n - 1, n)   # rank-deficient
    B = A @ _gauss(rng, n, k)
    sol = reduced_solution(A, B)
    Vr = _spectrum(A, TOL).corange_basis
    D = sol.D
    expected = (opnorm(A @ D - B) / max(opnorm(B), 1.0),
                opnorm(D) ** 2,
                opnorm(D - Vr @ (Vr.conj().T @ D)))
    _overwrite(A, B, sol.D)
    assert (sol.residual, sol.norm_sq, sol.corange_defect) == expected
