"""Values computed on first read equal the eager formulas exactly.

shorted's witnesses E, F, P and Q, the summability defects, the reduced
solution's residual matrix and norms, and the complementability witnesses
decide nothing, so each is computed when first read.  Each test here
computes the value by its eager formula right after the call, then
overwrites the complex128 inputs (which ``as_operator`` does not copy) and
the returned matrices in place, and requires every later read to give the
value of the formula bit for bit.  A report that kept a reference to a
caller-owned array instead of a copy would read the overwritten entries.
The counting tests pin that a call which is read only for its answer forms
none of these values: the weak reduced solutions in particular wait for a
read of E or F.

The parallel sum carries no route beside its sum; the routes it used to
carry, A (A+B)^+ B and B - B (A+B)^+ B, are formed here and checked
against the sum.
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
    parallel_subtract,
    parallel_sum,
    reduced_solution,
    shorted,
    summability,
)
from shortops import shorting
from shortops.douglas import _reduced_coeffs
from shortops.numcore import FundamentalSubspaces, _spectrum
from shortops.parallel import SummabilityDefects
from shortops.shorting import _complementable, _witness_projections

from _roots import abs_root_factors, root_factors
from test_parallel import route_gap

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


def _eager_shorted_witnesses(A, S, T):
    """E, F, P and Q as ``shorted`` formed them eagerly."""
    blocks, corner = _complementable(A, S, T, TOL)
    corner_pinv = corner.pinv()
    E_weak = _reduced_coeffs(root_factors(corner), blocks.A21)
    F_weak = _reduced_coeffs(abs_root_factors(corner), blocks.A12.conj().T)
    P, Q = _witness_projections(blocks, corner_pinv @ blocks.A21,
                                blocks.A12 @ corner_pinv)
    return (blocks.s_perp_basis @ E_weak @ blocks.s_basis.conj().T,
            blocks.s_perp_basis @ F_weak @ blocks.t_basis.conj().T, P, Q)


def _eager_witnesses(A, S, T):
    """The six complementability witnesses as the report formed them eagerly."""
    blocks, corner = _complementable(A, S, T, TOL)
    corner_pinv = corner.pinv()
    E, F_adj = corner_pinv @ blocks.A21, blocks.A12 @ corner_pinv
    P_hat, Q_hat = _witness_projections(blocks, E, F_adj)
    return (blocks.s_perp_basis @ E @ blocks.s_basis.conj().T,
            blocks.t_perp_basis @ F_adj.conj().T @ blocks.t_basis.conj().T,
            P_hat, Q_hat, np.eye(A.shape[1]) - P_hat, np.eye(A.shape[0]) - Q_hat)


def _route_reduced(A, B):
    """A (A+B)^+ B as F_A* E_B, from the weak reduced solutions through the
    polar factor of A + B."""
    total = _spectrum(A + B, TOL)
    F_A = _reduced_coeffs(abs_root_factors(total), A.conj().T)
    return F_A.conj().T @ _reduced_coeffs(root_factors(total), B)


def _bits(*arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def _rectangular_triple(rng):
    """A 5x4 A with dim S = 1 and dim T = 2: the corner is a generic 3x3,
    so the triple is complementable."""
    return _gauss(rng, 5, 4), _basis(rng, 4, 1), _basis(rng, 5, 2)


def _counting(monkeypatch, owner, name, counts):
    real = getattr(owner, name)

    def counted(*args):
        counts[name] = counts.get(name, 0) + 1
        return real(*args)

    monkeypatch.setattr(owner, name, counted)


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


def _shorted_triples():
    for n, k in [(2, 1), (5, 3), (6, 2)]:
        yield _complementable_triple(np.random.default_rng(n), n, k)
    yield _rectangular_triple(np.random.default_rng(4))


TRIPLE_IDS = ["2-1", "5-3", "6-2", "5x4"]  # n-k of the square triples


@pytest.mark.parametrize("triple", list(_shorted_triples()), ids=TRIPLE_IDS)
def test_shorted_witnesses(triple):
    A, Sb, Tb = (x.copy() for x in triple)
    S, T = Subspace(A.shape[1], Sb), Subspace(A.shape[0], Tb)
    res = shorted(A, S, T)
    expected = _bits(*_eager_shorted_witnesses(A, S, T))
    _overwrite(A, Sb, Tb, res.shorted)
    assert _bits(res.E, res.F, res.P, res.Q) == expected
    assert res.P is res.P and res.Q is res.Q


@pytest.mark.parametrize("triple", list(_shorted_triples()), ids=TRIPLE_IDS)
def test_complementability_witnesses(triple):
    A, Sb, Tb = (x.copy() for x in triple)
    S, T = Subspace(A.shape[1], Sb), Subspace(A.shape[0], Tb)
    report = complementability(A, S, T)
    expected = _bits(*_eager_witnesses(A, S, T))
    _overwrite(A, Sb, Tb)
    w = report.witnesses
    assert _bits(w.E, w.F, w.P_hat, w.Q_hat, w.M_r, w.M_l) == expected
    assert report.witnesses is w


def test_shorted_answer_forms_no_witness(monkeypatch):
    counts = {}
    _counting(monkeypatch, shorting, "_witness_projections", counts)
    _counting(monkeypatch, FundamentalSubspaces, "pinv", counts)
    A, Sb, Tb = _complementable_triple(np.random.default_rng(5), 5, 3)
    res = shorted(A, Subspace(5, Sb), Subspace(5, Tb))
    assert res.shorted.shape == (5, 5)
    assert counts == {"pinv": 1}
    assert res.P is res.P and res.Q.shape == (5, 5)
    assert counts == {"pinv": 1, "_witness_projections": 1}


def test_complementability_verdict_forms_no_witness(monkeypatch):
    counts = {}
    _counting(monkeypatch, FundamentalSubspaces, "pinv", counts)
    A, Sb, Tb = _complementable_triple(np.random.default_rng(6), 5, 2)
    report = complementability(A, Subspace(5, Sb), Subspace(5, Tb))
    assert report.weakly and counts == {}
    assert report.witnesses is report.witnesses
    assert counts == {"pinv": 1}


@pytest.mark.parametrize("m,n,r", [(2, 2, 2), (4, 6, 3), (7, 5, 5)])
def test_parallel_sum_route_reduced(m, n, r):
    A, B = _summable_pair(np.random.default_rng(m * n + 1), m, n, r)
    res = parallel_sum(A, B)
    expected = _bits(res.sum)
    assert opnorm(res.sum - _route_reduced(A, B)) <= 1e-9 * max(opnorm(A), opnorm(B))
    _overwrite(A, B)
    assert _bits(res.sum) == expected


@pytest.mark.parametrize("read", ["E", "F"])
def test_shorted_weak_solutions_wait_for_a_read(monkeypatch, read):
    counts = {}
    _counting(monkeypatch, shorting, "_weak_solutions", counts)
    A, Sb, Tb = _complementable_triple(np.random.default_rng(7), 5, 3)
    res = shorted(A, Subspace(5, Sb), Subspace(5, Tb))
    assert res.shorted.shape == (5, 5) and res.P.shape == (5, 5)
    assert counts == {}
    getattr(res, read)
    assert counts == {"_weak_solutions": 1}
    res.E, res.F    # E and F share one pair
    assert counts == {"_weak_solutions": 1}


def test_parallel_subtract_forms_no_weak_solution(monkeypatch):
    counts = {}
    _counting(monkeypatch, shorting, "_weak_solutions", counts)
    A, _ = _summable_pair(np.random.default_rng(13), 4, 5, 3)
    # C - A = A has the range and corange of A
    assert parallel_subtract(2 * A, A).shape == (4, 5)
    assert counts == {}


def test_not_complementable_report():
    A, Sb, Tb = _non_complementable_triple(np.random.default_rng(3))
    S, T = Subspace(4, Sb), Subspace(4, Tb)
    with pytest.raises(NotComplementable) as info:
        shorted(A, S, T)
    report = info.value.report
    assert not report.weakly and report.witnesses is None


@pytest.mark.parametrize("m,n,r", [(2, 2, 2), (4, 6, 3), (7, 5, 5)])
def test_parallel_sum_route_disagreement(m, n, r):
    # the sum, A (A+B)^+ B and the arguments-swapped B - B (A+B)^+ B agree
    A, B = _summable_pair(np.random.default_rng(m * n), m, n, r)
    gap = route_gap(A, B, parallel_sum(A, B).sum)
    assert gap <= 10 * TOL.eq_rel * max(opnorm(A), opnorm(B))


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
    D = sol.D
    expected = (opnorm(A @ D - B) / max(opnorm(B), 1.0), opnorm(D) ** 2)
    _overwrite(A, B, sol.D)
    assert (sol.residual, sol.norm_sq) == expected

