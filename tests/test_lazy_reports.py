"""Values computed on first read equal the eager formulas exactly.

shorted's witnesses E, F, P and Q and its diagnostics (with the products
Q A and A P), the summability defects, the parallel sum's route
A (A+B)^+ B and route disagreement (with the swapped route
B - B (A+B)^+ B), the reduced solution's residual matrices and norms, and
the complementability witnesses and angle check decide nothing, so each is
computed when first read.  Each test here computes the value by its eager
formula right after the call, then overwrites the complex128 inputs (which
``as_operator`` does not copy) and the returned matrices in place, and
requires every later read to give the value of the formula bit for bit.
A report that kept a reference to a caller-owned array instead of a copy
would read the overwritten entries.  The counting tests pin that a call
which is read only for its answer forms none of these values: the weak
reduced solutions in particular wait for a read of E, F, diagnostics or
route_reduced.
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
from shortops.geometry import _largest_cosine
from shortops import parallel, shorting
from shortops.douglas import _reduced_coeffs
from shortops.numcore import FundamentalSubspaces, max_opnorm, _relative, _spectrum
from shortops.parallel import SummabilityDefects
from shortops.shorting import (
    ShortedDiagnostics,
    _complementable,
    _witness_projections,
    block_decompose,
)

from _roots import abs_root_factors, root_factors
from test_exact_oracle import _ladder_draws

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


def _eager_route_gap(A, S, T):
    """sigma - (A11 - F_weak* E_weak), the two association orders of
    A12 A22^+ A21 on the corner's factors, as a route check formed it."""
    _, blocks, corner = _complementable(A, S, T, TOL)
    sigma = blocks.A11 - blocks.A12 @ (corner.pinv() @ blocks.A21)
    E_weak = _reduced_coeffs(root_factors(corner), blocks.A21)
    F_weak = _reduced_coeffs(abs_root_factors(corner), blocks.A12.conj().T)
    return sigma - (blocks.A11 - F_weak.conj().T @ E_weak)


def _eager_diagnostics(A, S, T, res):
    gap = _eager_route_gap(A, S, T)
    scale = max(opnorm(A), 1.0)
    QA = res.Q @ A
    AP = A @ res.P
    return ShortedDiagnostics(
        route_disagreement=opnorm(gap) / scale,
        qa_ap_gap=opnorm(QA - AP) / scale,
        qa_residual=opnorm(QA - res.shorted) / scale,
        ap_residual=opnorm(AP - res.shorted) / scale,
    )


def _eager_shorted_witnesses(A, S, T):
    """E, F, P and Q as ``shorted`` formed them eagerly."""
    _, blocks, corner = _complementable(A, S, T, TOL)
    corner_pinv = corner.pinv()
    E_weak = _reduced_coeffs(root_factors(corner), blocks.A21)
    F_weak = _reduced_coeffs(abs_root_factors(corner), blocks.A12.conj().T)
    P, Q = _witness_projections(blocks, corner_pinv @ blocks.A21,
                                blocks.A12 @ corner_pinv)
    return (blocks.s_perp_basis @ E_weak @ blocks.s_basis.conj().T,
            blocks.s_perp_basis @ F_weak @ blocks.t_basis.conj().T, P, Q)


def _eager_witnesses(A, S, T):
    """The six complementability witnesses as the report formed them eagerly."""
    _, blocks, corner = _complementable(A, S, T, TOL)
    corner_pinv = corner.pinv()
    E, F_adj = corner_pinv @ blocks.A21, blocks.A12 @ corner_pinv
    P_hat, Q_hat = _witness_projections(blocks, E, F_adj)
    return (blocks.s_perp_basis @ E @ blocks.s_basis.conj().T,
            blocks.t_perp_basis @ F_adj.conj().T @ blocks.t_basis.conj().T,
            P_hat, Q_hat, np.eye(A.shape[1]) - P_hat, np.eye(A.shape[0]) - Q_hat)


def _eager_route_reduced(A, B):
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


def _shorted_triples():
    for n, k in [(2, 1), (5, 3), (6, 2)]:
        yield _complementable_triple(np.random.default_rng(n), n, k)
    yield _rectangular_triple(np.random.default_rng(4))


TRIPLE_IDS = ["2-1", "5-3", "6-2", "5x4"]  # n-k of the square triples


@pytest.mark.parametrize("triple", list(_shorted_triples()), ids=TRIPLE_IDS)
def test_shorted_diagnostics(triple):
    A, Sb, Tb = (x.copy() for x in triple)
    S, T = Subspace(A.shape[1], Sb), Subspace(A.shape[0], Tb)
    res = shorted(A, S, T)
    expected = _eager_diagnostics(A, S, T, res)
    # Q A and A P come from the call's parts, not from the returned P and Q
    _overwrite(A, Sb, Tb, res.shorted, res.E, res.F, res.P, res.Q)
    assert res.diagnostics == expected
    assert res.diagnostics is res.diagnostics


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
    # diagnostics forms its own P and Q from the call's parts
    assert res.diagnostics.qa_ap_gap >= 0.0
    assert counts == {"pinv": 1, "_witness_projections": 2}


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
    expected = _bits(_eager_route_reduced(A, B))
    _overwrite(A, B, res.sum)
    assert _bits(res.route_reduced) == expected
    assert res.route_reduced is res.route_reduced


def test_parallel_sum_route_reduced_formed_on_read(monkeypatch):
    counts = {}
    for module in (shorting, parallel):    # each holds its own name for it
        _counting(monkeypatch, module, "_weak_solutions", counts)
    A, B = _summable_pair(np.random.default_rng(12), 4, 5, 3)
    res = parallel_sum(A, B)
    assert res.sum.shape == (4, 5)
    assert counts == {}
    # F_A and E_B in one call
    assert res.route_reduced.shape == (4, 5)
    assert counts == {"_weak_solutions": 1}
    assert res.route_reduced is res.route_reduced and res.max_route_disagreement >= 0.0
    assert counts == {"_weak_solutions": 1}


@pytest.mark.parametrize("read", ["E", "F", "diagnostics"])
def test_shorted_weak_solutions_wait_for_a_read(monkeypatch, read):
    counts = {}
    for module in (shorting, parallel):
        _counting(monkeypatch, module, "_weak_solutions", counts)
    A, Sb, Tb = _complementable_triple(np.random.default_rng(7), 5, 3)
    res = shorted(A, Subspace(5, Sb), Subspace(5, Tb))
    assert res.shorted.shape == (5, 5) and res.P.shape == (5, 5)
    assert counts == {}
    getattr(res, read)
    assert counts == {"_weak_solutions": 1}
    # E, F and the route disagreement share one pair of weak solutions
    res.E, res.F, res.diagnostics
    assert counts == {"_weak_solutions": 1}


def test_parallel_subtract_forms_no_weak_solution(monkeypatch):
    counts = {}
    for module in (shorting, parallel):
        _counting(monkeypatch, module, "_weak_solutions", counts)
    A, _ = _summable_pair(np.random.default_rng(13), 4, 5, 3)
    # C - A = A has the range and corange of A
    assert parallel_subtract(2 * A, A).shape == (4, 5)
    assert counts == {}


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


def test_route_disagreement_reports_the_gaps_a_route_check_rejected():
    # ill-conditioned corners on which sigma and A11 - F_weak* E_weak part
    # by more than 10 * eq_rel * max(||A||, 1): the answer is right (the
    # exact oracle's ladder test), and the gap is still reported, bit for bit
    rejected = 0
    for A, s, _ in _ladder_draws():
        S = Subspace(A.shape[0], np.eye(A.shape[0])[:, :s])
        gap = _eager_route_gap(A, S, S)
        if opnorm(gap) <= 10 * TOL.eq_rel * max(opnorm(A), 1.0):
            continue
        rejected += 1
        res = shorted(A, S, S)
        assert res.diagnostics.route_disagreement == _relative(gap, opnorm(A))
        assert res.diagnostics.route_disagreement > 10 * TOL.eq_rel
    assert rejected >= 1
    # 1 / sigma_min(A + B) = 1e9, where the association orders of
    # A (A+B)^+ A part by 1.2e-7 of the doubled matrix's norm; the reported
    # routes, the sum, A (A+B)^+ B and B - B (A+B)^+ B, agree far closer
    A, B = np.eye(2, dtype=complex), np.diag([-1 + 1e-3, -1 + 1e-9]).astype(complex)
    res = parallel_sum(A, B)
    expected = _eager_route_disagreement(A, B, res)
    assert res.max_route_disagreement == expected
    assert expected <= 10 * TOL.eq_rel * opnorm(res.sum)
