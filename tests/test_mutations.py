"""Which checks catch which injected fault (mutation analysis).

Each fault is injected alone with monkeypatch, at every binding of the
faulty name in the library's modules (or on its class), and every check
then runs on one fixed set of draws:

- suite draws: genlab's complementable triples, summable pairs,
  matched triples with an auxiliary B for the limit, consistent
  systems A X = B, and oblique minus-order splits C = E B of a square
  full-rank B by an idempotent E that is not Hermitian, with ||E|| <= 1e2
  (E drawn as genlab's mitra-maximality draws it);
- near-singular draws: the exact oracle's ill-conditioned corners
  diag(1, 2^-k, ...), its corners with 2^-k just above the rank cutoff,
  and diagonal pairs I, diag(-1 + 1e-3, -1 + 1e-k) whose sum has a
  singular value 1e-k;
- the exact oracle's triples and pairs (``test_exact_oracle``).

The columns are the checks:

- ``route-gap``: the Schur-complement route gap, sigma against
  A11 - F_weak* E_weak on the same corner factors, judged against
  10 * eq_rel * max(||anchor||, 1) (the anchor A for a triple, the doubled
  matrix's Frobenius norm for a sum), computed here;
- ``qa-ap``: the residuals of Q A = A P = shorted, formed from the public
  fields of ``shorted``'s result (``genlab.shorted_qa_ap``);
- ``exact``: verdicts and values against the exact oracle;
- ``criterion-2``: A (A+B)^+ B, formed here, against the parallel sum;
- ``limit-per-point``: ``shorted_via_limit``'s stacked errors against
  parallel sums taken one schedule point at a time;
- ``reduced-residual``: the residual of A D = B for the reduced solution;
- ``minus-split``: C ≤⁻ B on an oblique split, and the residuals of
  Q B = C and B P = C for its witnesses against eq_rel * ||B||, formed
  here;
- ``genlab:<name>``: each suite invariant on a few trials of seed SEED.

A column catches a fault when it fires on a draw (or trial) where it did
not fire on the unmutated library; an exception other than the refusal a
call is specified to raise counts as firing, since a tier-1 test would
fail on it.  The route gap fires on some near-singular draws unmutated,
which are right answers: those draws are the false rejections.

Run as a script, ``python tests/test_mutations.py`` prints the table,
fault -> {column: count}, as sorted JSON with one fault per line.
"""

import sys
from functools import cache
from pathlib import Path

if __name__ == "__main__":    # run as a script: the package is not installed
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import pytest

from shortops import (
    DEFAULT_TOL,
    NotComplementable,
    NotSummable,
    RangeNotIncluded,
    ShortopsError,
    Subspace,
    genlab,
    minus_leq,
    parallel_sum,
    pinv,
    reduced_solution,
    shorted,
    shorted_via_limit,
)
from shortops import douglas, minusorder, numcore, parallel, shorting
from shortops.genlab import GenConfig, trial_rng
from shortops.numcore import FundamentalSubspaces, FundamentalSubspacesStack, opnorm

import _exact as ex
from _census import dumps
from test_exact_oracle import LADDER_REL, VALUE_REL, _cutoff_draws, _draws, _ladder_draws

pytestmark = pytest.mark.mutation

TOL = DEFAULT_TOL
CFG = GenConfig()
SEED = 424242
GENLAB_TRIALS = 3
SUITE_DRAWS = 12
SPLIT_NORM_CAP = 1e2      # ||E|| of an oblique minus-order split
LIMIT_POINTS = 8          # the first points of the default schedule


# ---------------------------------------------------------------------------
# the draws, built once, with the exact references


@cache
def _suite_draws():
    triples, pairs, limits, systems = [], [], [], []
    for t in range(4 * SUITE_DRAWS):
        drawn = genlab.draw_complementable(trial_rng(SEED, 900, t), CFG, TOL)
        if drawn is not None and len(triples) < SUITE_DRAWS:
            A, S, T = drawn
            triples.append(("suite", A, S.basis, T.basis, None))
        drawn = genlab.draw_summable(trial_rng(SEED, 901, t), CFG, TOL)
        if drawn is not None and len(pairs) < SUITE_DRAWS:
            pairs.append(("suite", *drawn, None))
        rng = trial_rng(SEED, 902, t)
        drawn = genlab.draw_complementable_matched(rng, CFG, TOL)
        if drawn is not None and len(limits) < SUITE_DRAWS // 3:
            A, S, T = drawn
            limits.append((A, S.basis, T.basis, genlab.gen_with_ranges(T, S, rng)))
    rng = trial_rng(SEED, 903, 0)
    for _ in range(SUITE_DRAWS):
        m, n, k = (int(v) for v in rng.integers(2, 9, size=3))
        r = int(rng.integers(1, min(m, n) + 1))
        A = genlab.gauss(rng, m, r) @ genlab.gauss(rng, r, n)
        systems.append((A, A @ genlab.gauss(rng, n, k)))
    return triples, pairs, limits, systems, _oblique_splits()


def _oblique_splits():
    """(C, B) with C = E B ≤⁻ B: B - C = (I - E) B, so the ranks add up,
    and the witness P = B^-1 E B is not Hermitian."""
    splits = []
    for t in range(4 * SUITE_DRAWS):
        rng = trial_rng(SEED, 904, t)
        n = int(rng.integers(2, 9))
        # 0 < rank E < n: a random oblique projection, not Hermitian
        E = genlab._random_idempotent(rng, n, int(rng.integers(1, n)), TOL)
        B = genlab.gauss(rng, n, n)
        if (E is not None and opnorm(E) <= SPLIT_NORM_CAP
                and genlab.cond_ok(B, CFG.condition_cap, TOL) and len(splits) < SUITE_DRAWS):
            splits.append((E @ B, B))
    return splits


@cache
def _near_singular_draws():
    triples = [(kind, A, np.eye(A.shape[0])[:, :s], np.eye(A.shape[0])[:, :s], value)
               for kind, draws in (("ladder", _ladder_draws()[::8]), ("cutoff", _cutoff_draws()))
               for A, s, value in draws]
    pairs = []
    for k in (6, 7, 8, 9):
        A, B = np.eye(2), np.diag([-1 + 1e-3, -1 + 10.0 ** -k])
        pairs.append(("near", A, B, ex.parallel_sum(ex.exact(A, False),
                                                    ex.exact(B, False)).to_float()))
    return triples, pairs


@cache
def _exact_draws():
    triples = [("exact", *d.operands, d) for d in _draws() if d.family == "triple"]
    pairs = [("exact", *d.operands, d) for d in _draws() if d.family == "pair"]
    return triples, pairs


def _all_draws():
    suite, near, exact = _suite_draws(), _near_singular_draws(), _exact_draws()
    return (suite[0] + near[0] + exact[0], suite[1] + near[1] + exact[1], *suite[2:])


# ---------------------------------------------------------------------------
# the checks; each returns True when it fires


def _route_gap_fires(A11, A12, A21, corner, anchor_norm) -> bool:
    """The gap between sigma = A11 - A12 A22^+ A21 and A11 - F_weak* E_weak
    on the same factors, beyond 10 * eq_rel * max(anchor, 1) (per item on a
    stack)."""
    sigma = A11 - A12 @ (corner.pinv() @ A21)
    E_weak, F_weak = shorting._weak_solutions(corner, A21, A12)
    gap = sigma - (A11 - F_weak.conj().swapaxes(-1, -2) @ E_weak)
    return bool(np.any(opnorm(gap) > 10 * TOL.eq_rel * np.maximum(anchor_norm, 1.0)))


def _doubled_norm(A, total):
    """Frobenius norm of [[A, A], [A, A + B]], per item on a stack."""
    return np.sqrt(3.0 * np.vdot(A, A).real + (total.s ** 2).sum(axis=-1))


def _subspaces(WS, WT):
    return Subspace.from_spanning(WS, TOL), Subspace.from_spanning(WT, TOL)


def _triple_route_gap(A, S, T, ref):
    try:
        blocks, corner = shorting._complementable(A, S, T, TOL)
    except NotComplementable:
        return False
    anchor = opnorm(numcore.as_operator(A))
    return _route_gap_fires(blocks.A11, blocks.A12, blocks.A21, corner, anchor)


def _triple_qa_ap(A, S, T, ref):
    try:
        res = shorted(A, S, T, TOL)
    except NotComplementable:
        return False
    return genlab.shorted_qa_ap(A, res) > TOL.eq_rel


def _triple_exact(A, S, T, ref):
    if ref is None:
        return False
    try:
        value = shorted(A, S, T, TOL).shorted
    except NotComplementable:
        value = None
    if isinstance(ref, np.ndarray):    # an ill-conditioned corner: complementable
        return value is None or not (np.linalg.norm(value - ref)
                                     <= LADDER_REL * np.linalg.norm(ref))
    if (value is not None) != ref.verdict[0]:
        return True
    return value is not None and not (np.linalg.norm(value - ref.value)
                                      <= VALUE_REL * np.linalg.norm(A))


def _pair_route_gap(A, B, ref):
    A, B = np.asarray(A, complex), np.asarray(B, complex)
    total = parallel._spectrum(A + B, TOL)
    if not parallel._gate(A, A, total, TOL):
        return False
    return _route_gap_fires(A, A, A, total, _doubled_norm(A, total))


def _pair_criterion_2(A, B, ref):
    try:
        block = parallel_sum(A, B, TOL).sum
    except NotSummable:
        return False
    scale = max(opnorm(A), opnorm(B))
    return opnorm(block - A @ pinv(A + B, TOL) @ B) > 1e-8 * scale


def _pair_exact(A, B, ref):
    if ref is None:
        return False
    try:
        value = parallel_sum(A, B, TOL).sum
    except NotSummable:
        value = None
    scale = max(np.linalg.norm(A), np.linalg.norm(B))
    if isinstance(ref, np.ndarray):    # a near-singular diagonal pair: summable
        return value is None or not np.linalg.norm(value - ref) <= VALUE_REL * scale
    if (value is not None) != ref.verdict[0]:
        return True
    return value is not None and not np.linalg.norm(value - ref.value) <= VALUE_REL * scale


def _limit_route_gap(A, WS, WT, B):
    """The route gap of every summable point of the schedule's stacked sums."""
    ns = np.array(parallel.DEFAULT_SCHEDULE[:LIMIT_POINTS], dtype=float)
    sums = A + ns[:, None, None] * B
    total = parallel._spectrum(sums, TOL)
    summable = np.asarray(parallel._gate(A, A, total, TOL))
    if not summable.any():
        return False
    total = parallel._spectrum(sums[summable], TOL)
    return _route_gap_fires(A, A, A, total, _doubled_norm(A, total))


def _limit_per_point(A, WS, WT, B):
    S, T = _subspaces(WS, WT)
    schedule = parallel.DEFAULT_SCHEDULE[:LIMIT_POINTS]
    record = shorted_via_limit(A, S, T, B, schedule=schedule, tol=TOL)
    target = shorted(A, S, T, TOL).shorted
    return any(not abs(got - opnorm(parallel_sum(A, n * B, TOL).sum - target)) <= 1e-12 * got
               for n, got in zip(record.schedule, record.errors))


def _reduced_residual(A, B):
    return reduced_solution(A, B, TOL).residual > TOL.eq_rel


def _minus_split(C, B):
    verdict = minus_leq(C, B, TOL)
    if not verdict.holds:
        return True
    bound = TOL.eq_rel * opnorm(B)
    return opnorm(verdict.Q @ B - C) > bound or opnorm(B @ verdict.P - C) > bound


_TRIPLE_CHECKS = {"route-gap": _triple_route_gap, "qa-ap": _triple_qa_ap,
                  "exact": _triple_exact}
_PAIR_CHECKS = {"route-gap": _pair_route_gap, "criterion-2": _pair_criterion_2,
                "exact": _pair_exact}
_LIMIT_CHECKS = {"route-gap": _limit_route_gap, "limit-per-point": _limit_per_point}


# an exception other than a call's specified refusal fails a tier-1 test
_ERRORS = (ShortopsError, ValueError, IndexError, np.linalg.LinAlgError)


def _fires(check, *operands) -> bool:
    try:
        return check(*operands)
    except _ERRORS:
        return True


def _genlab_verdict(fn, index, trial):
    """A suite trial's verdict as ``run_suite`` reads it; an exception the
    suite does not catch reads as a failure."""
    try:
        return fn(trial_rng(SEED, index, trial), CFG, TOL)
    except RangeNotIncluded as exc:
        return None if exc.borderline else False
    except _ERRORS:
        return False


def _firings() -> set:
    """(column, draw) pairs on which each check fires on the library as it
    is patched now."""
    triples, pairs, limits, systems, splits = _all_draws()
    fired = set()
    for i, (_, A, WS, WT, ref) in enumerate(triples):
        try:    # every triple check reads S and T built by the library
            S, T = _subspaces(WS, WT)
        except _ERRORS:
            fired |= {(c, "triple", i) for c in _TRIPLE_CHECKS}
            continue
        fired |= {(c, "triple", i) for c, check in _TRIPLE_CHECKS.items()
                  if _fires(check, A, S, T, ref)}
    for i, (_, *operands) in enumerate(pairs):
        fired |= {(c, "pair", i) for c, check in _PAIR_CHECKS.items()
                  if _fires(check, *operands)}
    fired |= {(c, "limit", i) for c, check in _LIMIT_CHECKS.items()
              for i, operands in enumerate(limits) if _fires(check, *operands)}
    fired |= {("reduced-residual", "system", i) for i, operands in enumerate(systems)
              if _fires(_reduced_residual, *operands)}
    fired |= {("minus-split", "split", i) for i, operands in enumerate(splits)
              if _fires(_minus_split, *operands)}
    for index, (name, fn) in enumerate(genlab.INVARIANTS):
        fired |= {(f"genlab:{name}", "trial", t) for t in range(GENLAB_TRIALS)
                  if _genlab_verdict(fn, index, t) is False}
    return fired


# ---------------------------------------------------------------------------
# the faults


def _patch(monkeypatch, name, make):
    """Replace every binding of the library function ``name`` with
    ``make(original)``."""
    original = next(getattr(module, name) for module in (numcore, douglas, shorting, minusorder)
                    if hasattr(module, name))
    faulty = make(original)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("shortops") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, faulty)


def _rank_shift(shift):
    def inject(monkeypatch):
        def make(real):
            def rank_rule(s, shape, scale, tol):
                return np.clip(real(s, shape, scale, tol) + shift, 0, s.shape[-1])
            return rank_rule
        _patch(monkeypatch, "_rank_rule", make)
    return inject


def _inflated_spectrum(monkeypatch):
    def make(real):
        def spectrum(A, tol, scale=None):
            f = real(A, tol, scale)
            return type(f)(f.U, f.s * (1 + 1e-6), f.Vh, f.rank)
        return spectrum
    _patch(monkeypatch, "_spectrum", make)


def _gate_without(side):
    def inject(monkeypatch):
        def make(real):
            def gate(left, right, factors, tol):
                if side == "range":
                    right = np.zeros_like(right)
                else:
                    left = np.zeros_like(left)
                return real(left, right, factors, tol)
            return gate
        _patch(monkeypatch, "_gate", make)
    return inject


def _unconjugated_coeffs(monkeypatch):
    def make(real):
        def reduced_coeffs(spectrum, B):
            coeffs = spectrum.range_basis.swapaxes(-1, -2) @ B
            return spectrum.corange_basis @ (coeffs / spectrum.kept[..., :, None])
        return reduced_coeffs
    _patch(monkeypatch, "_reduced_coeffs", make)


def _swapped_frames(monkeypatch):
    def make(real):
        def blocks(A, s_frame, s_dim, t_frame, t_dim):
            return real(A, t_frame, t_dim, s_frame, s_dim)
        return blocks
    _patch(monkeypatch, "_blocks", make)


def _scaled_pinv(monkeypatch):
    real = FundamentalSubspaces.pinv
    monkeypatch.setattr(FundamentalSubspaces, "pinv", lambda self: real(self) * (1 + 1e-6))


def _wide_stack_mask(monkeypatch):
    monkeypatch.setattr(FundamentalSubspacesStack, "_within_rank", lambda self, width: (
        np.arange(width) < self.rank[:, None] + 1)[:, None, :])


def _tenfold_cutoff(monkeypatch):
    _patch(monkeypatch, "_cutoff", lambda real: lambda shape, scale, tol: 10 * real(shape, scale, tol))


def _weak_solutions_over_s(monkeypatch):
    def make(real):
        def weak_solutions(corner, A21, A12):
            # s where the polar factor needs s^(1/2)
            root = np.sqrt(corner.kept)[..., :, None]
            return tuple(X / root for X in real(corner, A21, A12))
        return weak_solutions
    _patch(monkeypatch, "_weak_solutions", make)


def _corner_at_its_own_scale(monkeypatch):
    def make(real):
        def complementability(A, blocks, tol):
            corner = shorting._spectrum(blocks.A22, tol)    # sigma_max(A22), not ||A||_F
            included = shorting._gate(blocks.A12, blocks.A21, corner, tol)
            return shorting.ComplementabilityReport(
                weakly=included, strongly=included, _operands=(blocks, corner))
        return complementability
    _patch(monkeypatch, "_complementability", make)


def _scaled_frame(monkeypatch):
    real = Subspace._framed.__func__
    monkeypatch.setattr(Subspace, "_framed", classmethod(
        lambda cls, frame, dim: real(cls, frame * (1 + 1e-6), dim)))


def _negated_witness_solutions(monkeypatch):
    _patch(monkeypatch, "_witness_projections",
           lambda real: lambda blocks, E, F_adj: real(blocks, -E, -F_adj))


def _transposed_minus_split(monkeypatch):
    def make(real):
        def minus_leq(C, B, b, c, d, tol):
            scale = float(max(b.s[0], c.s[0])) if len(b.s) else 0.0
            c, d = c.at_scale(scale, tol), d.at_scale(scale, tol)
            rank_route = c.rank + d.rank == b.at_scale(scale, tol).rank
            Q = minusorder._split_along(c.range_basis, d.conull_basis, tol)
            # P = Padj where the split needs Padj*
            P = None if Q is None else minusorder._split_along(c.corange_basis, d.null_basis, tol)
            projection_route = (P is not None
                                and minusorder.opnorm_leq(Q @ B - C, tol.eq_rel * scale)
                                and minusorder.opnorm_leq(B @ P - C, tol.eq_rel * scale)
                                and minusorder._gate(C, C, b, tol))
            if not projection_route:
                Q = P = None
            return minusorder.MinusVerdict(holds=rank_route and projection_route,
                                           rank_route=rank_route,
                                           projection_route=projection_route, Q=Q, P=P)
        return minus_leq
    _patch(monkeypatch, "_minus_leq", make)


FAULTS = {
    "rank +1": _rank_shift(+1),
    "rank -1": _rank_shift(-1),
    "s * (1 + 1e-6)": _inflated_spectrum,
    "gate: range side dropped": _gate_without("range"),
    "gate: corange side dropped": _gate_without("corange"),
    "_reduced_coeffs: conjugation dropped": _unconjugated_coeffs,
    "_blocks: S and T frames swapped": _swapped_frames,
    "pinv * (1 + 1e-6)": _scaled_pinv,
    "stack mask off by one": _wide_stack_mask,
    "_cutoff * 10": _tenfold_cutoff,
    "_weak_solutions: s for s^(1/2)": _weak_solutions_over_s,
    "_complementability: corner at sigma_max(A22)": _corner_at_its_own_scale,
    "_witness_projections: -E and -F_adj": _negated_witness_solutions,
    "_minus_leq: P transposed": _transposed_minus_split,
    "Subspace._framed: frame scaled by 1 + 1e-6": _scaled_frame,
}
# the weak witnesses E and F feed one check, the route gap
# (P_T A P_S - F* E = shorted)
_ROUTE_GAP_ONLY = {"_weak_solutions: s for s^(1/2)"}


@cache
def _baseline() -> frozenset:
    with np.errstate(all="ignore"):
        return frozenset(_firings())


@cache
def _newly_fired(fault) -> frozenset:
    """(column, draw) pairs that fire under ``fault`` and not unmutated.
    The baseline, and with it the cached draws, is taken before the patch."""
    baseline = _baseline()
    with pytest.MonkeyPatch.context() as monkeypatch, np.errstate(all="ignore"):
        FAULTS[fault](monkeypatch)
        return frozenset(_firings() - baseline)


def _catches(fault) -> dict:
    """The columns that fire under ``fault`` where they did not unmutated,
    each with its count of newly fired draws or trials."""
    counts = {}
    for column, *_ in _newly_fired(fault):
        counts[column] = counts.get(column, 0) + 1
    return dict(sorted(counts.items()))


def mutation_table() -> dict:
    """Fault -> {column: count} for every fault."""
    return {fault: _catches(fault) for fault in FAULTS}


def test_unmutated_only_the_route_gap_fires():
    # on near-singular draws alone, whose answers the exact column accepts:
    # the route gap measures conditioning
    triples, pairs, *_ = _all_draws()
    kinds = {"triple": triples, "pair": pairs}
    assert {column for column, *_ in _baseline()} == {"route-gap"}
    for column, kind, i in _baseline():
        assert kinds[kind][i][0] in ("ladder", "cutoff", "near"), (column, kind, i)


def test_a_fault_read_first_gets_the_same_row():
    fault = "pinv * (1 + 1e-6)"
    _baseline()
    row = _catches(fault)
    for cached in (_suite_draws, _near_singular_draws, _exact_draws, _baseline, _newly_fired):
        cached.cache_clear()
    assert _catches(fault) == row


def test_a_tenfold_cutoff_is_caught_on_every_draw_just_above_the_cutoff():
    triples = _all_draws()[0]
    planted = {i for i, (kind, *_) in enumerate(triples) if kind == "cutoff"}
    assert planted <= {i for column, kind, i in _newly_fired("_cutoff * 10")
                       if (column, kind) == ("exact", "triple")}


def test_a_transposed_minus_split_is_caught_on_every_oblique_split():
    splits = _all_draws()[4]
    assert len(splits) == SUITE_DRAWS
    assert {i for column, _, i in _newly_fired("_minus_leq: P transposed")
            if column == "minus-split"} == set(range(SUITE_DRAWS))


@pytest.mark.parametrize("fault", list(FAULTS))
def test_every_fault_is_caught(fault):
    assert _catches(fault)


@pytest.mark.parametrize("fault", [fault for fault in FAULTS if fault not in _ROUTE_GAP_ONLY])
def test_every_fault_is_caught_without_the_route_gap(fault):
    caught = _catches(fault)
    assert set(caught) - {"route-gap"}, caught


if __name__ == "__main__":
    print(dumps(mutation_table()), end="")
