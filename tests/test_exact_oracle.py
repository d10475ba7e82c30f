"""The library's verdicts and values against an exact oracle (``_exact``).

Four families of draws with integer entries in [-3, 3] (real, or
Gaussian integers), n <= 6, whose ranks and rejections are planted by
construction and then decided by the oracle, not by the plan:

- triples (A, S, T), S and T spanned by integer columns: complementability
  and the shorted operator (non-complementable ones by a summand of A that
  is zero on S-perp, or lands in T; and A with range in T and zero on
  S-perp, whose blocks off A11 vanish exactly);
- pairs (A, B): summability and the parallel sum (non-summable ones by a
  part of A outside the range or corange of A + B);
- pairs (C, A): D_A membership (C - A of the rank of A, or not);
- pairs (C, B): the minus order (C a rank-additive part of B, or not).

A fifth family holds ill-conditioned corners: integer A whose corner on
S-perp, for S = T spanned by the leading coordinates, is diag(1, 2^-k, ...),
exact in floating point, with each k in [10, 26], so kappa(A22) reaches
2^26.  Each shorted operator must lie within LADDER_REL times the exact
Schur complement's own Frobenius norm of it.  A sixth holds the same
corners with 2^-k planted between 2 and 5 times the corner's rank cutoff,
so a cutoff ten times too large would refuse every one of them.

The oracle reads ``Fraction(x)`` of the floats passed, so at scale 1 it
judges exactly the library's input.  Every verdict must equal the exact
one, and each returned shorted operator and parallel sum must lie within
VALUE_REL times the Frobenius norm of its operands of the exact value.

Verdicts are homogeneous: for c != 0, (cA, S, T) and (cA, cB) have the
verdicts of (A, S, T) and (A, B), and the values scale by c.  So each draw
is rescaled by 2^+-30, 2^+-40, 10^+-9 and 10^+-12 and held to its scale-1
answer.  Scaling by a power of 2, and by 10^9 or 10^12 these integer
entries, is exact in floating point, so there the reference is the oracle
on the floats passed.  10^-9 and 10^-12 round each entry, and an exact rank
read on rounded entries would see the rounding, not the draw: there the
scale-1 answer is what a scale-covariant library returns.
"""

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
import pytest

from shortops import (
    DEFAULT_TOL,
    NotComplementable,
    NotSummable,
    Subspace,
    complementability,
    in_da,
    minus_leq,
    parallel_sum,
    shorted,
)
from shortops.numcore import _cutoff, _fro

import _exact as ex

DRAWS_PER_FAMILY = 100   # half real, half complex
# library value vs exact value, relative to the operands' Frobenius norm
VALUE_REL = 1e-10
LADDER_DRAWS = 400       # half real, half complex
# library value vs exact Schur complement, relative to the exact one's norm
LADDER_REL = 1e-12
CUTOFF_DRAWS = 40        # half real, half complex

# Every rescaling misses exact verdicts, for two sides of one cause; gates
# anchored at the operands of their decision turn these into passes.
SMALL_SCALE = ("thresholds floored at rel * max(||anchor||, 1) (opnorm_leq, so every "
               "gate) judge small operands at unit scale: a residual far above eq_rel "
               "relative to its operands passes as rounding noise")
LARGE_SCALE = ("each inclusion is anchored at its tested block, floored at "
               "max(||block||, 1): a block that is exactly zero (A with range in T and "
               "zero on S-perp) is rounding noise after the frame change, which passes "
               "at scale 1 only through the floor and fails against its own norm here")


def _ints(rng, m, n, cx):
    X = rng.integers(-3, 4, size=(m, n)).astype(np.float64)
    return X + 1j * rng.integers(-3, 4, size=(m, n)) if cx else X


def _full_rank(rng, m, n, cx):
    """An integer m x n matrix of rank min(m, n)."""
    while True:
        X = _ints(rng, m, n, cx)
        if ex.rank(ex.exact(X, cx)) == min(m, n):
            return X


@dataclass
class Draw:
    family: str
    cx: bool
    operands: tuple          # float arrays; a triple's S and T are spanning sets
    verdict: tuple           # the oracle's: (weak, strong) or one bool
    value: np.ndarray | None  # the exact shorted operator or parallel sum


def _triple(rng, k, cx):
    m, n = (int(v) for v in rng.integers(2, 7, size=2))
    s, t = int(rng.integers(0, n + 1)), int(rng.integers(0, m + 1))
    WS, WT = _full_rank(rng, n, s, cx), _full_rank(rng, m, t, cx)
    r = int(rng.integers(0, min(m, n) + 1))
    A = _ints(rng, m, r, cx) @ _ints(rng, r, n, cx)
    plan = k // 2 % 5
    if plan == 1:     # plus a part that is zero on S-perp: R(A21) may leave R(A22)
        A = A + _ints(rng, m, 1, cx) @ (_ints(rng, 1, s, cx) @ WS.conj().T)
    elif plan == 2:   # plus a part with range in T: R(A12*) may leave R(A22*)
        A = A + WT @ _ints(rng, t, 1, cx) @ _ints(rng, 1, n, cx)
    elif plan == 3:
        A = _ints(rng, m, n, cx)
    elif plan == 4:   # range in T, zero on S-perp: A12, A21 and A22 are exactly 0
        A = WT @ _ints(rng, t, s, cx) @ WS.conj().T
    triple = ex.Triple(ex.exact(A, cx), ex.exact(WS, cx), ex.exact(WT, cx))
    verdict = triple.complementability()
    value = triple.shorted().to_float() if verdict[0] else None
    return Draw("triple", cx, (A, WS, WT), verdict, value)


def _summable(rng, k, cx):
    m, n = (int(v) for v in rng.integers(2, 7, size=2))
    r = int(rng.integers(1, min(m, n) + 1))
    G, H = _ints(rng, m, r, cx), _ints(rng, r, n, cx)
    A = G @ _ints(rng, r, r, cx) @ H    # R(A) ⊆ R(G), R(A*) ⊆ R(H*)
    plan = k // 2 % 3
    if plan == 1:                       # a part of A outside R(A + B)
        A = A + _ints(rng, m, 1, cx) @ _ints(rng, 1, n, cx)
    B = G @ H - A if plan < 2 else _ints(rng, m, n, cx)
    Ae, Be = ex.exact(A, cx), ex.exact(B, cx)
    verdict = ex.summability(Ae, Be)
    value = ex.parallel_sum(Ae, Be).to_float() if verdict[0] else None
    return Draw("pair", cx, (A, B), verdict, value)


def _da(rng, k, cx):
    m, n = (int(v) for v in rng.integers(2, 7, size=2))
    r = int(rng.integers(1, min(m, n) + 1))
    G, H = _ints(rng, m, r, cx), _ints(rng, r, n, cx)
    A = G @ H
    # C - A = G K H: of A's range and corange when K is invertible
    plan = k // 2 % 4
    K = _ints(rng, r, r, cx) if plan != 1 else _ints(rng, r, r - 1, cx) @ _ints(rng, r - 1, r, cx)
    C = A + G @ K @ H if plan < 2 else A + _ints(rng, m, r, cx) @ _ints(rng, r, n, cx)
    return Draw("da", cx, (C, A), (ex.in_da(ex.exact(C, cx), ex.exact(A, cx)),), None)


def _minus(rng, k, cx):
    m, n = (int(v) for v in rng.integers(2, 7, size=2))
    r = int(rng.integers(1, min(m, n) + 1))
    c = int(rng.integers(0, r + 1))
    G, H = _ints(rng, m, r, cx), _ints(rng, r, n, cx)
    B = G @ H
    # C = G1 H1 is a rank-additive part of B = G1 H1 + G2 H2; C = G1 H1' is not
    C = G[:, :c] @ (H[:c] if k // 2 % 2 == 0 else _ints(rng, c, n, cx))
    return Draw("minus", cx, (C, B), (ex.minus_leq(ex.exact(C, cx), ex.exact(B, cx)),), None)


_FAMILIES = (_triple, _summable, _da, _minus)


def _ladder(rng, cx):
    """Integer A of order 3..5 whose corner on S-perp, S = T spanned by the
    first s coordinates, is diag(1, 2^-k, ...) with k in [10, 26], and the
    exact shorted operator, which is redrawn until it is not zero.  2^-26 is
    above the corner's rank cutoff rank_rel * n * ||A||_F (at most 1.1e-8
    here), so every draw is complementable at its exact rank."""
    while True:
        n = int(rng.integers(3, 6))
        s = int(rng.integers(1, n - 1))
        A = _ints(rng, n, n, cx).astype(np.complex128)
        ks = rng.integers(10, 27, size=n - s - 1)
        A[s:, s:] = np.diag([1.0] + [2.0 ** -int(k) for k in ks])
        W = np.eye(n)[:, :s]
        value = ex.Triple(ex.exact(A, cx), ex.exact(W, cx), ex.exact(W, cx)).shorted()
        if any(value.N.flat):
            return A, s, value.to_float()


@cache
def _ladder_draws() -> tuple:
    rng = np.random.default_rng(20261)
    return tuple(_ladder(rng, k % 2 == 1) for k in range(LADDER_DRAWS))


def _at_cutoff(rng, cx):
    """Integer A of order 3..5 whose corner on S-perp, S = T spanned by the
    first s coordinates, is diag(1, 2^-k, ...), with 2^-k in [2c, 5c] for the
    corner's rank cutoff c = _cutoff(corner shape, ||A||_F), and the exact
    shorted operator.  A21 has no zero row, so every 2^-k direction of the
    corner is needed: a cutoff above 5c refuses the triple."""
    while True:
        n = int(rng.integers(3, 6))
        s = int(rng.integers(1, n - 1))
        A = _ints(rng, n, n, cx).astype(np.complex128)
        A[s:, s:] = np.diag([1.0] + [0.0] * (n - s - 1))
        c = _cutoff((n - s, n - s), _fro(A), DEFAULT_TOL)
        tiny = 2.0 ** math.ceil(math.log2(2 * c))       # in [2c, 4c)
        A[s + 1:, s + 1:] = tiny * np.eye(n - s - 1)
        c = _cutoff((n - s, n - s), _fro(A), DEFAULT_TOL)
        if not (2 * c <= tiny <= 5 * c and np.all(A[s + 1:, :s].any(axis=1))):
            continue
        W = np.eye(n)[:, :s]
        value = ex.Triple(ex.exact(A, cx), ex.exact(W, cx), ex.exact(W, cx)).shorted()
        if any(value.N.flat):
            return A, s, value.to_float()


@cache
def _cutoff_draws() -> tuple:
    rng = np.random.default_rng(20262)
    return tuple(_at_cutoff(rng, k % 2 == 1) for k in range(CUTOFF_DRAWS))


@cache
def _draws() -> tuple[Draw, ...]:
    rng = np.random.default_rng(20260)
    return tuple(family(rng, k, k % 2 == 1) for family in _FAMILIES
                 for k in range(DRAWS_PER_FAMILY))


def _library(draw: Draw, c: float):
    """The library's verdict and value on the draw with its matrices scaled by c."""
    if draw.family == "triple":
        A, WS, WT = draw.operands
        S, T = Subspace.from_spanning(WS), Subspace.from_spanning(WT)
        try:
            result = shorted(c * A, S, T)
        except NotComplementable as refused:
            return (refused.report.weakly, refused.report.strongly), None
        return (True, True), result.shorted
    X, Y = (c * M for M in draw.operands)
    if draw.family == "pair":
        try:
            result = parallel_sum(X, Y)
        except NotSummable as refused:
            return (refused.report.weakly, refused.report.strongly), None
        return (True, True), result.sum
    return ((in_da(X, Y) if draw.family == "da" else minus_leq(X, Y).holds),), None


def _mismatches(c: float) -> list[str]:
    wrong = []
    for i, draw in enumerate(_draws()):
        verdict, value = _library(draw, c)
        name = f"{draw.family} #{i} ({'complex' if draw.cx else 'real'})"
        if verdict != draw.verdict:
            wrong.append(f"{name}: verdict {verdict}, exact {draw.verdict}")
        elif value is not None:
            mats = draw.operands[:1] if draw.family == "triple" else draw.operands
            scale = c * max(np.linalg.norm(M) for M in mats)
            err = np.linalg.norm(value - c * draw.value)
            if not err <= VALUE_REL * scale:
                wrong.append(f"{name}: value off by {err / scale:.2e} relative")
    return wrong


def test_draws_plant_both_verdicts_in_every_family():
    for family in ("triple", "pair", "da", "minus"):
        for cx in (False, True):
            verdicts = [d.verdict[0] for d in _draws() if d.family == family and d.cx == cx]
            assert len(verdicts) == DRAWS_PER_FAMILY // 2
            assert 0.2 <= np.mean(verdicts) <= 0.8, (family, cx, np.mean(verdicts))
    # weak and strong are decided on different matrices and agree
    assert all(d.verdict[0] == d.verdict[-1] for d in _draws())


def test_exact_pseudoinverse_satisfies_the_penrose_equations():
    rng = np.random.default_rng(5)
    for cx in (False, True):
        for m, n, r in ((3, 5, 2), (4, 4, 4), (5, 2, 1), (3, 3, 0)):
            X = ex.exact(_ints(rng, m, r, cx) @ _ints(rng, r, n, cx) / 8, cx)
            P = ex.pinv(X)
            assert ex.rank(X) == ex.rank(P) == r
            for residual in (X @ P @ X - X, P @ X @ P - P,
                             X @ P - (X @ P).H, P @ X - (P @ X).H):
                assert not any(residual.N.flat)


def test_library_matches_the_exact_oracle_at_scale_1():
    assert _mismatches(1.0) == []


_SCALES = [("2^30", 2.0 ** 30, LARGE_SCALE), ("2^40", 2.0 ** 40, LARGE_SCALE),
           ("1e9", 1e9, LARGE_SCALE), ("1e12", 1e12, LARGE_SCALE),
           ("2^-30", 2.0 ** -30, SMALL_SCALE), ("2^-40", 2.0 ** -40, SMALL_SCALE),
           ("1e-9", 1e-9, SMALL_SCALE), ("1e-12", 1e-12, SMALL_SCALE)]


@pytest.mark.parametrize("c", [
    pytest.param(c, id=name, marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                                     reason=reason))
    for name, c, reason in _SCALES])
def test_library_matches_the_exact_oracle_when_rescaled(c):
    assert _mismatches(c) == []


def test_shorted_matches_the_exact_schur_complement_on_ill_conditioned_corners():
    for A, s, value in _ladder_draws():
        S = Subspace(A.shape[0], np.eye(A.shape[0])[:, :s])
        got = shorted(A, S, S).shorted
        assert np.linalg.norm(got - value) <= LADDER_REL * np.linalg.norm(value)


def test_corners_just_above_the_rank_cutoff_keep_their_rank():
    # complementable, as the oracle decides, with the exact Schur complement
    for A, s, value in _cutoff_draws():
        W = np.eye(A.shape[0])[:, :s]
        exact = ex.Triple(ex.exact(A, True), ex.exact(W, True), ex.exact(W, True))
        S = Subspace(A.shape[0], W)
        report = complementability(A, S, S)
        assert (report.weakly, report.strongly) == exact.complementability() == (True, True)
        got = shorted(A, S, S).shorted
        assert np.linalg.norm(got - value) <= LADDER_REL * np.linalg.norm(value)
