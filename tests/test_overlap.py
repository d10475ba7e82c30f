"""The minus order's operand SVDs factored two at a time (``numcore._spectra``).

The overlap runs on a host with two CPUs when every side is from 32 to 95;
every test here forces the CPU gate ``numcore._HOST_OVERLAPS`` so that a
one-CPU host runs it too.  Forced on, ``minus_leq`` and ``in_minus_set``
give the sequential answers bit for bit, from one thread or several; an
error on either thread is raised once both factorizations are done; at
interpreter shutdown the caller factors alone; and a forked child factors
on a helper of its own."""

import concurrent.futures.thread
import os
import signal
import threading
import time

import numpy as np
import pytest

from shortops import DEFAULT_TOL, in_minus_set, minus_leq, numcore, shorted
from shortops.genlab import gauss, gen_complementable, trial_rng

SHAPES = ((32, 32), (48, 48), (64, 64), (64, 48))
KINDS = ("subset", "rank-deficient", "oblique", "false")
DRAWS = 13    # per shape and kind: 208 comparisons


@pytest.fixture
def factored_on(monkeypatch):
    """Force the overlap on; yields the set of threads that ran ``_spectrum``."""
    monkeypatch.setattr(numcore, "_HOST_OVERLAPS", True)
    threads, real = set(), numcore._spectrum

    def spectrum(*args):
        threads.add(threading.current_thread())
        return real(*args)

    monkeypatch.setattr(numcore, "_spectrum", spectrum)
    return threads


def _sequential(monkeypatch, call, *args):
    with monkeypatch.context() as m:
        m.setattr(numcore, "_HOST_OVERLAPS", False)
        return call(*args)


def _minus_pair(rng, kind, m, n):
    """(C, B) of shape m x n: C keeps some of B's singular triples (B of full
    rank, or of rank k/2 for the smaller side k), C = E B for an oblique
    idempotent E, or C is a random matrix of rank 3."""
    k = min(m, n)
    U, V = (np.linalg.qr(gauss(rng, side, k))[0] for side in (m, n))
    s = rng.uniform(1.0, 2.0, k)
    if kind == "rank-deficient":
        s[k // 2:] = 0.0
    B = (U * s) @ V.conj().T
    if kind == "oblique":
        X = gauss(rng, m, m)
        return (X * (np.arange(m) < m // 3)) @ np.linalg.inv(X) @ B, B
    if kind == "false":
        return gauss(rng, m, 3) @ gauss(rng, 3, n), B
    return (U * (s * rng.integers(0, 2, k))) @ V.conj().T, B


def _same(v, w) -> bool:
    return ((v.holds, v.rank_route, v.projection_route) == (w.holds, w.rank_route,
                                                            w.projection_route)
            and all(np.array_equal(x, y) if x is not None else y is None
                    for x, y in ((v.Q, w.Q), (v.P, w.P))))


def test_overlapped_minus_leq_equals_the_sequential_bit_for_bit(factored_on, monkeypatch):
    holds = []
    for i, (m, n) in enumerate(SHAPES):
        for j, kind in enumerate(KINDS):
            for t in range(DRAWS):
                C, B = _minus_pair(trial_rng(34, 4 * i + j, t), kind, m, n)
                v = minus_leq(C, B)
                assert _same(v, _sequential(monkeypatch, minus_leq, C, B)), (m, n, kind, t)
                holds.append(v.holds)
    assert len(holds) >= 200 and 0 < sum(holds) < len(holds)
    assert len(factored_on) == 2


def test_overlapped_in_minus_set_equals_the_sequential(factored_on, monkeypatch):
    # the shorted operator, a part of it by n/8 of its singular triples, and a
    # random C with range in T and corange in S
    verdicts = []
    for n in (32, 48, 64):
        for t in range(4):
            rng = trial_rng(34, 100 + n, t)
            A, S, T = gen_complementable(n, n, n // 2, n // 2, n // 4, rng)
            short = shorted(A, S, T).shorted
            W = np.linalg.svd(short)[0][:, :n // 8]
            for C in (short, W @ (W.conj().T @ short),
                      T.projection @ gauss(rng, n, n) @ S.projection):
                got = in_minus_set(C, A, S, T)
                assert got == _sequential(monkeypatch, in_minus_set, C, A, S, T), (n, t)
                verdicts.append(got)
    assert 0 < sum(verdicts) < len(verdicts)
    assert len(factored_on) == 2


@pytest.mark.parametrize("raising", [{"caller"}, {"helper"}, {"caller", "helper"}])
def test_an_error_is_raised_once_both_sides_are_done(raising, monkeypatch):
    monkeypatch.setattr(numcore, "_HOST_OVERLAPS", True)
    C, B = _minus_pair(trial_rng(34, 200, 0), "subset", 64, 64)
    want = _sequential(monkeypatch, minus_leq, C, B)
    caller, real, finished = threading.current_thread(), numcore._spectrum, []

    def spectrum(*args):
        side = "caller" if threading.current_thread() is caller else "helper"
        if side == "helper":
            time.sleep(0.1)    # the caller's side is done long before
        try:
            if side in raising:
                raise np.linalg.LinAlgError(f"{side} side")
            return real(*args)
        finally:
            finished.append(side)

    with monkeypatch.context() as m:
        m.setattr(numcore, "_spectrum", spectrum)
        # the caller's error first, as the sequential order raises it
        with pytest.raises(np.linalg.LinAlgError, match=f"{min(raising)} side"):
            minus_leq(C, B)
    assert finished.count("helper") == 1
    assert finished.count("caller") == (1 if "caller" in raising else 2)
    assert _same(minus_leq(C, B), want)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_factors_on_its_own_helper(monkeypatch):
    monkeypatch.setattr(numcore, "_HOST_OVERLAPS", True)
    C, B = _minus_pair(trial_rng(34, 300, 0), "subset", 64, 64)
    want = minus_leq(C, B)    # the parent's helper has run, and sits idle
    pid = os.fork()
    if pid == 0:
        try:
            os._exit(0 if _same(minus_leq(C, B), want) else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 60.0
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's minus_leq did not finish in 60 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status[1]) == 0


def test_the_overlap_needs_two_operands_of_sides_32_to_95(factored_on):
    # below side 32, above 95, or with one operand, the caller factors everything
    rng = trial_rng(34, 400, 0)
    numcore._spectra([gauss(rng, 31, 64) for _ in range(3)], DEFAULT_TOL)
    numcore._spectra([gauss(rng, 64, 96) for _ in range(3)], DEFAULT_TOL)
    numcore._spectra([gauss(rng, 64, 64)], DEFAULT_TOL)
    assert factored_on == {threading.current_thread()}
    numcore._spectra([gauss(rng, 95, 32) for _ in range(2)], DEFAULT_TOL)
    assert len(factored_on) == 2


def test_at_interpreter_shutdown_the_caller_factors_alone(factored_on, monkeypatch):
    # concurrent.futures refuses new work once its exit hook has run, which
    # it does before atexit handlers; a comparison made then runs in turn
    C, B = _minus_pair(trial_rng(34, 500, 0), "subset", 64, 64)
    want = _sequential(monkeypatch, minus_leq, C, B)
    monkeypatch.setattr(concurrent.futures.thread, "_shutdown", True)
    assert _same(minus_leq(C, B), want)
    assert factored_on == {threading.current_thread()}


def test_threads_making_their_first_comparison_at_once_share_one_helper(factored_on,
                                                                       monkeypatch):
    monkeypatch.setattr(numcore, "_helpers", {})    # as before any comparison
    pairs = [_minus_pair(trial_rng(34, 600, t), KINDS[t % 4], 48, 48) for t in range(4)]
    wants = [_sequential(monkeypatch, minus_leq, C, B) for C, B in pairs]
    start, got = threading.Barrier(len(pairs)), [None] * len(pairs)

    def compare(i):
        start.wait()
        got[i] = minus_leq(*pairs[i])

    callers = [threading.Thread(target=compare, args=(i,)) for i in range(len(pairs))]
    for t in callers:
        t.start()
    for t in callers:
        t.join(60.0)
    assert all(_same(v, w) for v, w in zip(got, wants, strict=True))
    helpers = factored_on - set(callers) - {threading.current_thread()}
    assert len(helpers) == 1 and list(numcore._helpers) == [0]
