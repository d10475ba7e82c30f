"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run pytest with -s to see them all).
Criteria are evaluated on fixed seeds so reruns are bit-reproducible.
"""

import json
import time

import numpy as np
import pytest

from shortops import (
    GenConfig,
    Subspace,
    complementability,
    gen_da_member,
    gen_with_ranges,
    in_da,
    in_minus_set,
    minus_leq,
    opnorm,
    parallel_subtract,
    parallel_sum,
    pinv,
    rank,
    run_suite,
    shorted,
    subspace_meet,
    summability,
)
from shortops.cli import main as cli_main
from shortops.genlab import (
    INVARIANTS,
    cond_ok,
    draw_complementable,
    draw_complementable_matched,
    draw_summable,
    draw_with_known_shorted,
    gauss,
    rank_at_scale,
    shorted_range_nullspace_ok,
    trial_rng,
)
from shortops.numcore import DEFAULT_TOL

CFG = GenConfig(seed=20250801, dim_range=(2, 8), trials=500)


def report(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_closed_form_convergence():
    A = np.array([[2.0, 1.0], [1.0, 1.0]])
    S = T = Subspace(2, np.eye(2, dtype=np.complex128)[:, :1])
    B = np.diag([1.0, 0.0])
    limit = np.array([[1.0, 0.0], [0.0, 0.0]])  # the shorted operator itself
    # CPU time: wall clock on the shared CI box is too noisy for a 1 s budget
    start = time.process_time()
    worst = 0.0
    errors = []
    for n in range(1, 1025):
        got = parallel_sum(A, n * B).sum
        expected = np.array([[n / (n + 1.0), 0.0], [0.0, 0.0]])
        worst = max(worst, float(np.abs(got - expected).max()))
        errors.append(opnorm(got - limit))
    elapsed = time.process_time() - start
    slope = float(np.polyfit(np.log(np.arange(1, 1025)), np.log(errors), 1)[0])
    ok = worst <= 1e-12 and abs(slope + 1.0) <= 0.02 and elapsed < 1.0
    report(1, ok, f"max entry error {worst:.2e}, slope {slope:+.4f}, "
                  f"{elapsed:.2f}s cpu")


def test_criterion_2_route_agreement():
    start = time.perf_counter()
    accepted = failures = 0
    trial = 0
    while accepted < 500:
        rng = trial_rng(CFG.seed, 101, trial)
        trial += 1
        assert trial < 5000, "summable-pair generator starved"
        drawn = draw_summable(rng, CFG, DEFAULT_TOL)
        if drawn is None:
            continue
        A, B = drawn
        accepted += 1
        # the sum A - A (A+B)^+ A against A (A+B)^+ B (Anderson & Duffin 1969)
        gap = opnorm(parallel_sum(A, B).sum - A @ pinv(A + B) @ B)
        if gap > 1e-8 * max(opnorm(A), opnorm(B)):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0
    report(2, ok, f"500 summable pairs, {failures} route disagreements, {elapsed:.1f}s")


def test_criterion_3_mitra_maximality():
    member_failures = dominance_failures = 0
    accepted_candidates = 0
    done = 0
    trial = 0
    while done < 200:
        rng = trial_rng(CFG.seed, 102, trial)
        trial += 1
        assert trial < 4000, "complementable generator starved"
        drawn = draw_complementable(rng, CFG, DEFAULT_TOL)
        if drawn is None:
            continue
        A, S, T = drawn
        done += 1
        sig = shorted(A, S, T).shorted
        if not in_minus_set(sig, A, S, T):
            member_failures += 1
            continue
        U, s, Vh = np.linalg.svd(sig)
        r = rank_at_scale(sig, max(opnorm(A), opnorm(sig)), DEFAULT_TOL)
        for _ in range(4):
            k = int(rng.integers(0, r + 1)) if r else 0
            keep = sorted(rng.permutation(r)[:k]) if r else []
            E = U[:, keep] @ U[:, keep].conj().T
            C = E @ sig
            if not in_minus_set(C, A, S, T):
                continue  # rejection sampling: outside the candidate set
            accepted_candidates += 1
            v = minus_leq(C, sig)
            if not (v.holds and v.rank_route and v.projection_route):
                dominance_failures += 1
    ok = member_failures == 0 and dominance_failures == 0 and accepted_candidates > 0
    report(3, ok, f"200 triples: shorted in the set every time, "
                  f"{accepted_candidates} accepted members all dominated "
                  f"({member_failures}/{dominance_failures} failures)")


def test_criterion_4_range_identities():
    failures = 0
    done = 0
    trial = 0
    while done < 300:
        rng = trial_rng(CFG.seed, 103, trial)
        trial += 1
        assert trial < 5000
        drawn = draw_complementable(rng, CFG, DEFAULT_TOL)
        if drawn is None:
            continue
        A, S, T = drawn
        done += 1
        sig = shorted(A, S, T).shorted
        if not shorted_range_nullspace_ok(A, S, T, sig, DEFAULT_TOL):
            failures += 1
    report(4, failures == 0, f"300 triples, {failures} range/nullspace failures")


def test_criterion_5_round_trip_subtraction():
    failures = 0
    done = 0
    trial = 0
    while done < 300:
        rng = trial_rng(CFG.seed, 104, trial)
        trial += 1
        assert trial < 5000
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, min(m, n) + 1))
        A = gauss(rng, m, r) @ gauss(rng, r, n)
        if not cond_ok(A, CFG.condition_cap):
            continue
        C = gen_da_member(A, rng)
        if not cond_ok(C - A, CFG.condition_cap):
            continue
        done += 1
        X = parallel_subtract(C, A)
        good = opnorm(parallel_sum(A, X).sum - C) <= 1e-8 * max(opnorm(C), 1.0)
        # the uniqueness-selecting side conditions
        total = A + X
        good = good and in_da(C, A)
        good = good and Subspace.range_of(total).equals(Subspace.range_of(A))
        good = good and Subspace.range_of(total.conj().T).equals(
            Subspace.range_of(A.conj().T)
        )
        if not good:
            failures += 1
    report(5, failures == 0, f"300 pairs, {failures} round-trip failures")


def test_criterion_6_iterated_shorting():
    failures = 0
    done = 0
    trial = 0
    while done < 200:
        rng = trial_rng(CFG.seed, 105, trial)
        trial += 1
        assert trial < 20000, "qualifying iterated-shorting instances too rare"
        n = int(rng.integers(4, 7))
        m = int(rng.integers(4, 7))
        s_dim = int(rng.integers((n + 1) // 2 + 1, n + 1))
        t_dim = int(rng.integers((m + 1) // 2 + 1, m + 1))
        sigma_rank = min(int(rng.integers(0, 3)), s_dim, t_dim)
        rank22 = int(rng.integers(0, min(n - s_dim, m - t_dim) + 1))
        drawn = draw_with_known_shorted(rng, CFG, DEFAULT_TOL, n, m, s_dim,
                                        t_dim, sigma_rank, rank22)
        if drawn is None:
            continue
        A, S, T = drawn
        S_hat = Subspace.from_spanning(
            trial_rng(CFG.seed, 106, trial).standard_normal((n, int(rng.integers(n - sigma_rank, n + 1))))
        )
        T_hat = Subspace.from_spanning(
            trial_rng(CFG.seed, 107, trial).standard_normal((m, int(rng.integers(m - sigma_rank, m + 1))))
        )
        if not complementability(A, S, T).weakly:
            continue
        first = shorted(A, S, T).shorted
        if not complementability(first, S_hat, T_hat).weakly:
            continue
        S_meet = subspace_meet(S, S_hat)
        T_meet = subspace_meet(T, T_hat)
        if not complementability(A, S_meet, T_meet).weakly:
            continue
        done += 1
        lhs = shorted(first, S_hat, T_hat).shorted
        rhs = shorted(A, S_meet, T_meet).shorted
        if opnorm(lhs - rhs) > 1e-8 * max(opnorm(A), 1.0):
            failures += 1
    report(6, failures == 0, f"200 qualifying instances, {failures} mismatches")


def test_criterion_7_recovery_formula():
    from shortops import recover_shorted

    failures = escalation_failures = 0
    done = 0
    trial = 0
    while done < 100:
        rng = trial_rng(CFG.seed, 108, trial)
        trial += 1
        assert trial < 3000
        drawn = draw_complementable_matched(rng, CFG, DEFAULT_TOL)
        if drawn is None:
            continue
        A, S, T = drawn
        L = gen_with_ranges(T, S, rng)
        if not cond_ok(L, 1e4):
            continue
        done += 1
        got = recover_shorted(A, S, T, L, 1)
        sig = shorted(A, S, T).shorted
        if opnorm(got - sig) > 1e-7 * max(opnorm(A), 1.0):
            failures += 1
        # escalation from n=1 must settle within 10 doublings
        usable = False
        for k in range(11):
            scaled = (1 << k) * L
            if summability(A, scaled).strongly and in_da(
                parallel_sum(A, scaled).sum, scaled
            ):
                usable = True
                break
        if not usable:
            escalation_failures += 1
    ok = failures == 0 and escalation_failures == 0
    report(7, ok, f"100 instances, {failures} accuracy / "
                  f"{escalation_failures} escalation failures")


def test_criterion_8_finite_dim_collapse():
    suite = run_suite(GenConfig(seed=CFG.seed, trials=100))
    collapse = {
        name: outcome
        for name, outcome in suite.outcomes.items()
        if name.startswith("collapse-")
    }
    assert set(collapse) == {"collapse-complementability", "collapse-summability"}
    discrepancies = sum(o.failed for o in collapse.values())
    ok = discrepancies == 0 and suite.total_failures == 0
    report(8, ok, f"whole suite at 100 trials: {discrepancies} collapse "
                  f"discrepancies, {suite.total_failures} failures overall")


def test_criterion_9_order_axioms():
    minus_axioms = dict(INVARIANTS)["minus-axioms"]
    projection_inheritance = dict(INVARIANTS)["minus-projection-inheritance"]
    failures = 0
    for trial in range(500):
        rng = trial_rng(CFG.seed, 109, trial)
        if minus_axioms(rng, CFG, DEFAULT_TOL) is False:
            failures += 1
        rng = trial_rng(CFG.seed, 110, trial)
        if projection_inheritance(rng, CFG, DEFAULT_TOL) is False:
            failures += 1
    report(9, failures == 0, f"500 constructive chains, {failures} axiom failures")


def test_criterion_10_determinism(tmp_path):
    out = tmp_path / "verify.json"
    argv = ["verify", "--seed", "424242", "--trials", "3",
            "--json-out", str(out)]
    code_first = cli_main(argv)
    first = out.read_bytes()
    code_second = cli_main(argv)
    second = out.read_bytes()
    ok = code_first == code_second == 0 and first == second
    payload = json.loads(first)
    ok = ok and payload["report"]["total_failures"] == 0
    report(10, ok, f"verify reports byte-identical across runs "
                   f"({len(first)} bytes)")
