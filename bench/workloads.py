"""The four benchmark workloads.

Each workload turns the seed into a fixed schedule of operations that a run
cycles through until its time is up. Schedules interleave
call classes by smooth weighted round robin, so every stretch of a run holds
each class in its stated share, and the shares keep p50 and the tail
percentile well inside one class each.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import libops
from libops import Dims, Op


def interleave(weights: dict[str, int]) -> list[str]:
    """Smooth weighted round robin: each prefix keeps the shares close."""
    total = sum(weights.values())
    credit = dict.fromkeys(weights, 0)
    order = []
    for _ in range(total):
        for kind, w in weights.items():
            credit[kind] += w
        best = max(credit, key=credit.get)
        credit[best] -= total
        order.append(best)
    return order


def _occurrences(order):
    """(kind, how many times kind came before) for each entry of order."""
    seen = dict.fromkeys(order, 0)
    for kind in order:
        yield kind, seen[kind]
        seen[kind] += 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tail_pct: float   # declared tail percentile; see run.tail()
    build: Callable   # (so, seed, ctx) -> (schedule, warm-up ops)


# The library call mix shared by small-ops and dense-ops, as weights out of
# 40. Rejections (not summable, not complementable, not in D_A, minus order
# false, and the false half of the predicate classes) are 12/40 = 30 %.
LIBRARY_MIX = {
    "parallel_sum": 5, "parallel_sum_reject": 2, "summability": 3,
    "shorted": 5, "shorted_reject": 2, "complementability": 3,
    "minus_leq": 4, "minus_leq_false": 2, "in_minus_set": 3,
    "parallel_subtract": 3, "parallel_subtract_reject": 2,
    "recover_shorted": 2, "reduced_solution": 2, "range_leq": 2,
}
SMALL_DIMS = Dims(sides=tuple(range(2, 9)), rect_sides=tuple(range(2, 9)),
                  rect_share=0.3, deficient_share=0.3)
DENSE_DIMS = Dims(sides=(64,), rect_sides=(48,), rect_share=0.25, deficient_share=0.3)


def _library(dims: Dims, cycles: int, stream: int):
    def build(so, seed, ctx):
        rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
        order = interleave(LIBRARY_MIX)
        ops = [getattr(libops, kind)(so, rng, dims, c * LIBRARY_MIX[kind] + j)
               for c in range(cycles) for kind, j in _occurrences(order)]
        return ops, list({op.kind: op for op in ops}.values())
    return build


SUITE_SEEDS = 1000   # more than a run reaches: every op draws afresh


def _verify_suite(so, seed, ctx):
    ctx.suite_invariants = len(so.genlab.INVARIANTS)

    def op(i):
        op_seed = int(np.random.SeedSequence([seed, 3, i]).generate_state(1, np.uint64)[0])
        config = so.GenConfig(seed=op_seed, dim_range=(2, 8), trials=1)
        return Op("run_suite", lambda: so.run_suite(config),
                  lambda rep: _suite_report_ok(rep, op_seed, ctx))
    ops = [op(i) for i in range(SUITE_SEEDS)]
    return ops, ops[:1]


def _suite_report_ok(rep, op_seed, ctx) -> bool:
    """The report accounts for every trial of every invariant, and its failure
    list agrees with its counts. Invariant failures are the suite's findings,
    not broken operations: they are tallied with their replay entropy."""
    outcomes = rep.outcomes.values()
    ok = (rep.seed == op_seed and len(outcomes) == ctx.suite_invariants
          and all(o.passed + o.failed + o.skipped == 1 for o in outcomes)
          and rep.total_failures == len(rep.failures))
    ctx.suite_trials += len(outcomes)
    ctx.suite_skips += sum(o.skipped for o in outcomes)
    ctx.suite_findings.extend(rep.failures)
    return ok


# ---------------------------------------------------------------------------
# cli-files: one CLI process per operation, on JSON files written in set-up


def _payload(A) -> dict:
    A = np.asarray(A, dtype=np.complex128)
    return {"rows": A.shape[0], "cols": A.shape[1], "complex": True,
            "data": [[[z.real, z.imag] for z in row] for row in A.tolist()]}


def _matrix(payload) -> np.ndarray:
    data = payload["data"]
    if payload["complex"]:
        out = np.array([[complex(re, im) for re, im in row] for row in data])
    else:
        out = np.array(data, dtype=float)
    return out.reshape(payload["rows"], payload["cols"]).astype(np.complex128)


@dataclass
class CliCase:
    kind: str
    argv: list[str]
    code: int
    check: Callable[[dict], bool]


class CliFiles:
    """Writes fixtures under ``root`` and runs one CLI process per op."""

    def __init__(self, root: Path, env: dict):
        self.root, self.env = root, env
        self.launcher: list[str] | None = None  # tracing launcher, if set
        self.count = 0
        self.max_child_rss_kb = 0
        self.bytes_out = 0
        self.child_traces: list[dict] = []
        self.import_s: list[float] = []

    def file(self, obj) -> str:
        self.count += 1
        path = self.root / f"f{self.count}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def matrix(self, A) -> str:
        return self.file(_payload(A))

    def subspace(self, basis) -> str:
        return self.file({"ambient": basis.shape[0], "kind": "basis",
                          "data": _payload(basis)})

    def run(self, case: CliCase):
        """Spawn the CLI (or the tracing launcher), wait, return its result."""
        out = self.root / "out.json"
        trace = self.root / "trace.json"
        for stale in (out, trace):
            if stale.exists():
                stale.unlink()
        argv = [*case.argv, "--json-out", str(out)]
        if self.launcher is None:
            cmd = [sys.executable, "-m", "shortops.cli", *argv]
        else:
            cmd = [sys.executable, *self.launcher, str(trace), *argv]
        spawn_wall = time.time()
        with open(os.devnull, "wb") as null:
            pid = os.posix_spawn(cmd[0], cmd, self.env, file_actions=[
                (os.POSIX_SPAWN_DUP2, null.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, null.fileno(), 2)])
            _, status, usage = os.wait4(pid, 0)
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        return os.waitstatus_to_exitcode(status), out, trace, spawn_wall

    def verify(self, case: CliCase, result) -> bool:
        code, out, trace, spawn_wall = result
        if trace.exists():
            child = json.loads(trace.read_text())
            self.child_traces.append(child["totals"])
            self.import_s.append(child["main_entry_wall"] - spawn_wall)
        if code != case.code or not out.exists():
            return False
        self.bytes_out += out.stat().st_size
        return bool(case.check(json.loads(out.read_text())))


def _close_to(key, ref, rel=1e-7):
    return lambda p: gen.close(_matrix(p["result"][key]), ref, rel)


def _error_is(tag):
    return lambda p: p.get("error") == tag


def _holds_is(truth):
    return lambda p: p.get("holds") is truth


CLI_SMALL = Dims(sides=(2, 8), rect_sides=(2, 8), rect_share=0.0, deficient_share=0.3)
CLI_BIG = Dims(sides=(64,), rect_sides=(64,), rect_share=0.0, deficient_share=0.3)


def _cli_cases(files: CliFiles, rng):
    """Per CLI op kind: (weight out of 23, factory of its k-th case)."""
    small, big = CLI_SMALL, CLI_BIG

    def triple_files(t):
        return [files.matrix(t["A"]), files.subspace(t["S"]), files.subspace(t["T"])]

    def short(dims, kind, k):
        t = libops.triple(rng, dims, k, True)
        return CliCase(kind, ["short", *triple_files(t)], 0, _close_to("shorted", t["shorted"]))

    def short_reject(k):
        t = libops.triple(rng, small, k, False)
        return CliCase("short_reject", ["short", *triple_files(t)], 2,
                       _error_is("not-complementable"))

    def psum(k):
        m, n = small.shape(k)
        p = gen.summable_pair(rng, m, n, small.rank(min(m, n), k))
        return CliCase("psum", ["psum", files.matrix(p["A"]), files.matrix(p["B"])], 0,
                       _close_to("sum", gen.psum_ref(p["A"], p["B"])))

    def psum_reject(k):
        p = gen.nonsummable_pair(rng, *small.shape(k))
        return CliCase("psum_reject", ["psum", files.matrix(p["A"]), files.matrix(p["B"])],
                       2, _error_is("not-summable"))

    def psub(member, k):
        m, n = small.shape(k)
        r = small.rank(min(m, n), k) if member else min(m, n) - 1
        p = gen.da_pair(rng, m, n, r, member)
        argv = ["psub", files.matrix(p["C"]), files.matrix(p["A"])]
        if member:
            return CliCase("psub", argv, 0,
                           _close_to("difference", gen.psum_ref(p["C"], -p["A"])))
        return CliCase("psub_reject", argv, 2, _error_is("NotInDA"))

    def check(what, truth, k):
        if what == "complementable":
            operands = triple_files(libops.triple(rng, small, k, truth))
        else:
            m, n = small.shape(k)
            if what == "summable":
                p = (gen.summable_pair(rng, m, n, small.rank(min(m, n), k)) if truth
                     else gen.nonsummable_pair(rng, m, n))
                operands = [files.matrix(p["A"]), files.matrix(p["B"])]
            else:
                p = gen.minus_pair(rng, m, n, small.rank(min(m, n), k), truth)
                operands = [files.matrix(p["C"]), files.matrix(p["B"])]
        return CliCase(f"check_{what}_{str(truth).lower()}",
                       ["check", *operands, "--what", what], 0 if truth else 3,
                       _holds_is(truth))

    def converge(k):
        t = libops.triple(rng, small, k, True, matched=True)
        L = gen.auxiliary(rng, t["S"], t["T"])
        scale = np.linalg.norm(t["A"], 2)

        def ok(p):
            errors = p["result"]["errors"]
            return (gen.close(_matrix(p["result"]["auxiliary"]), L)
                    and errors[-1] <= 1e-3 * scale and errors[-1] <= errors[0])
        return CliCase("converge", ["converge", *triple_files(t), files.matrix(L)], 0, ok)

    def demo_impedance(k):
        side = small.shape(k)[0]
        ports = [gen.spectral(rng, side, side, side) for _ in range(3)]
        ports = [Z @ Z.conj().T for Z in ports]          # Hermitian positive definite
        ref = np.linalg.inv(sum(np.linalg.inv(Z) for Z in ports))
        return CliCase("demo_impedance",
                       ["demo-impedance", "--ports", *map(files.matrix, ports)], 0,
                       _close_to("impedance", ref))

    cases = {
        "short": (2, lambda k: short(small, "short", k)),
        "short_reject": (1, short_reject),
        "psum": (1, psum),
        "psum_reject": (1, psum_reject),
        "psub": (1, lambda k: psub(True, k)),
        "psub_reject": (1, lambda k: psub(False, k)),
        "converge": (1, converge),
        "demo_impedance": (1, demo_impedance),
        # 7 of 23 ops (30 %) on 64x64 files, one kind, so that p50 and the
        # tail percentile each fall well inside one size class
        "short_64": (7, lambda k: short(big, "short_64", k)),
    }
    for what in ("complementable", "summable", "minus"):
        for truth in (True, False):
            cases[f"check_{what}_{str(truth).lower()}"] = (
                1, lambda k, what=what, truth=truth: check(what, truth, k))
    return cases


CLI_CYCLES = 3


def _cli_files(so, seed, ctx):
    files = ctx.cli
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    factories = _cli_cases(files, rng)
    weights = {kind: w for kind, (w, _) in factories.items()}
    cases = [factories[kind][1](c * weights[kind] + j)
             for c in range(CLI_CYCLES) for kind, j in _occurrences(interleave(weights))]

    def op_for(case):
        return Op(case.kind, lambda: files.run(case), lambda res: files.verify(case, res))

    ops = [op_for(c) for c in cases]
    return ops, ops[:1]


WORKLOADS = {w.name: w for w in (
    # At n <= 8, Python overhead and the number of factorizations per call set
    # the time; the reject share keeps the report/angle path beside the
    # success path, so a gain on one that costs the other shows.
    Workload("small-ops",
             "in-process public calls at n=2..8 (30% rectangular): 14 call classes of "
             "10 ops, 30% rejected; Python overhead and factorizations per call set "
             "the time", 99.0, _library(SMALL_DIMS, 12, 1)),
    # At n = 64, LAPACK time dominates: fewer factorizations per operand saves
    # the most here, while batching small matrices should not move it.
    Workload("dense-ops",
             "the small-ops call mix and reject share at n=64 (25% 64x48, 30% "
             "rank-deficient operands and corners): LAPACK time dominates",
             97.5, _library(DENSE_DIMS, 3, 2)),
    # The user's verify path without process start, the only workload where
    # genlab's generators, condition-cap skips and invariant bodies do the work.
    Workload("verify-suite",
             "one run_suite pass (34 invariants, trials=1, dims 2..8) per op: the only "
             "workload where genlab generators, skips and invariant bodies do the work",
             90.0, _verify_suite),
    # The only workload where process start, imports, serialize and cli do the
    # work; the 64x64 share puts the tail on large JSON output.
    Workload("cli-files",
             "one CLI process per op on JSON files (2x2/8x8, 30% short on 64x64; exit "
             "codes 0/2/3): the only workload for process start, imports, serialize "
             "and cli", 80.0, _cli_files),
)}
