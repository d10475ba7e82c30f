"""shortops benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``. Workloads: small-ops, dense-ops, verify-suite, cli-files (see
``workloads.py``). Load comes from one closed-loop caller in this process,
with at most one CLI child at a time, and BLAS/OpenMP threads are pinned to
1 here and in every child before numpy is imported.

With ``--trace 0`` the run measures for S seconds of op time and reports the
end-to-end metrics. With ``--trace 1`` it measures S/2 seconds untraced, then
S/2 seconds with every layer wrapped (``tracing.py``), and reports the
per-layer metrics; traced numbers never feed the end-to-end ones. Every
operation's output is checked against an independent reference outside its
timed span. Times are scaled to a reference host by a gauge kernel timed all
through the run (``gauge.py``); the raw times are printed too. The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import os
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from gauge import EVERY_S, REFERENCE_MS, Gauge  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
LAUNCHER = [str(BENCH / "cli_child.py")]
TAIL_LADDER = (99.9, 99.5, 99.0, 97.5, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)
SERIALIZE_LOAD = ("serialize.load_matrix", "serialize.load_subspace")
SERIALIZE_EMIT = ("serialize.matrix_to_payload", "serialize.subspace_to_payload",
                  "serialize.dumps_report")


class Context:
    """Per-run state the workloads report into."""

    def __init__(self, work: Path, env: dict):
        self.work, self.env = work, env
        self.suite_invariants = 0
        self.suite_trials = 0
        self.suite_skips = 0
        self.suite_findings: list[dict] = []
        self.cli = None


class Phase:
    """Latencies and outcomes of one timed phase over a cyclic schedule."""

    def __init__(self):
        self.start: list[float] = []     # perf_counter() at each op's start
        self.lat: list[float] = []
        self.kinds: list[str] = []
        self.failures: list[str] = []
        self.next_index = 0

    def scaled(self, gauge: Gauge) -> list[float]:
        """Latencies scaled to the reference host."""
        return [lat * f for lat, f in zip(self.lat, gauge.factors(self.start))]

    def ops_per_s(self, gauge: Gauge) -> float:
        return len(self.lat) / sum(self.scaled(gauge))


def measure(ops, seconds: float, gauge: Gauge, start: int = 0, tracer=None) -> Phase:
    """Closed loop over the schedule (call, time, check) until the ops' time
    adds up to ``seconds``. The phase's wall time is that sum: the checks and
    the gauge's samples in between are the benchmark's, not the program's."""
    phase = Phase()
    i = start
    busy = 0.0
    next_gauge = time.perf_counter()
    while busy < seconds:
        if time.perf_counter() >= next_gauge:
            gauge.sample()
            next_gauge = time.perf_counter() + EVERY_S
        op = ops[i % len(ops)]
        out = exc = None
        a = time.perf_counter()
        try:
            if tracer is None:
                out = op.call()
            else:
                with tracer.op():
                    out = op.call()
        except Exception as e:  # an unexpected error is a failed op, not a crash
            exc = e
        b = time.perf_counter()
        if not op.verify(out, exc):
            phase.failures.append(f"{op.kind}#{i % len(ops)}: {exc!r}" if exc
                                  else f"{op.kind}#{i % len(ops)}")
        phase.start.append(a)
        phase.lat.append(b - a)
        phase.kinds.append(op.kind)
        busy += b - a
        i += 1
    gauge.sample()
    phase.next_index = i
    return phase


def tail(lat: list[float], declared: float) -> tuple[float, float, int]:
    """(percentile, latency, samples beyond) at the workload's declared tail
    percentile, or at the highest lower one on the ladder that still has at
    least 10 samples beyond it."""
    pct = next((p for p in (declared, *TAIL_LADDER)
                if p <= declared and len(lat) * (100.0 - p) / 100.0 >= 10), 50.0)
    value = float(np.percentile(lat, pct))
    return pct, value, sum(1 for x in lat if x > value)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup(workload, seed: int, ctx: Context):
    """Imports, input/fixture generation and warm-up; returns the schedule."""
    import shortops
    import workloads
    if workload.name == "cli-files":
        ctx.cli = workloads.CliFiles(ctx.work, ctx.env)
    ops, warm = workload.build(shortops, seed, ctx)
    for op in warm:
        try:
            op.call()
        except shortops.ShortopsError:
            pass  # expected rejections; outputs are checked in the timed phase
    return ops


def setup_samples(args, gauge: Gauge) -> tuple[list[float], list[float]]:
    """Seconds from process start to ready in fresh processes: raw, and scaled
    by the gauge sampled around each of them."""
    raw, starts = [], []
    for _ in range(SETUP_SAMPLES):
        gauge.sample(3)
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--setup-only"],
                stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True) as child:
            line = child.stdout.readline()
            raw.append(time.perf_counter() - t0)
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up child failed")
        starts.append(t0)
        gauge.sample(2)
    return raw, [r * f for r, f in zip(raw, gauge.factors(starts))]


def cli_start_probe(ctx: Context) -> list[float]:
    """Seconds from spawn to entry into cli.main, for a 1x1 psum run three
    times through the tracing launcher; every traced run measures it."""
    import workloads
    work = ctx.work / "cli-start"
    work.mkdir()
    files = workloads.CliFiles(work, ctx.env)
    files.launcher = LAUNCHER
    one = np.array([[2.0]])
    case = workloads.CliCase("psum_1x1", ["psum", files.matrix(one), files.matrix(one)], 0,
                             workloads._close_to("sum", one / 2))
    for _ in range(3):
        if not files.verify(case, files.run(case)):
            raise RuntimeError("CLI start probe failed")
    return files.import_s


def probe_counts() -> dict:
    out = subprocess.run([sys.executable, str(BENCH / "probe.py")], env=child_env(),
                         cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def environment(args, gauge: Gauge) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": args.seed, "workload": args.workload, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "host_gauge": gauge.summary(),
    }


def end_to_end(workload, phase: Phase, ctx: Context, setup_times: tuple, gauge: Gauge):
    lat = phase.scaled(gauge)
    pct, tail_s, beyond = tail(lat, workload.tail_pct)
    if ctx.cli is not None:
        rss_kb = ctx.cli.max_child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = len(lat)
    metrics = {
        "setup_s": (statistics.median(setup_times[1]), "s"),
        "ops_per_s": (n / sum(lat), "ops/s"),
        "op_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "op_ms_tail": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "ok_frac": ((n - len(phase.failures)) / n, "1"),
    }
    info = {"tail_pct": pct, "tail_beyond": beyond, "samples": n,
            "fail_frac": len(phase.failures) / n,
            "raw": {"setup_s": statistics.median(setup_times[0]),
                    "ops_per_s": n / sum(phase.lat),
                    "op_ms_p50": statistics.median(phase.lat) * 1e3,
                    "op_ms_tail": float(np.percentile(phase.lat, pct)) * 1e3}}
    return metrics, info


def per_layer(totals: dict, n_ops: int, ctx: Context, probes: dict,
              cli_starts: list[float], gauge: Gauge, overhead: float) -> dict:
    """Per-layer metrics from span totals. Times are scaled to the reference
    host by the run's median gauge reading; counts are exact."""
    import tracing
    calls, incl, self_s = totals["calls"], totals["inclusive"], totals["self"]
    entered, edges = totals["entered"], totals["edges"]
    scale = REFERENCE_MS / gauge.summary()["median_ms"]

    def keys(layer):
        return [k for k in calls if tracing.layer_of(k) == layer]

    def ms(seconds, per=n_ops):
        return seconds * 1e3 * scale / per if per else 0.0

    lapack = [k for k in calls if k.startswith("linalg.")]
    lapack_s = sum(incl[k] for k in lapack)
    m = {
        "numcore.svd_calls_per_op": (calls.get("linalg.svd", 0) / n_ops, "calls/op"),
        "numcore.lapack_calls_per_op": (sum(calls[k] for k in lapack) / n_ops, "calls/op"),
        "numcore.lapack_ms_per_op": (ms(lapack_s), "ms/op"),
        "numcore.lapack_share": (lapack_s / incl[tracing.ROOT], "1"),
        "numcore.svd_gflop_computed_per_op": (totals["svd_flops"] / 1e9 / n_ops, "GFLOP/op"),
        "numcore.opnorm_calls_per_op": (calls.get("numcore.opnorm", 0) / n_ops, "calls/op"),
    }
    for layer in ("geometry", "douglas", "shorting", "minusorder", "parallel"):
        m[f"{layer}.calls_per_op"] = (sum(calls[k] for k in keys(layer)) / n_ops, "calls/op")
        m[f"{layer}.self_ms_per_op"] = (ms(sum(self_s[k] for k in keys(layer))), "ms/op")
    recovered = calls.get("parallel.recover_shorted", 0) - totals["raised"].get(
        "parallel.recover_shorted", 0)
    checks = edges.get("parallel.recover_shorted>parallel.summability", 0)
    m["parallel.summability_checks_per_recover"] = (
        checks / recovered if recovered else 0.0, "calls")
    trials = ctx.suite_trials
    m["genlab.self_ms_per_trial"] = (ms(sum(self_s[k] for k in keys("genlab")), trials),
                                     "ms/trial")
    m["genlab.skip_share"] = (ctx.suite_skips / trials if trials else 0.0, "1")
    # one per invariant the suite had when the benchmark was defined
    for spec in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        name = spec["name"].removeprefix("genlab.invariant_ms.")
        if name != spec["name"]:
            key = f"genlab.invariant:{name}"
            m[spec["name"]] = (ms(incl.get(key, 0.0), calls.get(key, 0)), "ms/trial")
    m["serialize.load_ms_per_op"] = (ms(sum(entered.get(k, 0.0) for k in SERIALIZE_LOAD)),
                                     "ms/op")
    m["serialize.emit_ms_per_op"] = (ms(sum(entered.get(k, 0.0) for k in SERIALIZE_EMIT)),
                                     "ms/op")
    m["serialize.bytes_out_per_op"] = (ctx.cli.bytes_out / n_ops if ctx.cli else 0.0, "B/op")
    m["cli.import_ms"] = (ms(statistics.median(cli_starts), 1), "ms")
    m["cli.self_ms_per_op"] = (ms(sum(self_s[k] for k in keys("cli"))), "ms/op")
    compute = sum(self_s[k] for layer in tracing.LIBRARY_LAYERS for k in keys(layer))
    m["cli.compute_ms_per_op"] = (ms(compute) if "cli.main" in calls else 0.0, "ms/op")
    for name, counts in sorted(probes.items()):
        m[f"numcore.svd_per_call.{name}"] = (counts.get("svd", 0), "calls")
    m["numcore.inv_per_call.minus_leq_3x3"] = (probes["minus_leq_3x3"].get("inv", 0), "calls")
    m["host.calib_ms"] = (gauge.summary()["median_ms"], "ms")
    m["trace.overhead_frac"] = (overhead, "1")
    return m


def report(workload, phases, metrics, info, env, ctx):
    kinds: dict[str, list[float]] = {}
    for phase in phases:
        for kind, lat in zip(phase.kinds, phase.lat):
            kinds.setdefault(kind, []).append(lat)
    print(f"# {workload.name}: {workload.why}")
    for kind, lat in sorted(kinds.items()):
        print(f"#   {kind:28s} n={len(lat):6d} p50={statistics.median(lat) * 1e3:9.3f} ms")
    for phase in phases:
        for failure in phase.failures[:10]:
            print(f"# FAILED {failure}")
    if ctx.suite_findings:
        print(f"# suite invariant failures (replay with verify --seed S --trials 1): "
              f"{json.dumps(ctx.suite_findings[:10])}")
    print("# environment " + json.dumps(env, sort_keys=True))
    print("# info " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    attempted = sum(len(p.lat) for p in phases)
    failed = sum(len(p.failures) for p in phases)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (timed by the parent)")
    args = parser.parse_args(argv)

    if not (SRC / "shortops" / "__init__.py").is_file():
        print(f"bench: no shortops sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    ctx = Context(work, child_env())
    try:
        if args.setup_only:
            setup(workload, args.seed, ctx)
            print("ready", flush=True)
            return 0
        return run(args, workload, ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def run(args, workload, ctx) -> int:
    gauge = Gauge()
    if args.trace == 0:
        setup_times = setup_samples(args, gauge)
        ops = setup(workload, args.seed, ctx)
        phase = measure(ops, args.seconds, gauge)
        metrics, info = end_to_end(workload, phase, ctx, setup_times, gauge)
        report(workload, [phase], metrics, info, environment(args, gauge), ctx)
        return 0

    import tracing
    probes = probe_counts()
    cli_starts = cli_start_probe(ctx)
    ops = setup(workload, args.seed, ctx)
    plain = measure(ops, args.seconds / 2, gauge)
    ctx.suite_trials = ctx.suite_skips = 0
    if ctx.cli is not None:
        # spans come from the CLI children, each run through the launcher
        ctx.cli.launcher = LAUNCHER
        ctx.cli.bytes_out = 0
        traced = measure(ops, args.seconds / 2, gauge, plain.next_index)
        totals = {}
        for child in ctx.cli.child_traces:
            tracing.merge(totals, child)
        cli_starts += ctx.cli.import_s
    else:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = measure(ops, args.seconds / 2, gauge, plain.next_index, tracer)
        totals = tracer.totals()
    overhead = 1.0 - traced.ops_per_s(gauge) / plain.ops_per_s(gauge)
    metrics = per_layer(totals, len(traced.lat), ctx, probes, cli_starts, gauge, overhead)
    info = {"untraced_ops_per_s": plain.ops_per_s(gauge),
            "traced_ops_per_s": traced.ops_per_s(gauge), "traced_samples": len(traced.lat)}
    report(workload, [plain, traced], metrics, info, environment(args, gauge), ctx)
    return 0


if __name__ == "__main__":
    sys.exit(main())
