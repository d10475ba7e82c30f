"""Factorizations made by single first calls, in a fresh process.

    python3 bench/probe.py

Prints one JSON object of LAPACK call counts for four fixed calls, each the
first of its kind and shape in the process, so the library's caches are
cold: parallel_sum 2x2, shorted 2x2 (the README example), minus_leq 3x3 on
a singular-triple subset, and parallel_sum 64x64. The counts depend on the
code only and repeat exactly from run to run.
"""

import json
import sys

import numpy as np

import gen
import run
import tracing

sys.path.insert(0, str(run.SRC))

import shortops as so  # noqa: E402


def probes():
    rng = np.random.default_rng(0)
    A2, B2 = gen.gauss(rng, 2, 2), gen.gauss(rng, 2, 2)
    minus = gen.minus_pair(rng, 3, 3, 3, True)
    A64, B64 = gen.gauss(rng, 64, 64), gen.gauss(rng, 64, 64)
    S = so.Subspace(2, np.eye(2)[:, :1])
    return {
        "parallel_sum_2x2": lambda: so.parallel_sum(A2, B2),
        "shorted_2x2": lambda: so.shorted(np.array([[2.0, 1.0], [1.0, 1.0]]), S, S),
        "minus_leq_3x3": lambda: so.minus_leq(minus["C"], minus["B"]),
        "parallel_sum_64x64": lambda: so.parallel_sum(A64, B64),
    }


def main():
    calls = probes()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    counts = {}
    for name, call in calls.items():
        before = dict(tracer.calls)
        with tracer.op():
            call()
        counts[name] = {k.split(".", 1)[1]: v - before.get(k, 0)
                        for k, v in tracer.calls.items()
                        if k.startswith("linalg.") and v != before.get(k, 0)}
    print(json.dumps(counts, sort_keys=True))


if __name__ == "__main__":
    main()
