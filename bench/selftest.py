"""Self-test of the benchmark's checks: corrupted results must count as failures.

    python3 bench/selftest.py

Builds the small-ops schedule and one cli-files case, corrupts each output
(a perturbed matrix, a flipped verdict, a rejection that did not raise, a
wrong exit code, a JSON matrix that parses back to another value) and
requires every check to reject it while accepting the true output. Also
runs ``run.measure`` on corrupted ops and requires every op to be counted
as failed. Exits 0 when all of that holds, 1 otherwise.
"""

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import run

sys.path.insert(0, str(run.SRC))

import shortops as so  # noqa: E402
import workloads  # noqa: E402


def corrupt(op):
    """The same op with its output (or its raising) made wrong."""
    def call():
        try:
            out = op.call()
        except so.ShortopsError:
            return None                      # a rejection that did not raise
        if isinstance(out, np.ndarray):
            return out + 1e-3 * (1 + np.abs(out).max())
        if isinstance(out, (bool, np.bool_)):
            return not out
        fields = {f.name for f in dataclasses.fields(out)}
        if "holds" in fields:
            return dataclasses.replace(out, holds=not out.holds)
        return dataclasses.replace(out, strongly=not out.strongly, weakly=not out.weakly)
    return dataclasses.replace(op, call=call)


def outcome(op):
    try:
        return op.call(), None
    except Exception as exc:  # the check decides whether this was expected
        return None, exc


def main() -> int:
    problems = []
    ops, _ = workloads.WORKLOADS["small-ops"].build(so, 0, run.Context(None, {}))
    ops = ops[:len(workloads.LIBRARY_MIX) * 4]
    for op in ops:
        if not op.verify(*outcome(op)):
            problems.append(f"true output rejected: {op.kind}")
        if op.verify(*outcome(corrupt(op))):
            problems.append(f"corrupted output accepted: {op.kind}")

    phase = run.measure([corrupt(op) for op in ops], 0.2, run.Gauge())
    if not phase.lat or len(phase.failures) != len(phase.lat):
        problems.append(f"measure counted {len(phase.failures)} of {len(phase.lat)} "
                        "corrupted ops as failed")

    with tempfile.TemporaryDirectory() as tmp:
        files = workloads.CliFiles(Path(tmp), {})
        out, no_trace = Path(tmp) / "out.json", Path(tmp) / "no-trace.json"
        ref = np.array([[1.0, 0.5j], [0.0, 2.0]])
        short = workloads.CliCase("short", [], 0, workloads._close_to("shorted", ref))
        reject = workloads.CliCase("short_reject", [], 2,
                                   workloads._error_is("not-complementable"))
        right = {"result": {"shorted": workloads._payload(ref)}}
        wrong = {"result": {"shorted": workloads._payload(ref + 1e-3)}}
        for label, case, code, payload in (
                ("true", short, 0, right),
                ("wrong exit code", short, 1, right),
                ("wrong matrix", short, 0, wrong),
                ("true rejection", reject, 2, {"error": "not-complementable"}),
                ("wrong rejection", reject, 2, {"error": "not-summable"})):
            out.write_text(json.dumps(payload))
            if files.verify(case, (code, out, no_trace, 0.0)) != label.startswith("true"):
                problems.append(f"cli check wrong on {label} output")

    for problem in problems:
        print(problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
