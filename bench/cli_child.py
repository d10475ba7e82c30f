"""Run the shortops CLI under the benchmark's tracer.

    python3 bench/cli_child.py TRACE_OUT CLI_ARG...

Used by traced ``cli-files`` runs in place of ``python3 -m shortops.cli``;
``run.py`` starts it with ``src/`` on PYTHONPATH and the BLAS threads pinned.
It installs the same wrappers as an in-process traced run, calls
``shortops.cli.main`` inside one root span, writes the span totals and the
wall-clock time at entry to ``main`` (wrapper installation excluded) to
TRACE_OUT, and exits with the code ``main`` returned.
"""

import json
import sys
import time

import tracing
import shortops.cli


def run(trace_out: str, argv: list[str]) -> int:
    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    tracing.install(tracer)
    entry_wall = time.time() - (time.perf_counter() - t0)
    with tracer.op():
        code = shortops.cli.main(argv)
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"totals": tracer.totals(), "main_entry_wall": entry_wall}, fh)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
