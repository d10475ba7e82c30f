"""Command-line front end.

Exit codes: 0 success, 1 I/O or parse problem (including malformed or
mismatched inputs), 2 precondition failure (not complementable / not
summable / not in D_A / BadAuxiliary / EscalationExhausted /
RangeNotIncluded), 3 a checked predicate is cleanly false, 4 the
verification suite reports failures.  Every report embeds the tool
version, the full invocation and the effective tolerance.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    BadAuxiliary,
    BadDims,
    DimensionMismatch,
    EscalationExhausted,
    NotComplementable,
    NotInDA,
    NotSummable,
    RangeNotIncluded,
)
from .minusorder import minus_leq
from .numcore import Tolerance
from .parallel import (
    DEFAULT_SCHEDULE,
    SummabilityReport,
    parallel_subtract,
    parallel_sum,
    shorted_via_limit,
    summability,
)
from .serialize import (
    dumps_report,
    load_matrix,
    load_subspace,
    matrix_to_payload,
)
from .shorting import ComplementabilityReport, complementability, shorted

TOLERANCE_ENV = "SHORTOPS_TOL"

_TOL_HELP = (
    "comma-separated overrides of the tolerance defaults, e.g. "
    "'eq_rel=1e-8,rank_rel=1e-12,psd_slack=1e-10'; the environment variable "
    f"{TOLERANCE_ENV} supplies defaults with the same syntax"
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def parse_tolerance(text: str | None, base: Tolerance | None = None) -> Tolerance:
    tol = base or Tolerance()
    if not text:
        return tol
    overrides = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        key, sep, value = piece.partition("=")
        key = key.strip()
        if not sep or key not in ("rank_rel", "eq_rel", "psd_slack"):
            raise ValueError(f"bad tolerance override {piece!r}")
        try:
            overrides[key] = float(value)
        except ValueError:
            raise ValueError(f"{key} takes a number, got {value.strip()!r}") from None
    return dataclasses.replace(tol, **overrides)


def _effective_tolerance(args) -> Tolerance:
    tol = Tolerance()  # the defaults, then the environment's overrides, then --tol's
    for source, text in ((TOLERANCE_ENV, os.environ.get(TOLERANCE_ENV)), ("--tol", args.tol)):
        try:
            tol = parse_tolerance(text, tol)
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None
    return tol


def _envelope(argv: list[str], tol: Tolerance) -> dict:
    return {
        "tool": "shortops",
        "version": __version__,
        "invocation": ["shortops", *argv],
        "tolerance": dataclasses.asdict(tol),
    }


# The first-read attributes each report type writes after its public fields.
_FIRST_READ = {
    ComplementabilityReport: ("witnesses",),
    SummabilityReport: ("defects",),
}


def _payload(value, *extra):
    """``value`` as report JSON: a matrix becomes its matrix payload, a tuple
    a list, and a result dataclass its public fields, the attributes named
    in ``extra`` and its type's ``_FIRST_READ``, each converted in turn;
    anything else is passed through.  The report types define the JSON."""
    if isinstance(value, np.ndarray):
        return matrix_to_payload(value)
    if isinstance(value, tuple):
        return [_payload(item) for item in value]
    if dataclasses.is_dataclass(value):
        names = [f.name for f in dataclasses.fields(value) if not f.name.startswith("_")]
        lazy = (*extra, *_FIRST_READ.get(type(value), ()))
        return {name: _payload(getattr(value, name)) for name in (*names, *lazy)}
    return value


def _emit(args, payload: dict) -> None:
    text = dumps_report(payload)
    out = getattr(args, "json_out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(kind: str, role: str, path: str, tol: Tolerance):
    """The ``kind`` ("matrix" or "subspace") of operand in ``path``; input
    errors name the operand's role and its file.  They include bad JSON, a
    file that cannot be opened, an integer entry beyond float range and
    nesting deeper than the JSON reader's recursion limit."""
    try:
        return load_subspace(path, tol) if kind == "subspace" else load_matrix(path)
    except (OSError, OverflowError, RecursionError, ValueError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise ValueError(f"{role} {path}: {reason}") from None


def _cmd_short(args, tol, payload):
    A = _load("matrix", "operator", args.operator, tol)
    S = _load("subspace", "domain", args.domain, tol)
    T = _load("subspace", "codomain", args.codomain, tol)
    witnesses = ("E", "F", "P", "Q") if args.witnesses else ()
    payload["result"] = _payload(shorted(A, S, T, tol), *witnesses)
    return 0


def _cmd_psum(args, tol, payload):
    A = _load("matrix", "left", args.left, tol)
    B = _load("matrix", "right", args.right, tol)
    payload["result"] = _payload(parallel_sum(A, B, tol))
    return 0


def _cmd_psub(args, tol, payload):
    C = _load("matrix", "minuend", args.minuend, tol)
    A = _load("matrix", "subtrahend", args.subtrahend, tol)
    payload["result"] = {"difference": matrix_to_payload(parallel_subtract(C, A, tol))}
    return 0


# Each check's predicate and its operand files, as (kind, role) pairs.
_CHECKS = {
    "complementable": (complementability, ("matrix", "A-file"),
                       ("subspace", "S-file"), ("subspace", "T-file")),
    "summable": (summability, ("matrix", "A-file"), ("matrix", "B-file")),
    "minus": (minus_leq, ("matrix", "C-file"), ("matrix", "B-file")),
}


def _cmd_check(args, tol, payload):
    predicate, *files = _CHECKS[args.what]
    if len(args.files) != len(files):
        raise ValueError(f"{args.what} check needs {' '.join(role for _, role in files)}")
    operands = [_load(kind, role, path, tol) for (kind, role), path in zip(files, args.files)]
    report = predicate(*operands, tol)
    payload["report"] = _payload(report)
    payload["holds"] = holds = report.holds if args.what == "minus" else report.strongly
    return 0 if holds else 3


def _cmd_converge(args, tol, payload):
    A = _load("matrix", "operator", args.operator, tol)
    S = _load("subspace", "domain", args.domain, tol)
    T = _load("subspace", "codomain", args.codomain, tol)
    if args.auxiliary is not None:
        B = _load("matrix", "auxiliary", args.auxiliary, tol)
    elif args.seed < 0:
        raise ValueError(f"--seed takes a non-negative integer, got {args.seed}")
    else:
        from .genlab import gen_with_ranges, trial_rng
        B = gen_with_ranges(T, S, trial_rng(args.seed, 0, 0))
    schedule = DEFAULT_SCHEDULE
    if args.schedule is not None:
        try:
            schedule = tuple(int(part) for part in args.schedule.split(",") if part.strip())
        except ValueError:
            raise ValueError("--schedule takes comma-separated integers, "
                             f"got {args.schedule!r}") from None
        if not schedule:
            raise ValueError("--schedule needs at least one entry")
    record = shorted_via_limit(A, S, T, B, schedule, tol)
    payload["result"] = {
        "schedule": record.schedule,
        "errors": record.errors,
        # NaN (fewer than two usable schedule points) has no JSON number
        "fitted_slope": None if math.isnan(record.fitted_slope) else record.fitted_slope,
        "auxiliary": matrix_to_payload(B),
    }
    return 0


def run_suite(config, tol):
    """``genlab.run_suite``; the suite module is imported by the commands
    that use it, not at start-up."""
    from . import genlab
    return genlab.run_suite(config, tol)


def _cmd_verify(args, tol, payload):
    from .genlab import GenConfig
    try:
        lo, hi = (int(part) for part in args.dims.split(","))
    except ValueError:
        raise ValueError(f"--dims takes 'lo,hi' (two integers), got {args.dims!r}") from None
    given = {"seed": args.seed, "trials": args.trials, "condition_cap": args.condition_cap}
    config = GenConfig(dim_range=(lo, hi),
                       **{key: value for key, value in given.items() if value is not None})
    report = run_suite(config, tol)
    payload["report"] = report.to_dict()
    return 0 if report.total_failures == 0 else 4


def _cmd_demo_impedance(args, tol, payload):
    if args.resistors:
        if len(args.resistors) < 2:
            raise ValueError("need at least two resistances")
        operands = [np.array([[r]], dtype=np.complex128) for r in args.resistors]
    else:
        if len(args.ports) < 2:
            raise ValueError("need at least two impedance matrix files")
        operands = [_load("matrix", "port", path, tol) for path in args.ports]
    joint = operands[0]
    for Z in operands[1:]:
        joint = parallel_sum(joint, Z, tol).sum
    payload["result"] = {
        "operands": len(operands),
        "impedance": matrix_to_payload(joint),
    }
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shortops",
        description="Shorted operators, parallel sums and the minus order "
                    "for dense complex matrices.",
        epilog=f"Tolerances: every command accepts --tol ({_TOL_HELP}).",
    )
    parser.add_argument("--version", action="version", version=f"shortops {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--tol", default=None, help=_TOL_HELP)
        sp.add_argument("--json-out", default=None,
                        help="write the JSON report to this path instead of stdout")

    p = sub.add_parser("short", help="bilateral shorted operator of A w.r.t. (S, T)")
    p.add_argument("operator", help="matrix JSON file for A")
    p.add_argument("domain", help="subspace JSON file for S (domain side)")
    p.add_argument("codomain", help="subspace JSON file for T (codomain side)")
    p.add_argument("--witnesses", action="store_true",
                   help="also write the witnesses E, F, P and Q")
    common(p)

    p = sub.add_parser("psum", help="parallel sum of two operators")
    p.add_argument("left")
    p.add_argument("right")
    common(p)

    p = sub.add_parser("psub", help="parallel subtraction C div A")
    p.add_argument("minuend", help="matrix JSON file for C")
    p.add_argument("subtrahend", help="matrix JSON file for A")
    common(p)

    p = sub.add_parser("check", help="run a predicate and report it")
    p.add_argument("files", nargs="+", help="operand files (count depends on --what)")
    p.add_argument("--what", required=True,
                   choices=("complementable", "summable", "minus"))
    common(p)

    p = sub.add_parser("converge", help="approximate the shorted operator by A || nB")
    p.add_argument("operator")
    p.add_argument("domain")
    p.add_argument("codomain")
    p.add_argument("auxiliary", nargs="?", default=None,
                   help="optional matrix file for B (default: generated from --seed)")
    p.add_argument("--schedule", default=None,
                   help="comma-separated n values (default geometric 1..65536)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the generated auxiliary operator")
    common(p)

    p = sub.add_parser("verify", help="run the randomized invariant suite")
    # seed, trials and condition cap default to GenConfig's, read when the
    # command runs so that building the parser does not import the suite
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--dims", default="2,8", help="dimension window 'lo,hi'")
    p.add_argument("--condition-cap", type=float, default=None)
    common(p)

    p = sub.add_parser("demo-impedance",
                       help="impedance of a parallel connection of n-ports")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--resistors", nargs="+", type=float, default=None)
    group.add_argument("--ports", nargs="+", default=None,
                       help="matrix JSON files with port impedances")
    common(p)

    return parser


_HANDLERS = {
    "short": _cmd_short,
    "psum": _cmd_psum,
    "psub": _cmd_psub,
    "check": _cmd_check,
    "converge": _cmd_converge,
    "verify": _cmd_verify,
    "demo-impedance": _cmd_demo_impedance,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        tol = _effective_tolerance(args)
    except (_UsageError, ValueError) as exc:
        print(f"shortops: {exc}", file=sys.stderr)
        return 1

    payload = _envelope(argv, tol)
    message = None  # printed after the report of a precondition failure
    try:
        code = _HANDLERS[args.command](args, tol, payload)
    except NotComplementable as exc:
        payload["error"] = "not-complementable"
        payload["report"] = _payload(exc.report)
        code, message = 2, "operator is not complementable w.r.t. (S, T)"
    except NotSummable as exc:
        payload["error"] = "not-summable"
        payload["report"] = _payload(exc.report)
        code, message = 2, "operators are not parallel summable"
    except (NotInDA, BadAuxiliary, EscalationExhausted, RangeNotIncluded) as exc:
        payload["error"] = type(exc).__name__
        code, message = 2, str(exc)
    except (OSError, ValueError, KeyError, DimensionMismatch, BadDims) as exc:
        print(f"shortops: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(args, payload)
    except OSError as exc:
        target = args.json_out or "standard output"
        print(f"shortops: cannot write report to {target}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1
    if message is not None:
        print(f"shortops: {message}", file=sys.stderr)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
