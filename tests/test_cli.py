import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import shortops
from shortops import opnorm, parallel_sum
from shortops.cli import main, parse_tolerance
from shortops.serialize import load_matrix, matrix_from_payload, matrix_to_payload


def write_matrix(path, A):
    path.write_text(json.dumps(matrix_to_payload(np.asarray(A, dtype=complex))))
    return str(path)

def write_subspace(path, columns):
    cols = np.asarray(columns, dtype=complex)
    payload = {"ambient": cols.shape[0], "kind": "basis",
               "data": matrix_to_payload(cols)}
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def worked(tmp_path):
    a = write_matrix(tmp_path / "A.json", [[2.0, 1.0], [1.0, 1.0]])
    s = write_subspace(tmp_path / "S.json", [[1.0], [0.0]])
    return a, s


def test_cmd_short_success(worked, capsys):
    a, s = worked
    assert main(["short", a, s, s]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tool"] == "shortops"
    assert report["tolerance"]["eq_rel"] == 1e-9
    assert list(report["result"]) == ["shorted"]
    assert report["result"]["shorted"]["data"] == [[1.0, 0.0], [0.0, 0.0]]


def test_cmd_short_witnesses_flag(worked, capsys):
    # --witnesses adds E, F, P and Q to the same shorted; its P and Q are
    # check --what complementable's P_hat and Q_hat
    a, s = worked
    assert main(["short", a, s, s]) == 0
    lean = json.loads(capsys.readouterr().out)["result"]
    assert main(["short", a, s, s, "--witnesses"]) == 0
    full = json.loads(capsys.readouterr().out)["result"]
    assert {k: full[k] for k in lean} == lean
    assert main(["check", a, s, s, "--what", "complementable"]) == 0
    witnesses = json.loads(capsys.readouterr().out)["report"]["witnesses"]
    assert (full["P"], full["Q"]) == (witnesses["P_hat"], witnesses["Q_hat"])


@pytest.mark.parametrize("flag, forms", [([], 0), (["--witnesses"], 1)])
def test_cmd_short_forms_witness_projections(flag, forms, worked, capsys, monkeypatch):
    # P and Q are formed once, and only when --witnesses asks for them
    from shortops import shorting
    real, calls = shorting._witness_projections, []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(shorting, "_witness_projections", counted)
    a, s = worked
    assert main(["short", a, s, s, *flag]) == 0
    capsys.readouterr()
    assert len(calls) == forms


@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_unwritable_json_out_exits_one(target, worked, tmp_path, capsys):
    # a missing directory or a directory: one message line, no traceback,
    # and no precondition message after it on the exit-2 path
    a, s = worked
    bad = write_matrix(tmp_path / "bad.json", [[1.0, 1.0], [1.0, 0.0]])
    out = str(tmp_path / target)
    for operator in (a, bad):
        assert main(["short", operator, s, s, "--json-out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"shortops: cannot write report to {out}: ")
        assert captured.err.count("\n") == 1


def test_cmd_short_not_complementable(tmp_path, capsys):
    a = write_matrix(tmp_path / "A.json", [[1.0, 1.0], [1.0, 0.0]])
    s = write_subspace(tmp_path / "S.json", [[1.0], [0.0]])
    assert main(["short", a, s, s]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "not-complementable"
    assert report["report"]["strongly"] is False


def test_cmd_short_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    s = write_subspace(tmp_path / "S.json", [[1.0], [0.0]])
    assert main(["short", str(bad), s, s]) == 1
    missing = str(tmp_path / "missing.json")
    assert main(["short", missing, s, s]) == 1


@pytest.mark.parametrize("slot, role", [(1, "domain"), (2, "codomain")])
def test_cmd_short_names_a_matrix_file_in_a_subspace_slot(slot, role, worked, capsys):
    a, s = worked
    files = [a, s, s]
    files[slot] = a
    assert main(["short", *files]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"shortops: {role} {a}: malformed subspace payload: 'ambient'\n"


# One case per command: a file in a matrix slot that is no matrix payload,
# or no JSON at all, is named with its operand's role.
@pytest.mark.parametrize("argv, role, culprit, reason", [
    (["short", "S", "S", "S"], "operator", "S", "malformed matrix payload: 'rows'"),
    (["short", "bad", "S", "S"], "operator", "bad", "Expecting property name"),
    (["psum", "A", "S"], "right", "S", "malformed matrix payload: 'rows'"),
    (["psub", "A", "bad"], "subtrahend", "bad", "Expecting property name"),
    (["check", "S", "A", "--what", "summable"], "A-file", "S",
     "malformed matrix payload: 'rows'"),
    (["converge", "A", "S", "S", "S"], "auxiliary", "S", "malformed matrix payload: 'rows'"),
    (["demo-impedance", "--ports", "A", "S"], "port", "S", "malformed matrix payload: 'rows'"),
], ids=["short", "short-not-json", "psum", "psub-not-json", "check", "converge",
        "demo-impedance"])
def test_matrix_slots_name_the_operand_and_file(argv, role, culprit, reason, worked,
                                                tmp_path, capsys):
    a, s = worked
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    files = {"A": a, "S": s, "bad": str(bad)}
    assert main([files.get(arg, arg) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"shortops: {role} {files[culprit]}: {reason}")
    assert captured.err.count("\n") == 1


# A file the reader cannot turn into an operand is named with its role and
# one reason line, never a traceback or a plausible matrix: an entry beyond
# float range, nesting past the JSON reader's recursion limit, a file that
# cannot be opened, a complex entry of booleans (no JSON numbers, as a real
# true is not).
@pytest.mark.parametrize("content, reason", [
    ('{"rows": 1, "cols": 1, "complex": false, "data": [[' + "9" * 401 + "]]}",
     "int too large to convert to float"),
    ("[" * 100_000, "maximum recursion depth exceeded"),
    (None, "No such file or directory"),
    ('{"rows": 1, "cols": 1, "complex": true, "data": [[[true, false]]]}',
     "complex entries must be [re, im] pairs"),
], ids=["huge-int", "deep-nesting", "missing", "boolean-pair"])
def test_unreadable_operand_files_name_the_operand(content, reason, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_text(content)
    two = write_matrix(tmp_path / "two.json", [[2.0]])
    assert main(["psum", str(bad), two]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"shortops: left {bad}: {reason}")
    assert captured.err.count("\n") == 1


def test_cmd_psum(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", [[2.0]])
    b = write_matrix(tmp_path / "b.json", [[2.0]])
    assert main(["psum", a, b]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"] == {"sum": {"rows": 1, "cols": 1, "complex": False,
                                        "data": [[1.0]]}}

    c = write_matrix(tmp_path / "c.json", np.diag([1.0, 0.0]))
    d = write_matrix(tmp_path / "d.json", np.diag([-1.0, 0.0]))
    assert main(["psum", c, d]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "not-summable"

    e = write_matrix(tmp_path / "e.json", np.eye(3))
    assert main(["psum", a, e]) == 1


def test_cmd_psum_near_singular_sum(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", np.eye(2))
    b = write_matrix(tmp_path / "b.json", np.diag([-1 + 1e-3, -1 + 1e-11]))
    assert main(["psum", a, b]) in (0, 2)
    assert json.loads(capsys.readouterr().out).get("error") != "not-complementable"

    # 1 / sigma_min(A + B) = 1e9: the sum is printed (exit 0), right to 2 u
    # of its own norm
    entries = [-1 + 1e-3, -1 + 1e-9]
    c = write_matrix(tmp_path / "c.json", np.diag(entries))
    assert main(["psum", a, c]) == 0
    printed = json.loads(capsys.readouterr().out)["result"]["sum"]
    assert not printed["complex"]
    got = np.array(printed["data"], dtype=float)
    exact = [Fraction(x) / (1 + Fraction(x)) for x in entries]
    norm = max(abs(x) for x in exact)
    assert not (got - np.diag(np.diag(got))).any()
    for value, want in zip(np.diag(got), exact):
        assert abs(Fraction(value) - want) <= 2 * Fraction(np.finfo(float).eps / 2) * norm


def _round_trip(a, report, c):
    """||A ∥ X - C|| for the difference X that psub wrote for the files c and a."""
    X = matrix_from_payload(report["result"]["difference"])
    return opnorm(parallel_sum(load_matrix(a), X).sum - load_matrix(c))


def test_cmd_psub(tmp_path, capsys):
    c = write_matrix(tmp_path / "c.json", [[1.0]])
    a = write_matrix(tmp_path / "a.json", [[2.0]])
    assert main(["psub", c, a]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["difference"]["data"] == [[2.0]]
    assert _round_trip(a, report, c) <= 1e-12

    assert main(["psub", a, a]) == 2


def test_cmd_psum_and_psub_decide_summability_once(tmp_path, capsys):
    # a strongly summable pair and a member of D_A that used to exit 2 on a
    # second, differently anchored, summability or range-inclusion test
    a = write_matrix(tmp_path / "a.json", np.diag([1e3, 0.0]))
    b = write_matrix(tmp_path / "b.json", [[0.0, 0.0], [1e-7, 0.0]])
    assert main(["psum", a, b]) == 0
    assert "error" not in json.loads(capsys.readouterr().out)
    c = write_matrix(tmp_path / "c.json", [[1e-3, 0.0], [1e-7, 0.0]])
    assert main(["psub", c, a]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "error" not in report
    assert _round_trip(a, report, c) <= 1.01e-7


def test_cmd_check_complementable(worked, capsys):
    a, s = worked
    assert main(["check", a, s, s, "--what", "complementable"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["holds"] is True
    assert report["report"]["witnesses"] is not None


@pytest.mark.parametrize("slot, role", [(1, "S-file"), (2, "T-file")])
def test_cmd_check_names_a_matrix_file_in_a_subspace_slot(slot, role, worked, capsys):
    a, s = worked
    files = [a, s, s]
    files[slot] = a
    assert main(["check", *files, "--what", "complementable"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"shortops: {role} {a}: malformed subspace payload: 'ambient'\n"


def test_cmd_check_minus_and_summable(tmp_path, capsys):
    c = write_matrix(tmp_path / "c.json", np.diag([1.0, 0.0, 0.0]))
    b = write_matrix(tmp_path / "b.json", np.diag([1.0, 1.0, 0.0]))
    assert main(["check", c, b, "--what", "minus"]) == 0
    capsys.readouterr()

    x = write_matrix(tmp_path / "x.json", np.diag([1.0, 0.0]))
    y = write_matrix(tmp_path / "y.json", np.diag([-1.0, 0.0]))
    assert main(["check", x, y, "--what", "summable"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["holds"] is False

    assert main(["check", x, "--what", "summable"]) == 1


def test_cmd_converge(worked, tmp_path, capsys):
    a, s = worked
    b = write_matrix(tmp_path / "B.json", np.diag([1.0, 0.0]))
    assert main(["converge", a, s, s, b, "--schedule", "1,2,4,8"]) == 0
    report = json.loads(capsys.readouterr().out)
    errors = report["result"]["errors"]
    assert errors == pytest.approx([1 / 2, 1 / 3, 1 / 5, 1 / 9], abs=1e-12)

    # generated auxiliary (seeded) also converges
    assert main(["converge", a, s, s, "--seed", "3", "--schedule", "1,4,16,64"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["errors"][-1] < report["result"]["errors"][0]

    assert main(["converge", a, s, str(tmp_path / "nope.json")]) == 1


def test_cmd_converge_single_point_schedule(worked, tmp_path, capsys):
    # one schedule point leaves the log-log slope undefined (NaN), which
    # JSON cannot carry: the report says null
    a, s = worked
    b = write_matrix(tmp_path / "B.json", np.diag([1.0, 0.0]))
    out = tmp_path / "out.json"
    assert main(["converge", a, s, s, b, "--schedule", "4", "--json-out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["result"]["fitted_slope"] is None
    assert report["result"]["errors"] == pytest.approx([1 / 5], abs=1e-12)


@pytest.mark.parametrize("schedule", [",", "", " , "])
def test_cmd_converge_rejects_empty_schedule(schedule, worked, tmp_path, capsys):
    # no point tried is an input error, not an exhausted escalation
    a, s = worked
    b = write_matrix(tmp_path / "B.json", np.diag([1.0, 0.0]))
    assert main(["converge", a, s, s, b, "--schedule", schedule]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "shortops: --schedule needs at least one entry\n"
    assert main(["converge", a, s, s, b, "--schedule", "0"]) == 1
    assert capsys.readouterr().err == "shortops: schedule entries must be positive integers\n"


@pytest.mark.parametrize("argv, message", [
    (["--schedule", "a"], "--schedule takes comma-separated integers, got 'a'"),
    (["--schedule", "1,2.5"], "--schedule takes comma-separated integers, got '1,2.5'"),
    (["--seed", "-1"], "--seed takes a non-negative integer, got -1"),
])
def test_cmd_converge_names_the_malformed_flag(argv, message, worked, capsys):
    a, s = worked
    assert main(["converge", a, s, s, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"shortops: {message}\n"


def test_cmd_converge_ignores_the_seed_beside_an_auxiliary(worked, tmp_path, capsys):
    # the seed only generates B; with a B file given it is not read
    a, s = worked
    b = write_matrix(tmp_path / "B.json", np.diag([1.0, 0.0]))
    assert main(["converge", a, s, s, b, "--seed", "-1", "--schedule", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["errors"] == pytest.approx(
        [1 / 5], abs=1e-12)


def test_cmd_converge_not_complementable(tmp_path, capsys):
    a = write_matrix(tmp_path / "A.json", [[1.0, 1.0], [1.0, 0.0]])
    s = write_subspace(tmp_path / "S.json", [[1.0], [0.0]])
    assert main(["converge", a, s, s]) == 2


def test_cmd_verify_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    argv = ["verify", "--seed", "7", "--trials", "2", "--json-out", str(out1)]
    assert main(argv) == 0
    first = out1.read_bytes()
    assert main(argv) == 0
    assert out1.read_bytes() == first
    report = json.loads(first)
    assert report["report"]["total_failures"] == 0
    assert report["report"]["rng"] == "pcg64"


def test_cmd_verify_exit_four_on_failures(tmp_path, capsys, monkeypatch):
    import shortops.cli as cli
    from shortops.genlab import InvariantOutcome, SuiteReport

    def fake_suite(config, tol):
        report = SuiteReport(seed=config.seed, dim_range=config.dim_range,
                            trials=config.trials,
                            condition_cap=config.condition_cap,
                            rng_name="pcg64")
        report.outcomes["probe"] = InvariantOutcome(passed=0, failed=1, skipped=0)
        report.failures.append({"invariant": "probe", "trial": 0,
                                "entropy": [config.seed, 0, 0]})
        return report

    monkeypatch.setattr(cli, "run_suite", fake_suite)
    assert main(["verify", "--trials", "1"]) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["report"]["failures"][0]["entropy"] == [20240801, 0, 0]


@pytest.mark.parametrize("cap", ["0", "-5", "nan", "inf"])
def test_cmd_verify_rejects_condition_cap(cap, tmp_path, capsys):
    # refused before any trial runs, with a message and no report
    out = tmp_path / "r.json"
    assert main(["verify", "--trials", "1", "--condition-cap", cap,
                 "--json-out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "shortops: condition_cap must be finite and >= 1\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("dims", ["2,3,4", "3", "", "2,x"])
def test_cmd_verify_rejects_malformed_dims(dims, capsys):
    assert main(["verify", "--trials", "1", "--dims", dims]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"shortops: --dims takes 'lo,hi' (two integers), got {dims!r}\n"


def test_cmd_verify_dims_out_of_order_keeps_its_message(capsys):
    from shortops.genlab import GenConfig
    with pytest.raises(ValueError) as raised:
        GenConfig(dim_range=(5, 2))
    assert main(["verify", "--trials", "1", "--dims", "5,2"]) == 1
    assert capsys.readouterr().err == f"shortops: {raised.value}\n"


def test_cmd_demo_impedance(capsys, tmp_path):
    assert main(["demo-impedance", "--resistors", "2", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["impedance"]["data"] == [[1.0]]

    z = write_matrix(tmp_path / "z.json", np.diag([2.0, 4.0]))
    assert main(["demo-impedance", "--ports", z, z]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["impedance"]["data"] == [[1.0, 0.0], [0.0, 2.0]]

    assert main(["demo-impedance", "--resistors", "2"]) == 1


def test_tolerance_flag_and_env(tmp_path, capsys, monkeypatch):
    a = write_matrix(tmp_path / "a.json", [[2.0]])
    b = write_matrix(tmp_path / "b.json", [[2.0]])
    assert main(["psum", a, b, "--tol", "eq_rel=1e-6,rank_rel=1e-8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tolerance"]["eq_rel"] == 1e-6
    assert report["tolerance"]["rank_rel"] == 1e-8

    monkeypatch.setenv("SHORTOPS_TOL", "psd_slack=1e-8")
    assert main(["psum", a, b]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tolerance"]["psd_slack"] == 1e-8

    # the command-line flag wins over the environment
    monkeypatch.setenv("SHORTOPS_TOL", "eq_rel=1e-5")
    assert main(["psum", a, b, "--tol", "eq_rel=1e-7"]) == 0
    assert json.loads(capsys.readouterr().out)["tolerance"]["eq_rel"] == 1e-7

    assert main(["psum", a, b, "--tol", "bogus=1"]) == 1


def test_parse_tolerance():
    tol = parse_tolerance("eq_rel=1e-7")
    assert tol.eq_rel == 1e-7 and tol.rank_rel == 1e-10
    with pytest.raises(ValueError):
        parse_tolerance("nope")
    with pytest.raises(ValueError, match="^eq_rel takes a number, got 'abc'$"):
        parse_tolerance("eq_rel=abc")


@pytest.mark.parametrize("env, flag, message", [
    (None, "eq_rel=abc", "--tol: eq_rel takes a number, got 'abc'"),
    (None, "bogus", "--tol: bad tolerance override 'bogus'"),
    ("bogus", None, "SHORTOPS_TOL: bad tolerance override 'bogus'"),
    ("rank_rel=abc", None, "SHORTOPS_TOL: rank_rel takes a number, got 'abc'"),
    ("eq_rel=2", None, "SHORTOPS_TOL: eq_rel must lie in (0, 1), got 2.0"),
    ("eq_rel=1e-8", "psd_slack=2", "--tol: psd_slack must lie in (0, 1), got 2.0"),
], ids=["flag-value", "flag-piece", "env-piece", "env-value", "env-range", "flag-range"])
def test_tolerance_errors_name_their_source(env, flag, message, worked, capsys, monkeypatch):
    a, _ = worked
    if env is None:
        monkeypatch.delenv("SHORTOPS_TOL", raising=False)
    else:
        monkeypatch.setenv("SHORTOPS_TOL", env)
    argv = ["psum", a, a] + (["--tol", flag] if flag else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"shortops: {message}\n"


def test_usage_errors_exit_one(capsys):
    assert main(["unknown-subcommand"]) == 1
    assert main(["check", "somefile", "--what", "nonsense"]) == 1


def test_invocation_echoed(worked, capsys):
    a, s = worked
    main(["check", a, s, s, "--what", "complementable"])
    report = json.loads(capsys.readouterr().out)
    assert report["invocation"][0] == "shortops"
    assert report["invocation"][1] == "check"


@pytest.fixture
def emitted(monkeypatch):
    """Every report object the CLI writes, each checked on the way out to be
    written as the bytes of json.dumps(indent=2, sort_keys=True)."""
    import shortops.cli as cli
    real = cli.dumps_report
    reports = []

    def checked(obj):
        text = real(obj)
        assert text == json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
        reports.append(obj)
        return text

    monkeypatch.setattr(cli, "dumps_report", checked)
    return reports


def test_every_report_kind_written_as_json_dumps(tmp_path, capsys, emitted):
    rng = np.random.default_rng(5)
    big = write_matrix(tmp_path / "big.json",
                       rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
    half = write_subspace(tmp_path / "half.json", np.eye(64)[:, :32])
    a = write_matrix(tmp_path / "a.json", [[2.0, 1.0], [1.0, 1.0]])
    s = write_subspace(tmp_path / "s.json", [[1.0], [0.0]])
    bad = write_matrix(tmp_path / "bad.json", [[1.0, 1.0], [1.0, 0.0]])
    x = write_matrix(tmp_path / "x.json", np.diag([1.0, 0.0]))
    y = write_matrix(tmp_path / "y.json", np.diag([-1.0, 0.0]))
    one = write_matrix(tmp_path / "one.json", [[1.0]])
    two = write_matrix(tmp_path / "two.json", [[2.0]])
    runs = [
        (["short", big, half, half], 0),
        (["short", big, half, half, "--witnesses"], 0),
        (["short", bad, s, s], 2),
        (["psum", a, a], 0),
        (["psum", x, y], 2),
        (["psub", one, two], 0),
        (["psub", two, two], 2),
        (["check", a, s, s, "--what", "complementable"], 0),
        (["check", x, y, "--what", "summable"], 3),
        (["check", x, a, "--what", "minus"], 0),
        (["converge", a, s, s, "--schedule", "1,4,16"], 0),
        (["converge", a, s, s, x, "--schedule", "4"], 0),
        (["verify", "--trials", "1", "--dims", "2,3"], 0),
        (["demo-impedance", "--resistors", "2", "3"], 0),
    ]
    for argv, code in runs:
        assert main(argv) == code, argv
    capsys.readouterr()
    assert len(emitted) == len(runs)


def test_import_leaves_suite_unloaded():
    """Importing the CLI does not load genlab; the package serves genlab and
    its re-exports on first access."""
    program = textwrap.dedent("""
        import sys
        import shortops.cli
        assert "shortops.genlab" not in sys.modules
        import shortops
        assert len(shortops.genlab.INVARIANTS) == 34
        assert shortops.run_suite is shortops.genlab.run_suite
        from shortops import GenConfig
        assert GenConfig is shortops.genlab.GenConfig
        assert "GenConfig" in vars(shortops)
        assert not hasattr(shortops, "no_such_name")
    """)
    src = str(Path(shortops.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", program], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def _key_tree(obj):
    """The nested keys of a report, with a matrix payload as the leaf
    "matrix" and any other leaf as its type name."""
    if isinstance(obj, dict):
        if set(obj) == {"rows", "cols", "complex", "data"}:
            return "matrix"
        return {key: _key_tree(value) for key, value in obj.items()}
    return type(obj).__name__


_ENVELOPE = {"tool": "str", "version": "str", "invocation": "list",
             "tolerance": {"rank_rel": "float", "eq_rel": "float", "psd_slack": "float"}}
_COMPLEMENTABILITY = {"weakly": "bool", "strongly": "bool"}
_SUMMABILITY = {"weakly": "bool", "strongly": "bool", "defects": dict.fromkeys(
    ("a_range", "a_corange", "b_range", "b_corange"), "float")}


def test_report_key_trees(worked, tmp_path, capsys):
    """Each report the CLI writes for a result type has the keys of that
    type's public fields and first-read values, nested the same way."""
    a, s = worked
    bad = write_matrix(tmp_path / "bad.json", [[1.0, 1.0], [1.0, 0.0]])
    x = write_matrix(tmp_path / "x.json", np.diag([1.0, 0.0]))
    y = write_matrix(tmp_path / "y.json", np.diag([-1.0, 0.0]))
    b = write_matrix(tmp_path / "b.json", np.diag([0.0, 1.0]))
    two = write_matrix(tmp_path / "two.json", np.diag([2.0, 0.0]))
    witnesses = dict.fromkeys(("E", "F", "P_hat", "Q_hat", "M_r", "M_l"), "matrix")
    runs = [
        (["short", a, s, s], 0, {"result": {"shorted": "matrix"}}),
        (["short", a, s, s, "--witnesses"], 0, {"result": dict.fromkeys(
            ("shorted", "E", "F", "P", "Q"), "matrix")}),
        (["check", a, s, s, "--what", "complementable"], 0, {
            "holds": "bool", "report": {**_COMPLEMENTABILITY, "witnesses": witnesses}}),
        (["check", x, y, "--what", "summable"], 3, {"holds": "bool", "report": _SUMMABILITY}),
        # R(C) lies inside R(B - C): neither route holds, no projections
        (["check", x, b, "--what", "minus"], 3, {"holds": "bool", "report": {
            "holds": "bool", "rank_route": "bool", "projection_route": "bool",
            "Q": "NoneType", "P": "NoneType"}}),
        (["short", bad, s, s], 2, {"error": "str", "report": {
            **_COMPLEMENTABILITY, "witnesses": "NoneType"}}),
        (["psum", x, y], 2, {"error": "str", "report": _SUMMABILITY}),
        (["psum", x, b], 0, {"result": {"sum": "matrix"}}),
        (["psub", two, x], 0, {"result": {"difference": "matrix"}}),
    ]
    for argv, code, tree in runs:
        assert main(argv) == code, argv
        assert _key_tree(json.loads(capsys.readouterr().out)) == {**_ENVELOPE, **tree}, argv
