import json
import math

import numpy as np
import pytest

from shortops import Subspace
from shortops.serialize import (
    dumps_report,
    matrix_from_payload,
    matrix_to_payload,
    subspace_from_payload,
    subspace_to_payload,
)


def test_real_matrix_round_trip_exact():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m, n = rng.integers(1, 7, size=2)
        A = rng.standard_normal((int(m), int(n)))
        text = json.dumps(matrix_to_payload(A))
        back = matrix_from_payload(json.loads(text))
        assert back.shape == (m, n)
        assert np.array_equal(back, A.astype(np.complex128))  # bit-for-bit


def test_complex_matrix_round_trip_exact():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    payload = matrix_to_payload(A)
    assert payload["complex"] is True
    back = matrix_from_payload(json.loads(json.dumps(payload)))
    assert np.array_equal(back, A)


def test_real_shorthand_avoids_pairs():
    payload = matrix_to_payload(np.eye(2))
    assert payload["complex"] is False
    assert payload["data"] == [[1.0, 0.0], [0.0, 1.0]]


def test_matrix_payload_validation():
    with pytest.raises(ValueError):
        matrix_from_payload({"rows": 2, "cols": 2, "complex": False})
    with pytest.raises(ValueError):
        matrix_from_payload(
            {"rows": 1, "cols": 2, "complex": False, "data": [[1.0]]}
        )
    with pytest.raises(ValueError):
        matrix_from_payload(
            {"rows": 1, "cols": 1, "complex": False, "data": [["x"]]}
        )
    with pytest.raises(ValueError):
        matrix_from_payload(
            {"rows": 1, "cols": 1, "complex": True, "data": [[1.0]]}
        )
    with pytest.raises(ValueError):
        matrix_from_payload([1, 2, 3])
    # the header's dimensions are JSON integers and its flag a JSON boolean,
    # not values that int() or bool() would coerce
    good = {"rows": 1, "cols": 1, "complex": False, "data": [[1.0]]}
    for key, value, message in [("rows", 2.7, "'rows' must be an integer"),
                                ("rows", 1.0, "'rows' must be an integer"),
                                ("rows", "1", "'rows' must be an integer"),
                                ("cols", True, "'cols' must be an integer"),
                                ("complex", "false", "'complex' must be a boolean"),
                                ("complex", 0, "'complex' must be a boolean")]:
        with pytest.raises(ValueError, match=message):
            matrix_from_payload(dict(good, **{key: value}))


def test_subspace_payload_kinds():
    S = Subspace.from_spanning(np.array([[1.0], [1.0]]))
    back = subspace_from_payload(json.loads(json.dumps(subspace_to_payload(S))))
    assert back.equals(S)

    proj_payload = {
        "ambient": 2,
        "kind": "projection",
        "data": matrix_to_payload(np.diag([1.0, 0.0])),
    }
    sub = subspace_from_payload(proj_payload)
    assert sub.dim == 1

    bad = dict(proj_payload)
    bad["data"] = matrix_to_payload(np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        subspace_from_payload(bad)

    with pytest.raises(ValueError):
        subspace_from_payload({"ambient": 2, "kind": "mystery", "data": bad["data"]})

    for payload in ([1.0], "basis", None):
        with pytest.raises(ValueError, match="subspace payload must be an object"):
            subspace_from_payload(payload)
    with pytest.raises(ValueError, match="subspace data rows do not match 'ambient'"):
        subspace_from_payload(dict(proj_payload, ambient=3))

    # 'ambient' is a JSON integer, not a number int() would truncate
    for ambient in (2.9, 2.0, "2", True):
        with pytest.raises(ValueError, match="'ambient' must be an integer"):
            subspace_from_payload(dict(proj_payload, ambient=ambient))


def test_dumps_report_stable():
    text = dumps_report({"b": 1, "a": [1.5, 2.5]})
    assert text == '{\n  "a": [\n    1.5,\n    2.5\n  ],\n  "b": 1\n}\n'


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _random_nest(rng, depth):
    """A seeded random JSON-able value: scalars of every kind, str with
    escapes and non-ASCII, lists, tuples, float grids and str-keyed dicts."""
    kind = int(rng.integers(0, 11 if depth < 4 else 7))
    if kind == 0:
        return None
    if kind == 1:
        return bool(rng.integers(0, 2))
    if kind == 2:
        return int(rng.integers(-10**6, 10**6)) * 10 ** int(rng.integers(0, 30))
    if kind == 3:
        return float(rng.standard_normal()) * 10.0 ** int(rng.integers(-320, 300))
    if kind in (4, 5):
        return float(rng.choice([-0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1, -2.5]))
    if kind == 6:
        alphabet = ["a", "Z", "é", "☃", "\n", "\t", '"', "\\", "/", "\x00", "\U0001f600", " "]
        return "".join(rng.choice(alphabet, size=int(rng.integers(0, 6))))
    if kind == 7:
        return [_random_nest(rng, depth + 1) for _ in range(int(rng.integers(0, 4)))]
    if kind == 8:
        return tuple(_random_nest(rng, depth + 1) for _ in range(int(rng.integers(0, 4))))
    if kind == 9:
        return rng.standard_normal(tuple(int(k) for k in rng.integers(1, 4, size=int(
            rng.integers(1, 4))))).tolist()
    return {str(_random_nest(rng, 99)): _random_nest(rng, depth + 1)
            for _ in range(int(rng.integers(0, 4)))}


def test_dumps_report_matches_json_dumps_on_random_nests():
    rng = np.random.default_rng(20240801)
    for _ in range(400):
        obj = _random_nest(rng, 0)
        assert dumps_report(obj) == _json_dumps(obj)


@pytest.mark.parametrize("obj", [
    -0.0, 5e-324, 1e16, 1e-5, [-0.0, 5e-324, 1e16, 1e-5],
    [], {}, [[]], [[], []], [[1.0], []], [[1.0, 2.0], [3.0]], [[1.0], 2.0],
    [1, 2.0], [[1.0, 2], [3.0, 4.0]], [[True, 1.0]], [[[1.0, 2.0]], [[3.0, 4.0]]],
    [(1.0, 2.0), (3.0, 4.0)], {"a": [[0.5]], "b": {"c": [[[1.0, -0.0]]]}},
    {2: "int key", 1.5: "float key", True: "bool key"}, {None: [1e300, -1e-300]},
    10 ** 40, "é \x7f", ("tuple", [None, False]),
])
def test_dumps_report_edge_cases_match_json_dumps(obj):
    assert dumps_report(obj) == _json_dumps(obj)


@pytest.mark.parametrize("bad", [
    float("nan"), float("inf"), -float("inf"), [1.0, float("nan")],
    [[1.0, 2.0], [float("inf"), 3.0]], {"x": [[-float("inf")]]},
])
def test_dumps_report_rejects_non_finite_floats(bad):
    with pytest.raises(ValueError) as ours:
        dumps_report(bad)
    with pytest.raises(ValueError) as theirs:
        _json_dumps(bad)
    assert str(ours.value) == str(theirs.value)


def test_dumps_report_rejects_arrays():
    with pytest.raises(TypeError):
        dumps_report({"data": np.eye(2)})
    with pytest.raises(TypeError):
        dumps_report([np.int64(1)])


def _is_json_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _reference_entry(value, is_complex):
    if is_complex:
        if (not isinstance(value, (list, tuple)) or len(value) != 2
                or not all(_is_json_number(v) for v in value)):
            raise ValueError("complex entries must be [re, im] pairs")
        z = complex(value[0], value[1])
    else:
        if not _is_json_number(value):
            raise ValueError("real entries must be plain numbers")
        z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("matrix entries must be finite")
    return z


def _reference_matrix_from_payload(payload):
    """The entry-by-entry loader the bulk one replaced."""
    if not isinstance(payload, dict):
        raise ValueError("matrix payload must be an object")
    try:
        rows = int(payload["rows"])
        cols = int(payload["cols"])
        is_complex = bool(payload["complex"])
        data = payload["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix payload: {exc}") from exc
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    if not isinstance(data, list) or len(data) != rows:
        raise ValueError("data row count does not match 'rows'")
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ValueError("data column count does not match 'cols'")
        for j, value in enumerate(row):
            out[i, j] = _reference_entry(value, is_complex)
    return out


def _real(data):
    return {"rows": len(data), "cols": len(data[0]) if data else 0, "complex": False,
            "data": data}


def _complex(data):
    return dict(_real(data), complex=True)


@pytest.mark.parametrize("payload", [
    [[1.0]],
    "matrix",
    {"rows": 1, "cols": 1, "complex": False},
    {"rows": "x", "cols": 1, "complex": False, "data": [[1.0]]},
    {"rows": -1, "cols": 1, "complex": False, "data": []},
    {"rows": 2, "cols": 1, "complex": False, "data": [[1.0]]},
    {"rows": 1, "cols": 1, "complex": False, "data": {"0": [1.0]}},
    _real([[1.0], (2.0,)]),
    _real([[1.0, 2.0], [3.0]]),
    _complex([[[1.0, 2.0], [3.0]]]),
    _complex([[[1.0, 2.0], 3.0]]),
    _complex([[[1.0, 2.0, 3.0]]]),
    _complex([[[1.0, "2"]]]),
    _real([[1.0, "2.0"]]),
    _real([[1.0, None]]),
    _real([[1.0, True]]),
    _real([[1.0, [1.0, 0.0]]]),
    _real([[1.0, float("nan")]]),
    _complex([[[1.0, float("inf")]]]),
    json.loads('{"rows": 1, "cols": 2, "complex": false, "data": [[1.0, NaN]]}'),
    _real([[float("nan"), 1.0], [2.0, "x"]]),
    _real([[1.0, "x"], [float("nan"), 2.0]]),
    _real([[0.0, float("inf")], [1.0, 2.0], [3.0]]),
    _complex([[[0.0, 1.0], [float("nan"), 0.0]], [[1.0, 2.0], [True]]]),
    _real([[1.0, 10 ** 400]]),
    _real([[float("nan"), 10 ** 400]]),
    _complex([[[float("nan"), 10 ** 400]]]),
    # a boolean is no JSON number, in a pair as in a real entry
    _complex([[(-0.0, 1), [True, False]]]),
])
def test_matrix_from_payload_faults_match_entry_loop(payload):
    with pytest.raises(Exception) as theirs:
        _reference_matrix_from_payload(payload)
    with pytest.raises(Exception) as ours:
        matrix_from_payload(payload)
    assert type(ours.value) is type(theirs.value)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("payload", [
    _real([[-0.0, 0.0], [5e-324, -5e-324]]),
    _complex([[[-0.0, -0.0], [0.0, -0.0]], [[-0.0, 0.0], [1.5, -2.5]]]),
    _complex([[(-0.0, 1), [1, 0]]]),
    _real([[1, -2], [3, 2 ** 53 + 1]]),
    _real([[2 ** 64 + 1, -(2 ** 70), 2 ** 1000]]),
    {"rows": 0, "cols": 3, "complex": True, "data": []},
    {"rows": 2, "cols": 0, "complex": True, "data": [[], []]},
    {"rows": 2, "cols": 0, "complex": False, "data": [[], []]},
    _real([[np.float64(-0.0), np.float64(1e-300)]]),
    json.loads(json.dumps(matrix_to_payload(
        np.array([[-0.0 + 0.0j, 0.0 - 0.0j], [1e-310 - 1e308j, -0.0 - 1.0j]])))),
])
def test_matrix_from_payload_values_match_entry_loop(payload):
    ours = matrix_from_payload(payload)
    ref = _reference_matrix_from_payload(payload)
    assert ours.dtype == ref.dtype and ours.shape == ref.shape
    assert np.array_equal(ours, ref)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(ours, part)), np.signbit(getattr(ref, part)))


def test_matrix_to_payload_matches_entry_loop():
    rng = np.random.default_rng(3)
    for A in (rng.standard_normal((5, 3)), rng.standard_normal((4, 4)) * 1j - 0.0,
              np.array([[-0.0, 0.0]]), np.zeros((0, 2)), np.zeros((2, 0)),
              np.array([[1.0 - 0.0j, -0.0 + 2.0j]])):
        C = np.asarray(A, dtype=np.complex128)
        is_complex = bool(np.any(C.imag != 0.0))
        if is_complex:
            ref = [[[float(z.real), float(z.imag)] for z in row] for row in C]
        else:
            ref = [[float(z.real) for z in row] for row in C]
        payload = matrix_to_payload(A)
        assert payload["complex"] is is_complex
        assert dumps_report(payload["data"]) == _json_dumps(ref)
