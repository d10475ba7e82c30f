"""JSON interchange formats for matrices, subspaces and reports.

A matrix file holds a nested list of entries: bare reals when ``complex`` is
false, two-element [re, im] pairs when true.  A subspace file wraps a matrix
payload whose columns span the subspace, or an orthogonal projection matrix
that is validated on load.  Numbers round-trip exactly (shortest repr).
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .geometry import Subspace
from .numcore import DEFAULT_TOL, Tolerance, as_operator


def matrix_to_payload(A) -> dict:
    A = as_operator(A)
    is_complex = bool(np.any(A.imag != 0.0))
    data = np.stack([A.real, A.imag], axis=-1) if is_complex else A.real
    return {
        "rows": int(A.shape[0]),
        "cols": int(A.shape[1]),
        "complex": is_complex,
        "data": data.tolist(),
    }


def _is_number(value) -> bool:
    """A JSON number: an int or float, not a bool (which Python counts as int)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _entry(value, is_complex: bool) -> None:
    if is_complex:
        if (not isinstance(value, (list, tuple)) or len(value) != 2
                or not all(map(_is_number, value))):
            raise ValueError("complex entries must be [re, im] pairs")
        z = complex(value[0], value[1])
    else:
        if not _is_number(value):
            raise ValueError("real entries must be plain numbers")
        z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("matrix entries must be finite")


_PAIR_TYPES = {list, tuple}
_NUMBER_TYPES = {int, float}


def _plain_row(row: list, is_complex: bool) -> bool:
    """True when every entry of the row has an exact JSON number type (pairs
    of them when complex) and is finite.  False sends the row through
    ``_entry``, which accepts number subclasses and names the first bad
    entry."""
    if is_complex:
        if not ({*map(type, row)} <= _PAIR_TYPES and {*map(len, row)} <= {2}):
            return False
        row = list(chain.from_iterable(row))
    if not {*map(type, row)} <= _NUMBER_TYPES:
        return False
    try:
        return all(map(math.isfinite, row))
    except OverflowError:  # an int beyond float range; _entry raises it
        return False


def _require(payload: dict, key: str, kind: type) -> None:
    """Reject ``payload[key]`` unless it is a JSON integer (``kind`` int,
    booleans excluded) or a JSON boolean (``kind`` bool).  The loaders call
    it after their parse, which coerces such values and would accept 2.7,
    true or "2" as a dimension and read "false" as true."""
    value = payload[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{key!r} must be {'an integer' if kind is int else 'a boolean'}")


def matrix_from_payload(payload) -> np.ndarray:
    if not isinstance(payload, dict):
        raise ValueError("matrix payload must be an object")
    try:
        rows = int(payload["rows"])
        cols = int(payload["cols"])
        is_complex = bool(payload["complex"])
        data = payload["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix payload: {exc}") from exc
    _require(payload, "rows", int)
    _require(payload, "cols", int)
    _require(payload, "complex", bool)
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    if not isinstance(data, list) or len(data) != rows:
        raise ValueError("data row count does not match 'rows'")
    for row in data:
        if not isinstance(row, list) or len(row) != cols:
            raise ValueError("data column count does not match 'cols'")
        if not _plain_row(row, is_complex):
            for value in row:
                _entry(value, is_complex)
    values = np.array(data, dtype=np.float64)
    if is_complex:
        # [re, im] pairs are the memory layout of complex128
        return values.reshape(rows, cols, 2).view(np.complex128)[..., 0]
    return values.reshape(rows, cols).astype(np.complex128)


def subspace_to_payload(S: Subspace) -> dict:
    return {
        "ambient": int(S.ambient_dim),
        "kind": "basis",
        "data": matrix_to_payload(S.basis),
    }


def subspace_from_payload(payload, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    if not isinstance(payload, dict):
        raise ValueError("subspace payload must be an object")
    try:
        ambient = int(payload["ambient"])
        kind = payload["kind"]
        data = payload["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed subspace payload: {exc}") from exc
    _require(payload, "ambient", int)
    M = matrix_from_payload(data)
    if M.shape[0] != ambient:
        raise ValueError("subspace data rows do not match 'ambient'")
    if kind == "basis":
        return Subspace.from_spanning(M, tol)
    if kind == "projection":
        return Subspace.from_projection(M, tol)
    raise ValueError(f"unknown subspace kind {kind!r}")


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_matrix(path: str) -> np.ndarray:
    return matrix_from_payload(load_json(path))


def load_subspace(path: str, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    return subspace_from_payload(load_json(path), tol)


def dumps_report(obj) -> str:
    """Canonical JSON text: the bytes of ``json.dumps(obj, indent=2,
    sort_keys=True, allow_nan=False)`` followed by a newline."""
    return _write(obj, 0) + "\n"


def _write(obj, depth: int) -> str:
    """``obj`` as JSON text with its opening bracket at ``depth`` indents."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        return float.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        grid = _float_grid(obj, depth)
        if grid is not None:
            return grid
        return _enclose("[", [_write(x, depth + 1) for x in obj], "]", depth)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_quote(_key(k)) + ": " + _write(v, depth + 1)
                 for k, v in sorted(obj.items())]
        return _enclose("{", items, "}", depth)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _key(key) -> str:
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _write(key, 0)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _enclose(open_: str, items: list[str], close: str, depth: int) -> str:
    inner = "\n" + "  " * (depth + 1)
    return open_ + inner + ("," + inner).join(items) + "\n" + "  " * depth + close


def _float_grid(obj, depth: int) -> str | None:
    """The text of a rectangular nest of non-empty lists whose leaves are all
    finite floats (matrix data), or None for anything else.  The leaves go
    through ``float.__repr__`` in one pass and are joined level by level,
    each level by one template holding a list's brackets and separators."""
    shape = []
    level = [obj]
    while {*map(type, level)} == {list}:
        n = len(level[0])
        if n == 0 or {*map(len, level)} != {n}:
            return None
        shape.append(n)
        level = list(chain.from_iterable(level))
    if {*map(type, level)} != {float} or not all(map(math.isfinite, level)):
        return None
    parts = list(map(float.__repr__, level))
    for d in range(depth + len(shape) - 1, depth - 1, -1):
        n = shape[d - depth]
        template = _enclose("[", ["%s"] * n, "]", d)
        parts = list(map(template.__mod__, zip(*[iter(parts)] * n)))
    return parts[0]
