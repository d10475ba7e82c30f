"""Counted work per public call: one call recorder and one table of named calls.

    python tests/_census.py > tests/golden/census.json

``record()`` counts, while open, full SVDs (``svd``, each one's shape in
``svd_shapes``), singular values alone (``svdvals``), ``qr``, ``eigh``,
``eigvalsh``, ``inv``, ``lstsq``, exact spectral norms (``opnorm``, at every
module's binding), inclusion gates (``gate.<module>``, at each binding of
``douglas._gate``), validated ``Subspace`` builds and ``np.block`` calls.

``census()`` maps each entry of the table to its nonzero counts, on operands
built afresh before the recorder opens; a refusal counts under its error's
name.  The grid runs every public operator, predicate and subspace call at
n = 2, 8 and 64 on caller-built subspaces (``framed`` when a factorization
made them), rejected ones too; named inputs follow.  ``<call> .<field>`` is the call and two reads of a
field formed on first read.  The JSON has one sorted line per entry, so the golden's diff names each
call whose cost moved.
"""

import json
import re
import sys
from collections import Counter
from contextlib import contextmanager
from functools import cache, partial
from itertools import chain
from pathlib import Path

if __name__ == "__main__":    # run as a script: the package is not installed
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

import shortops as so
from shortops import douglas, genlab, numcore

GOLDEN = Path(__file__).parent / "golden" / "census.json"
SIZES = (2, 8, 64)


class Calls(Counter):
    """Counts by kind, and the shape of each full SVD in call order."""

    def __init__(self):
        super().__init__()
        self.svd_shapes = []

    def entry(self) -> dict:
        out = dict(self)
        if self.svd_shapes:
            out["svd_shapes"] = list(self.svd_shapes)
        return out


@contextmanager
def record():
    """Count the library's work while open; yields the ``Calls``."""
    calls, saved = Calls(), []

    def patch(owner, name, key, real):
        def counted(*args, **kwargs):
            kind = key(args, kwargs) if callable(key) else key
            calls[kind] += 1
            if kind == "svd":
                calls.svd_shapes.append("x".join(map(str, np.shape(args[0]))))
            return real(*args, **kwargs)
        saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, counted)

    patch(np.linalg, "svd", lambda args, kwargs: "svd" if kwargs.get("compute_uv", True)
          else "svdvals", np.linalg.svd)
    for name in ("qr", "eigh", "eigvalsh", "inv", "lstsq"):
        patch(np.linalg, name, name, getattr(np.linalg, name))
    patch(np, "block", "block", np.block)
    patch(so.Subspace, "__post_init__", "subspace", so.Subspace.__post_init__)
    opnorm, gate = numcore.opnorm, douglas._gate
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("shortops"):
            if getattr(module, "opnorm", None) is opnorm:
                patch(module, "opnorm", "opnorm", opnorm)
            if getattr(module, "_gate", None) is gate:
                patch(module, "_gate", "gate." + module_name.rsplit(".", 1)[-1], gate)
    try:
        yield calls
    finally:
        for owner, name, real in reversed(saved):
            setattr(owner, name, real)


# operands: arrays drawn once per size, fresh Subspace objects on every call


def _gauss(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)


def _basis(rng, n, k):
    return np.linalg.qr(_gauss(rng, n, k))[0]


@cache
def _aux_arrays(n):
    """A, bases of S and T of dimension 5n/8, and L with R(L) = T, R(L*) = S."""
    rng, k = np.random.default_rng(0), max(1, 5 * n // 8)
    WS, WT = _basis(rng, n, k), _basis(rng, n, k)
    L = genlab.gen_with_ranges(so.Subspace(n, WT), so.Subspace(n, WS), rng)
    return _gauss(rng, n, n), WS, WT, L


def _triple(n, aux=False):
    """(A, S, T) on caller-built S and T, and L when ``aux``."""
    A, WS, WT, L = _aux_arrays(n)
    return (A, so.Subspace(n, WS), so.Subspace(n, WT)) + ((L,) if aux else ())


def _framed(n):
    A, WS, WT, _ = _aux_arrays(n)
    return A, so.Subspace.from_spanning(WS), so.Subspace.from_spanning(WT)


@cache
def _rejected_arrays(n):
    """A whose corner on S = T = the leading n/2 coordinates has a zero last
    row and column, so R(A21) leaves R(A22), and L with range T, corange S."""
    rng, k = np.random.default_rng(2), max(1, n // 2)
    A = _gauss(rng, n, n)
    A[k:, -1] = A[-1, k:] = 0
    W = np.eye(n)[:, :k]
    return A, W, genlab.gen_with_ranges(so.Subspace(n, W), so.Subspace(n, W), rng)


def _rejected(n, aux=False):
    A, W, L = _rejected_arrays(n)
    return (A, so.Subspace(n, W), so.Subspace(n, W)) + ((L,) if aux else ())


@cache
def _pair(n):
    rng = np.random.default_rng(0)
    return _gauss(rng, n, n), _gauss(rng, n, n)


@cache
def _unsummable(n):
    """A and B whose sum has rank n - 1, a range A leaves."""
    rng = np.random.default_rng(1)
    A = _gauss(rng, n, n)
    return A, _gauss(rng, n, n - 1) @ _gauss(rng, n - 1, n) - A


@cache
def _da(n):
    """A of rank 3n/4, C in D_A, C' not in D_A, B in R(A) and B' outside it."""
    rng, r = np.random.default_rng(0), max(1, 3 * n // 4)
    A = _gauss(rng, n, r) @ _gauss(rng, r, n)
    C = genlab.gen_da_member(A, np.random.default_rng(1))
    C_out = A + _gauss(rng, n, 1) @ _gauss(rng, 1, n)
    return A, C, C_out, A @ _gauss(rng, n, 2), _gauss(rng, n, 2)


@cache
def _minus(n):
    """C keeping B's leading 5n/16 singular triples; C' of C's rank, no part of B."""
    rng, c = np.random.default_rng(0), max(1, 5 * n // 16)
    U, V = _basis(rng, n, n), _basis(rng, n, n)
    s = np.linspace(2.0, 1.0, n)
    w = np.where(np.arange(n) < c, s, 0.0)
    return (U * w) @ V.conj().T, (U * s) @ V.conj().T, (U * w) @ _basis(rng, n, n).conj().T


@cache
def _two_bases(n):
    rng = np.random.default_rng(3)
    return _basis(rng, n, n // 2), _basis(rng, n, n // 2)


def _subspaces(n):
    return tuple(so.Subspace(n, W) for W in _two_bases(n))


def _frames(S):
    return S.complement().extended_frame, S.complement().complement().extended_frame


# name, operands of n, call, fields read after it
_GRID = [
    ("Subspace", lambda n: (n, _two_bases(n)[0]), so.Subspace),
    ("Subspace.from_spanning", lambda n: _aux_arrays(n)[1:2], so.Subspace.from_spanning),
    ("Subspace.range_of", lambda n: _da(n)[:1], so.Subspace.range_of),
    ("Subspace.from_projection", lambda n: (_triple(n)[1].projection,),
     so.Subspace.from_projection),
    ("Subspace.complement", lambda n: _subspaces(n)[:1], _frames),
    ("Subspace.complement framed", lambda n: _framed(n)[1:2], _frames),
    ("Subspace.contains", lambda n: (_triple(n)[1], _aux_arrays(n)[1][:, :1]),
     so.Subspace.contains),
    ("Subspace.equals", lambda n: (_triple(n)[1], so.Subspace(n, _aux_arrays(n)[1][:, ::-1])),
     so.Subspace.equals),
    ("ortho_projection", lambda n: _subspaces(n)[:1], so.ortho_projection),
    ("oblique_projection", _subspaces, so.oblique_projection),
    ("angles", _subspaces, so.angles),
    ("subspace_meet", _subspaces, so.subspace_meet),
    ("subspace_join", _subspaces, so.subspace_join),
    *((f.__name__, lambda n: _pair(n)[:1], f) for f in (
        so.opnorm, so.polar, so.sqrt_abs, so.sqrt_abs_adjoint, so.fundamental_subspaces)),
    ("rank", lambda n: _da(n)[:1], so.rank),
    ("pinv", lambda n: _da(n)[:1], so.pinv),
    ("sqrt_psd", lambda n: (_da(n)[0] @ _da(n)[0].conj().T,), so.sqrt_psd),
    ("range_leq", lambda n: (_da(n)[3], _da(n)[0]), so.range_leq),
    ("range_leq outside", lambda n: (_da(n)[4], _da(n)[0]), so.range_leq),
    ("range_residual", lambda n: (_da(n)[4], _da(n)[0]), so.range_residual),
    ("reduced_solution", lambda n: (_da(n)[0], _da(n)[3]), so.reduced_solution,
     "residual", "norm_sq"),
    ("reduced_solution rejected", lambda n: (_da(n)[0], _da(n)[4]), so.reduced_solution),
    ("block_decompose", _triple, so.block_decompose),
    ("complementability", _triple, so.complementability, "witnesses"),
    ("complementability rejected", _rejected, so.complementability),
    ("shorted", _triple, so.shorted, "E", "F", "P", "Q"),
    ("shorted framed", _framed, so.shorted),
    ("shorted rejected", _rejected, so.shorted),
    ("schur_compression", _triple, so.schur_compression),
    ("solve_shorting_direction", lambda n: (*_triple(n), _aux_arrays(n)[1][:, 0]),
     so.solve_shorting_direction),
    ("minus_leq", lambda n: _minus(n)[:2], so.minus_leq),
    ("minus_leq fails", lambda n: (_minus(n)[2], _minus(n)[1]), so.minus_leq),
    ("in_minus_set", lambda n: (so.shorted(*_triple(n)).shorted, *_triple(n)), so.in_minus_set),
    ("summability", _pair, so.summability, "defects"),
    ("summability rejected", _unsummable, so.summability),
    ("parallel_sum", _pair, so.parallel_sum),
    ("parallel_sum rejected", _unsummable, so.parallel_sum),
    ("in_da", lambda n: (_da(n)[1], _da(n)[0]), so.in_da),
    ("in_da rejected", lambda n: (_da(n)[2], _da(n)[0]), so.in_da),
    ("parallel_subtract", lambda n: (_da(n)[1], _da(n)[0]), so.parallel_subtract),
    ("parallel_subtract rejected", lambda n: (_da(n)[2], _da(n)[0]), so.parallel_subtract),
    ("recover_shorted", lambda n: (*_triple(n, True), 1), so.recover_shorted),
    ("recover_shorted NotComplementable", lambda n: (*_rejected(n, True), 1), so.recover_shorted),
    ("recover_shorted BadAuxiliary", lambda n: (*_rejected(n), np.eye(n), 1), so.recover_shorted),
    ("shorted_via_limit", lambda n: (*_triple(n, True), (1, 2, 4)), so.shorted_via_limit),
    ("shorted_via_limit rejected", lambda n: (*_rejected(n, True), (1,)), so.shorted_via_limit),
    ("genlab.gen_da_member", lambda n: (_pair(n)[0], np.random.default_rng(1)),
     genlab.gen_da_member),
]


def _e1_twice():
    """S = T = span{e1} in C^2, one object."""
    S = so.Subspace(2, np.eye(2)[:, :1])
    return S, S


def _singular_triple_subset():
    """C keeps two of the three singular triples of a 3x3 B."""
    rng = np.random.default_rng(0)
    U, V = _basis(rng, 3, 3), _basis(rng, 3, 3)
    return (U * [3.0, 0.0, 1.0]) @ V.conj().T, (U * [3.0, 2.0, 1.0]) @ V.conj().T


def _planes_sharing_a_line():
    F = _basis(np.random.default_rng(0), 4, 4)
    tilt = (F[:, 1] + 2.0 * F[:, 2]) / np.sqrt(5.0)
    return so.Subspace(4, F[:, :2]), so.Subspace(4, np.column_stack([F[:, 0], tilt]))


def _not_complementable():
    """R(A21) leaves R(A22) for S = T = span{e1, e2} in C^4; L has range T, corange S."""
    A = np.zeros((4, 4))
    A[:2, :2] = [[2.0, 1.0], [1.0, 3.0]]
    A[2, 2] = A[3, 0] = 1.0
    S, T = (so.Subspace(4, np.eye(4)[:, :2]) for _ in range(2))
    return A, S, T, genlab.gen_with_ranges(T, S, np.random.default_rng(0))


def _caller_built_s(rng):
    A, S, T = genlab.gen_complementable(6, 6, 3, 3, 2, rng)
    return A, so.Subspace(6, S.basis), T


_SIX = {
    # S spanned by five columns of rank 3 and T by three: the 3x3 corner is invertible
    "framed by from_spanning": lambda rng: (
        _gauss(rng, 6, 6), so.Subspace.from_spanning(_gauss(rng, 6, 3) @ _gauss(rng, 3, 5)),
        so.Subspace.from_spanning(_gauss(rng, 6, 3))),
    "framed by range_of": lambda rng: (
        _gauss(rng, 6, 6), so.Subspace.range_of(_gauss(rng, 6, 3) @ _gauss(rng, 3, 6)),
        so.Subspace.range_of(_gauss(rng, 6, 3))),
    "framed by gen_complementable": lambda rng: genlab.gen_complementable(6, 6, 3, 3, 2, rng),
    "caller-built S": _caller_built_s,
}


def _range_nullspace():
    A, S, T = genlab.gen_complementable(6, 6, 3, 3, 2, np.random.default_rng(0))
    return A, S, T, so.shorted(A, S, T).shorted, so.DEFAULT_TOL


def _named():
    yield ("shorted 2x2 README", lambda: (np.array([[2.0, 1.0], [1.0, 1.0]]), *_e1_twice()),
           so.shorted)
    yield "minus_leq 3x3 singular-triple subset", _singular_triple_subset, so.minus_leq
    yield "angles 4x4 planes sharing a line", _planes_sharing_a_line, so.angles
    yield "subspace_meet 4x4 planes sharing a line", _planes_sharing_a_line, so.subspace_meet
    # C - A = D with R(D) = R(A) but R(D*) not R(A*)
    yield ("in_da 3x3 corange outside", lambda: (np.outer([1, 0, 0], [0, 1, 1]),
                                                 np.outer([1, 0, 0], [0, 1, 0])), so.in_da)
    yield ("complementability 4x4 rejected", lambda: _not_complementable()[:3],
           so.complementability)
    yield ("recover_shorted 4x4 NotComplementable", lambda: (*_not_complementable(), 1),
           so.recover_shorted)
    yield ("recover_shorted 4x4 BadAuxiliary", lambda: (*_not_complementable()[:3], np.eye(4), 1),
           so.recover_shorted)
    for n in (1, 2):    # A + L singular where A is not: n = 1 doubles to 2
        yield (f"recover_shorted 2x2 singular sum from n={n}", lambda n=n: (
            np.diag([-1.0, 1.0]), *_e1_twice(), np.diag([1.0, 0.0]), n), so.recover_shorted)
    for source, make in _SIX.items():
        for call in (so.block_decompose, so.shorted):
            yield (f"{call.__name__} 6x6 {source}",
                   lambda make=make: make(np.random.default_rng(0)), call)
    yield ("genlab.shorted_range_nullspace_ok 6x6", _range_nullspace,
           genlab.shorted_range_nullspace_ok)
    for n in range(1, 9):
        for k in range(n + 1):
            yield (f"genlab._random_idempotent n={n} k={k}", lambda n=n, k=k: (
                genlab.trial_rng(3, n, k), n, k, so.DEFAULT_TOL), genlab._random_idempotent)
    names = [name for name, _ in genlab.INVARIANTS]
    for name in ("minus-route-agreement", "reduced-solution-minimal-norm", "limit-convergence"):
        for t in range(8):
            yield (f"genlab:{name} seed=11 trial={t}", lambda i=names.index(name), t=t: (
                genlab.trial_rng(11, i, t), genlab.GenConfig(), so.DEFAULT_TOL),
                genlab.INVARIANTS[names.index(name)][1])


def _grid():
    for n in SIZES:
        for name, operands, call, *fields in _GRID:
            head, _, variant = name.partition(" ")
            yield (" ".join(filter(None, (head, f"{n}x{n}", variant))), partial(operands, n),
                   call, *fields)


def census() -> dict:
    """Entry name -> nonzero counts, each entry on fresh operands."""
    out = {}
    for name, operands, call, *fields in chain(_grid(), _named()):
        for field in (None, *fields):
            args = operands()
            with record() as calls:
                try:
                    result = call(*args)
                    if field is not None:
                        getattr(result, field)
                        getattr(result, field)
                except so.ShortopsError as refusal:    # counted up to its raise
                    calls[type(refusal).__name__] += 1
            out[name if field is None else f"{name} .{field}"] = calls.entry()
    return out


def dumps(entries: dict) -> str:
    """Sorted JSON, one line per entry."""
    lines = [f"{json.dumps(name)}: {json.dumps(counts, sort_keys=True)}"
             for name, counts in sorted(entries.items())]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def moved(want: dict, got: dict, pattern: str = "") -> list[str]:
    """Each moved count, golden value first, of the entries whose name
    ``pattern`` matches at its start."""
    lines = []
    for name in sorted(want.keys() | got.keys()):
        old, new = want.get(name), got.get(name)
        if not re.match(pattern, name) or old == new:
            continue
        if old is None or new is None:
            lines.append(f"{name}: {old} -> {new}")
            continue
        lines += [f"{name}: {kind} {old.get(kind, 0)} -> {new.get(kind, 0)}"
                  for kind in sorted(old.keys() | new.keys()) if old.get(kind, 0) != new.get(kind, 0)]
    return lines


measured = cache(census)


def check(pattern: str) -> None:
    """Fail, naming each moved count, unless the entries that ``pattern``
    matches (at least one) equal the golden."""
    want = json.loads(GOLDEN.read_text())
    assert any(re.match(pattern, name) for name in want), f"no census entry matches {pattern!r}"
    lines = moved(want, measured(), pattern)
    assert not lines, ("census moved; regenerate with python tests/_census.py > "
                       "tests/golden/census.json\n" + "\n".join(lines))


if __name__ == "__main__":
    print(dumps(census()), end="")
