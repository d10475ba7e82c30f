"""In-process operations for the ``small-ops`` and ``dense-ops`` workloads.

An operation is one public shortops call on pre-generated arrays. Subspace
objects are built inside the call, as a caller holding arrays would, so no
cached complement carries over from one operation to the next. Each
operation is paired with a check against a reference from ``gen``; an
expected rejection passes only if the named error type is raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import gen


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool] = lambda out: True
    expect: type | None = None  # exception type of an expected rejection

    def verify(self, out, exc) -> bool:
        if self.expect is not None:
            return isinstance(exc, self.expect)
        return exc is None and bool(self.check(out))


def _sub(so, basis):
    return so.Subspace(basis.shape[0], basis)


# Each factory draws the k-th instance of its class with ``rng``, at the shape
# ``dims`` picks for k, and returns its Op. ``so`` is the shortops package.
# Mixed-verdict classes alternate true and false with k.


def parallel_sum(so, rng, dims, k):
    m, n = dims.shape(k)
    inst = gen.summable_pair(rng, m, n, dims.rank(min(m, n), k))
    ref = gen.psum_ref(inst["A"], inst["B"])
    return Op("parallel_sum", lambda: so.parallel_sum(inst["A"], inst["B"]).sum,
              lambda out: gen.close(out, ref))


def parallel_sum_reject(so, rng, dims, k):
    m, n = dims.shape(k)
    inst = gen.nonsummable_pair(rng, m, n)
    return Op("parallel_sum_reject", lambda: so.parallel_sum(inst["A"], inst["B"]),
              expect=so.NotSummable)


def summability(so, rng, dims, k):
    m, n = dims.shape(k)
    truth = k % 2 == 0
    inst = (gen.summable_pair(rng, m, n, dims.rank(min(m, n), k)) if truth
            else gen.nonsummable_pair(rng, m, n))
    return Op("summability", lambda: so.summability(inst["A"], inst["B"]),
              lambda rep: rep.strongly == truth and rep.weakly == truth)


def triple(rng, dims, k, complementable, matched=False):
    """The k-th (A, S, T) instance: complementable or not, dim S = dim T if matched."""
    m, n = dims.shape(k)
    if matched:
        sd = td = dims.corner(min(m, n), k, lo=1)
    elif complementable:
        sd, td = dims.corner(n, k), dims.corner(m, k + 1)
    else:
        # a corner of rank >= 1 that misses a direction of C^p; a zero corner
        # is no use here, as the library reads its rounding noise as full
        # rank and calls the triple complementable
        sd, td = dims.corner(n, k, lo=1, hi=n - 1), dims.corner(m, k + 1, hi=m - 2)
    p, q = m - td, n - sd
    r22 = dims.rank(min(p, q) if complementable else min(p - 1, q), k)
    return gen.triple(rng, m, n, sd, td, r22, complementable)


def shorted(so, rng, dims, k):
    inst = triple(rng, dims, k, True)
    return Op("shorted",
              lambda: so.shorted(inst["A"], _sub(so, inst["S"]), _sub(so, inst["T"])).shorted,
              lambda out: gen.close(out, inst["shorted"]))


def shorted_reject(so, rng, dims, k):
    inst = triple(rng, dims, k, False)
    return Op("shorted_reject",
              lambda: so.shorted(inst["A"], _sub(so, inst["S"]), _sub(so, inst["T"])),
              expect=so.NotComplementable)


def complementability(so, rng, dims, k):
    truth = k % 2 == 0
    inst = triple(rng, dims, k, truth)
    return Op("complementability",
              lambda: so.complementability(inst["A"], _sub(so, inst["S"]), _sub(so, inst["T"])),
              lambda rep: rep.strongly == truth and rep.weakly == truth)


def _minus(so, rng, dims, k, holds):
    m, n = dims.shape(k)
    inst = gen.minus_pair(rng, m, n, dims.rank(min(m, n), k), holds)
    return Op("minus_leq" if holds else "minus_leq_false",
              lambda: so.minus_leq(inst["C"], inst["B"]),
              lambda v: v.holds == holds and v.rank_route == holds
              and v.projection_route == holds)


def minus_leq(so, rng, dims, k):
    return _minus(so, rng, dims, k, True)


def minus_leq_false(so, rng, dims, k):
    return _minus(so, rng, dims, k, False)


def in_minus_set(so, rng, dims, k):
    inst = triple(rng, dims, k, True)
    return Op("in_minus_set",
              lambda: so.in_minus_set(inst["shorted"], inst["A"],
                                      _sub(so, inst["S"]), _sub(so, inst["T"])),
              lambda holds: holds is True)


def parallel_subtract(so, rng, dims, k):
    m, n = dims.shape(k)
    inst = gen.da_pair(rng, m, n, dims.rank(min(m, n), k), True)
    ref = gen.psum_ref(inst["C"], -inst["A"])
    return Op("parallel_subtract", lambda: so.parallel_subtract(inst["C"], inst["A"]),
              lambda out: gen.close(out, ref))


def parallel_subtract_reject(so, rng, dims, k):
    m, n = dims.shape(k)
    inst = gen.da_pair(rng, m, n, min(m, n) - 1, False)
    return Op("parallel_subtract_reject",
              lambda: so.parallel_subtract(inst["C"], inst["A"]), expect=so.NotInDA)


def recover_shorted(so, rng, dims, k):
    inst = triple(rng, dims, k, True, matched=True)
    L = gen.auxiliary(rng, inst["S"], inst["T"])
    return Op("recover_shorted",
              lambda: so.recover_shorted(inst["A"], _sub(so, inst["S"]),
                                         _sub(so, inst["T"]), L, 4),
              lambda out: gen.close(out, inst["shorted"]))


def reduced_solution(so, rng, dims, k):
    m, n = dims.shape(k)
    inst = gen.inclusion(rng, m, n, dims.rank(min(m, n), k), dims.width(k), True)
    ref = gen.pinv(inst["A"]) @ inst["B"]
    return Op("reduced_solution", lambda: so.reduced_solution(inst["A"], inst["B"]).D,
              lambda out: gen.close(out, ref))


def range_leq(so, rng, dims, k):
    m, n = dims.shape(k)
    truth = k % 2 == 0
    r = dims.rank(min(m, n), k) if truth else min(m, n) - 1
    inst = gen.inclusion(rng, m, n, r, dims.width(k), truth)
    return Op("range_leq", lambda: so.range_leq(inst["B"], inst["A"]),
              lambda holds: holds is truth)


def _hit(k: int, share: float) -> bool:
    """True for a ``share`` of all k, evenly spread over every prefix."""
    return int((k + 1) * share) > int(k * share)


def _spread(k: int, lo: int, hi: int) -> int:
    """An integer in [lo, hi] for k, evenly spread (golden-ratio sequence)."""
    return lo + int(((k + 0.5) * 0.6180339887) % 1.0 * (hi - lo + 1))


@dataclass(frozen=True)
class Dims:
    """Shape policy of a workload. Sides, rectangular or not, ranks and corner
    sizes are fixed by the instance index k, so every seed gives the same
    composition of shapes; the seed draws the entries."""

    sides: tuple[int, ...]      # square side lengths, taken in turn
    rect_sides: tuple[int, ...]  # the other side of a rectangular instance
    rect_share: float           # share of rectangular instances
    deficient_share: float      # share of ranks / corner ranks below full

    def shape(self, k):
        # k // 2: the side does not follow the k % 2 verdict alternation
        m = n = self.sides[(k // 2) % len(self.sides)]
        if _hit(k, self.rect_share):
            other = self.rect_sides[k % len(self.rect_sides)]
            m, n = (m, other) if (k // 3) % 2 else (other, m)
        return m, n

    def rank(self, full, k):
        """``full``, or for a deficient_share of k a rank in [1, full)."""
        if full > 1 and _hit(k, self.deficient_share):
            return _spread(k, 1, full - 1)
        return max(full, 0)

    def corner(self, side, k, lo=0, hi=None):
        hi = side if hi is None else hi
        return _spread(k, max(lo, hi // 4), max(lo, hi * 3 // 4))

    def width(self, k):
        return _spread(k, 1, max(self.sides))
