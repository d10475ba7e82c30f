"""An exact oracle over the Gaussian rationals, sharing nothing with shortops.

A matrix X + iY of Gaussian rationals is held as integers over one common
denominator d: the real form [[X, -Y], [Y, X]] = N / d, with N a numpy
object array of Python ints (a real matrix is held as X = N / d alone).
Every float read in is its exact value ``Fraction(x)``, so the oracle judges
the very numbers a caller passes.  The real form maps sums, products and
conjugate transposes to sums, products and transposes, and the
Moore-Penrose inverse of the real form is the real form of the inverse,
so every formula below is written once, on integers.

- Rank and reduced row echelon form by fraction-free Gauss-Jordan
  elimination (Bareiss), whose every division is exact.
- The Moore-Penrose inverse from the rank factorization X = F G, with F
  the pivot columns of X and G the nonzero rows of its RREF:
  X^+ = G* (G G*)^-1 (F* F)^-1 F* (Ben-Israel & Greville, Generalized
  Inverses, ch. 1).  Orthogonal projections as W (W* W)^-1 W*.
- The shorted operator by the basis-free formula
  P_T A P_S - P_T A P_S-perp (P_T-perp A P_S-perp)^+ P_T-perp A P_S,
  the parallel sum A - A (A + B)^+ A, and weak and strong
  complementability and summability, D_A membership and the minus order,
  each decided by exact rank.

In finite dimensions R(M M*) = R(M), so the weak verdicts, which ask
inclusions in the ranges of |M*|^(1/2) and |M|^(1/2), are decided on the
Gram matrices M M* and M* M, and the strong ones on M itself: different
exact rank computations that must agree.
"""

import math

import numpy as np


class Exact:
    """The matrix N / d, in real form when ``cx`` (see the module doc)."""

    __slots__ = ("N", "d", "cx")

    def __init__(self, N, d: int = 1, cx: bool = False):
        g = math.gcd(d, *N.flat)
        if d < 0:
            g = -g
        self.N, self.d, self.cx = (N // g, d // g, cx) if g not in (0, 1) else (N, d, cx)

    @property
    def shape(self) -> tuple[int, int]:
        m, n = self.N.shape
        return (m // 2, n // 2) if self.cx else (m, n)

    @property
    def H(self) -> "Exact":
        """Conjugate transpose: the transpose of the real form."""
        return Exact(self.N.T.copy(), self.d, self.cx)

    def __matmul__(self, other: "Exact") -> "Exact":
        return Exact(self.N @ other.N, self.d * other.d, self.cx)

    def __add__(self, other: "Exact") -> "Exact":
        return Exact(self.N * other.d + other.N * self.d, self.d * other.d, self.cx)

    def __sub__(self, other: "Exact") -> "Exact":
        return Exact(self.N * other.d - other.N * self.d, self.d * other.d, self.cx)

    def hstack(self, other: "Exact") -> "Exact":
        if self.cx:  # keep the real form's [[X, -Y], [Y, X]] layout
            (m, n), k = self.shape, other.shape[1]
            a, b = self.N * other.d, other.N * self.d
            N = np.hstack([a[:, :n], b[:, :k], a[:, n:], b[:, k:]])
        else:
            N = np.hstack([self.N * other.d, other.N * self.d])
        return Exact(N, self.d * other.d, self.cx)

    def to_float(self) -> np.ndarray:
        """The nearest complex128 array, each entry rounded once."""
        m, n = self.shape
        out = np.array([[x / self.d for x in row] for row in self.N.tolist()],
                       dtype=np.float64).reshape(self.N.shape)
        return (out[:m, :n] + 1j * out[m:, :n]) if self.cx else out.astype(np.complex128)


def exact(a, cx: bool) -> Exact:
    """The exact value of the floats in ``a`` (``float.as_integer_ratio``,
    the value ``Fraction(x)`` holds); ``cx`` puts it in real form."""
    a = np.asarray(a, dtype=np.complex128)
    if cx:
        real = np.block([[a.real, -a.imag], [a.imag, a.real]])
    elif a.imag.any():
        raise ValueError("complex entries need cx=True")
    else:
        real = a.real
    ratios = [x.as_integer_ratio() for x in real.flat]
    d = math.lcm(1, *(q for _, q in ratios))
    N = np.array([p * (d // q) for p, q in ratios], dtype=object)
    return Exact(N.reshape(real.shape), d, cx)


def identity(n: int, cx: bool) -> Exact:
    return Exact(np.eye(2 * n if cx else n, dtype=int).astype(object), 1, cx)


def zeros(m: int, n: int, cx: bool) -> Exact:
    k = 2 if cx else 1
    return Exact(np.zeros((k * m, k * n), dtype=int).astype(object), 1, cx)


def _gauss_jordan(N) -> tuple[np.ndarray, list[int]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss): R and the pivot
    columns, with R = p * RREF(N) on its leading len(pivots) rows, p the
    last pivot (R[0, pivots[0]]); every division is exact."""
    R = N.copy()
    m, n = R.shape
    pivots, prev = [], 1
    for j in range(n):
        r = len(pivots)
        if r == m:
            break
        rows = [i for i in range(r, m) if R[i, j]]
        if not rows:
            continue
        R[[r, rows[0]]] = R[[rows[0], r]]
        p = R[r, j]
        others = [i for i in range(m) if i != r]
        R[others] = (R[others] * p - np.outer(R[others, j], R[r])) // prev
        pivots.append(j)
        prev = p
    return R, pivots


def rank(X: Exact) -> int:
    if 0 in X.N.shape:
        return 0
    r = len(_gauss_jordan(X.N)[1])
    return r // 2 if X.cx else r


def inv(X: Exact) -> Exact:
    """The inverse of an invertible square X."""
    n = X.N.shape[0]
    R, pivots = _gauss_jordan(np.hstack([X.N, np.eye(n, dtype=int).astype(object)]))
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return Exact(R[:, n:] * X.d, R[0, 0], X.cx)


def pinv(X: Exact) -> Exact:
    """Moore-Penrose inverse from the rank factorization X = F G."""
    m, n = X.N.shape
    R, pivots = _gauss_jordan(X.N) if m and n else (None, [])
    if not pivots:
        return zeros(*reversed(X.shape), X.cx)
    F = Exact(X.N[:, pivots], X.d, X.cx)
    G = Exact(R[:len(pivots)], R[0, pivots[0]], X.cx)
    return G.H @ inv(G @ G.H) @ inv(F.H @ F) @ F.H


def projection(W: Exact, n: int) -> Exact:
    """Orthogonal projection onto R(W), for W of full column rank."""
    if not W.shape[1]:
        return zeros(n, n, W.cx)
    return W @ inv(W.H @ W) @ W.H


def _two_sided(right: Exact, left: Exact, M: Exact) -> tuple[bool, bool]:
    """(weak, strong) verdicts of R(right) ⊆ R(M) and R(left*) ⊆ R(M*),
    each inclusion R(X) ⊆ R(Y) as rank [Y X] = rank Y: strong on M and M*,
    weak on the Grams M M* and M* M (the ranges of the roots)."""
    r, Ma, adjoint = rank(M), M.H, left.H
    strong = rank(M.hstack(right)) == r == rank(Ma.hstack(adjoint))
    gram, co_gram = M @ Ma, Ma @ M
    weak = (rank(gram.hstack(right)) == rank(gram)
            and rank(co_gram.hstack(adjoint)) == rank(co_gram))
    return weak, strong


class Triple:
    """(A, S, T) with S and T the spans of the columns of WS and WT: the
    four compressions P_T(-perp) A P_S(-perp), formed once."""

    def __init__(self, A: Exact, WS: Exact, WT: Exact):
        (m, n), cx = A.shape, A.cx
        PS, PT = projection(WS, n), projection(WT, m)
        PSp, PTp = identity(n, cx) - PS, identity(m, cx) - PT
        TA, TpA = PT @ A, PTp @ A
        self.A11, self.A12 = TA @ PS, TA @ PSp
        self.A21, self.A22 = TpA @ PS, TpA @ PSp

    def complementability(self) -> tuple[bool, bool]:
        """(weakly, strongly) complementable."""
        return _two_sided(self.A21, self.A12, self.A22)

    def shorted(self) -> Exact:
        return self.A11 - self.A12 @ pinv(self.A22) @ self.A21


def summability(A: Exact, B: Exact) -> tuple[bool, bool]:
    """(weakly, strongly) summable: R(A) ⊆ R(A + B), R(A*) ⊆ R((A + B)*)."""
    return _two_sided(A, A, A + B)


def parallel_sum(A: Exact, B: Exact) -> Exact:
    """A - A (A + B)^+ A, the shorted block of [[A, A], [A, A + B]]."""
    return A - A @ pinv(A + B) @ A


def in_da(C: Exact, A: Exact) -> bool:
    """R(C - A) = R(A) and R((C - A)*) = R(A*): D = C - A, A, [A D] and
    [A* D*] all of one rank."""
    D = C - A
    return rank(D) == rank(A) == rank(A.hstack(D)) == rank(A.H.hstack(D.H))


def minus_leq(C: Exact, B: Exact) -> bool:
    """C ≤⁻ B by rank additivity: rank B = rank C + rank (B - C)."""
    return rank(B) == rank(C) + rank(B - C)
