"""Input generators and independent references for the benchmark.

Everything here uses numpy only, never shortops, so the library sees nothing
but the generated arrays. Each generator plants the answer by construction
(a Schur block, a singular-triple subset, a range) or pairs the input with a
closed-form numpy reference, and keeps every factor's condition number at
most ``SPREAD`` so that no verdict sits near a tolerance.
"""

from __future__ import annotations

import numpy as np

SPREAD = 4.0  # singular values are drawn from [1, SPREAD]
REF_RCOND = 1e-10


def gauss(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)


def unitary(rng, n):
    q, r = np.linalg.qr(gauss(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def factors(rng, m, n, r):
    """(U_r, s, V_r) with orthonormal columns and s in [1, SPREAD]."""
    s = np.sort(rng.uniform(1.0, SPREAD, size=r))[::-1]
    return unitary(rng, m)[:, :r], s, unitary(rng, n)[:, :r]


def spectral(rng, m, n, r):
    U, s, V = factors(rng, m, n, r)
    return (U * s) @ V.conj().T


def pinv(M):
    return np.linalg.pinv(M, rcond=REF_RCOND)


def psum_ref(A, B):
    """A ∥ B = A - A (A+B)^+ A, straight from the closed form."""
    return A - A @ pinv(A + B) @ A


def close(X, ref, rel=1e-7):
    X = np.asarray(X)
    return X.shape == ref.shape and bool(
        np.linalg.norm(X - ref) <= rel * max(np.linalg.norm(ref), 1.0))


# ---------------------------------------------------------------------------
# instances: each returns a dict of plain arrays plus the planted truth


def triple(rng, m, n, sd, td, r22, complementable=True, rs=None):
    """(A, S, T) in random frames with A/(S,T) = T Sigma S* planted.

    A11 = Sigma + Y A22 X, A12 = Y A22, A21 = A22 X makes the triple
    complementable with Schur block Sigma. With ``complementable=False``,
    A21 is a generic block and A22 is rank-deficient, so R(A21) ⊄ R(A22).
    """
    p, q = m - td, n - sd
    A22 = spectral(rng, p, q, r22) if r22 else np.zeros((p, q), complex)
    X = 0.5 * gauss(rng, q, sd)
    Y = 0.5 * gauss(rng, td, p)
    rs = min(sd, td) if rs is None else rs
    sigma = spectral(rng, td, sd, rs) if rs else np.zeros((td, sd), complex)
    A21 = A22 @ X if complementable else gauss(rng, p, sd)
    blocks = np.block([[sigma + Y @ A22 @ X, Y @ A22], [A21, A22]])
    Sf, Tf = unitary(rng, n), unitary(rng, m)
    S, T = Sf[:, :sd], Tf[:, :td]
    return {"A": Tf @ blocks @ Sf.conj().T, "S": S, "T": T,
            "shorted": T @ sigma @ S.conj().T}


def summable_pair(rng, m, n, r):
    """A, B with R(A) ⊆ R(A+B) and R(A*) ⊆ R((A+B)*) by construction."""
    U, s, V = factors(rng, m, n, r)
    total = (U * s) @ V.conj().T
    A = U @ spectral(rng, r, r, r) @ V.conj().T
    return {"A": A, "B": total - A}


def nonsummable_pair(rng, m, n):
    """A generic, A+B of rank min(m,n)-1, so R(A) sticks out of R(A+B)."""
    A = gauss(rng, m, n)
    return {"A": A, "B": spectral(rng, m, n, min(m, n) - 1) - A}


def minus_pair(rng, m, n, r, holds):
    """(C, B): C a subset of B's singular triples (holds), or the same subset
    with one weight halved, so rank C + rank(B - C) > rank B (fails)."""
    U, s, V = factors(rng, m, n, r)
    k = int(rng.integers(1, r + 1))
    idx = rng.permutation(r)[:k]
    w = np.zeros(r)
    w[idx] = s[idx]
    if not holds:
        w[idx[0]] *= 0.5
    return {"C": (U * w) @ V.conj().T, "B": (U * s) @ V.conj().T}


def da_pair(rng, m, n, r, member):
    """(C, A): C - A lives on A's singular support (member of D_A), or is a
    generic full-rank perturbation of a rank-deficient A (not a member)."""
    U, s, V = factors(rng, m, n, r)
    A = (U * s) @ V.conj().T
    if member:
        C = A + (U * rng.uniform(0.5, 2.0, size=r)) @ V.conj().T
    else:
        C = A + spectral(rng, m, n, min(m, n))
    return {"C": C, "A": A}


def inclusion(rng, m, n, r, k, included):
    """(A, B) with B = A X (R(B) ⊆ R(A)), or B generic against rank r < m."""
    A = spectral(rng, m, n, r)
    B = A @ gauss(rng, n, k) if included else gauss(rng, m, k)
    return {"A": A, "B": B}


def auxiliary(rng, S, T):
    """L with R(L) = T and R(L*) = S, well conditioned."""
    d = S.shape[1]
    return T @ spectral(rng, d, d, d) @ S.conj().T
