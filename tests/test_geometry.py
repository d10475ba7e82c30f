import numpy as np
import pytest

from shortops import (
    DimensionMismatch,
    NotComplementary,
    Subspace,
    angles,
    oblique_projection,
    ortho_projection,
    subspace_join,
    subspace_meet,
)
from shortops.genlab import gauss, gen_complementable, gen_subspace
from shortops.geometry import _split_along
from shortops.numcore import DEFAULT_TOL, complement_basis, fundamental_subspaces, opnorm


def largest_cosine(B1, B2):
    """sigma_max of B1* B2 for orthonormal bases, at most 1; 0 if either is empty."""
    return min(1.0, opnorm(B1.conj().T @ B2))


def span(*vectors):
    cols = np.array(vectors, dtype=np.complex128).T
    return Subspace.from_spanning(cols)


def test_subspace_validation():
    with pytest.raises(ValueError):
        Subspace(2, np.array([[1.0, 1.0], [0.0, 0.0]]))  # not orthonormal
    with pytest.raises(DimensionMismatch):
        Subspace(3, np.eye(2))
    S = Subspace.from_projection(np.diag([1.0, 0.0]))
    assert S.dim == 1
    with pytest.raises(ValueError):
        Subspace.from_projection(np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_ortho_projection_examples():
    P = ortho_projection(span([1, 1]))
    assert np.allclose(P, [[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(ortho_projection(Subspace.full(3)), np.eye(3))
    assert np.allclose(ortho_projection(Subspace.trivial(3)), np.zeros((3, 3)))


def test_oblique_projection_examples():
    Q = oblique_projection(span([1, 0]), span([1, 1]))
    assert np.allclose(Q, [[1.0, -1.0], [0.0, 0.0]])
    # orthogonal complementary pair reduces to the orthogonal projection
    R = span([1, 0, 0], [0, 1, 0])
    N = span([0, 0, 1])
    assert np.allclose(oblique_projection(R, N), ortho_projection(R))
    with pytest.raises(NotComplementary):
        oblique_projection(span([1, 0]), span([1, 0]))
    with pytest.raises(NotComplementary):  # dimensions 1 + 1 in C^3
        oblique_projection(span([1, 0, 0]), span([0, 1, 0]))


def test_meet_join_examples():
    e = np.eye(3)
    M = span(e[0], e[1])
    N = span(e[1], e[2])
    meet = subspace_meet(M, N)
    assert meet.dim == 1
    assert meet.contains(np.array([[0.0], [1.0], [0.0]]))
    assert subspace_join(M, N).dim == 3

    assert subspace_meet(M, M).equals(M)
    assert subspace_join(M, M).equals(M)

    perp = span(e[2])
    assert subspace_meet(M, perp).dim == 0
    with pytest.raises(DimensionMismatch):
        subspace_meet(M, Subspace.full(4))


def test_de_morgan_duality():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        M = gen_subspace(n, int(rng.integers(0, n + 1)), rng)
        N = gen_subspace(n, int(rng.integers(0, n + 1)), rng)
        lhs = subspace_meet(M, N).complement()
        rhs = subspace_join(M.complement(), N.complement())
        assert lhs.equals(rhs)


@pytest.mark.parametrize("n", [1, 2, 5, 17, 64])
def test_qr_complement_matches_svd_complement(n):
    # the complement from the complete QR of the draw (gen_subspace's frame)
    # against the null space of basis* from its SVD, and against the one
    # from the complete QR of the basis (a caller's basis), on every
    # dimension 0..n
    rng = np.random.default_rng(300 + n)
    for dim in range(n + 1):
        S = gen_subspace(n, dim, rng)
        comp = S.complement().basis
        svd_comp = fundamental_subspaces(S.basis).conull_basis
        assert comp.shape == svd_comp.shape == (n, n - dim)
        P_perp = comp @ comp.conj().T
        assert np.linalg.norm(comp.conj().T @ comp - np.eye(n - dim)) <= 1e-12
        assert np.linalg.norm(S.basis.conj().T @ comp) <= 1e-12
        assert np.linalg.norm(S.projection + P_perp - np.eye(n)) <= 1e-12
        assert np.linalg.norm(P_perp - svd_comp @ svd_comp.conj().T) <= 1e-12
        qr_comp = Subspace(n, S.basis).complement().basis
        assert np.linalg.norm(P_perp - qr_comp @ qr_comp.conj().T) <= 1e-12
    for S in (Subspace.trivial(n), Subspace.full(n)):
        comp = S.complement().basis
        assert np.linalg.norm(S.projection + comp @ comp.conj().T - np.eye(n)) <= 1e-12


def _framed_subspaces(n, rng):
    """Subspaces of C^n that keep the frame of the factorization that made
    them, and one built from a caller's basis, by how each was made."""
    k = min(n, 2)
    W = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2)
    M = Subspace.from_spanning(W)
    # dim S = 2, dim T = 1 and a rank-1 corner, as far as n allows
    A, S, T = gen_complementable(n, n, k, min(n - 1, 1), max(min(n - 2, 1), 0), rng)
    subspaces = {
        "from_spanning": M,
        "range_of": Subspace.range_of(A),
        "from_projection": Subspace.from_projection(M.projection),
        "full": Subspace.full(n),
        "trivial": Subspace.trivial(n),
        "subspace_join": subspace_join(M, T),
        "complement": M.complement(),
        "complement of a caller's basis": Subspace(n, M.basis).complement(),
        "gen_subspace": gen_subspace(n, k, rng),
        "gen_complementable S": S,
        "gen_complementable T": T,
        "caller's basis": Subspace(n, M.basis),
    }
    # rank-one spanning columns, more of them than the rank
    deficient = W[:, :1] @ gauss(rng, 1, 3)
    subspaces["from_spanning, rank-deficient"] = Subspace.from_spanning(deficient)
    subspaces["range_of, rank-deficient"] = Subspace.range_of(deficient @ gauss(rng, 3, n))
    return subspaces


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_extended_frame_is_unitary_and_leads_with_the_basis(n):
    subspaces = _framed_subspaces(n, np.random.default_rng(n))
    assert subspaces["from_spanning, rank-deficient"].dim == 1
    assert subspaces["range_of, rank-deficient"].dim == 1
    for how, S in subspaces.items():
        frame = S.extended_frame
        assert frame.shape == (n, n) and frame.dtype == np.complex128, how
        assert np.linalg.norm(frame.conj().T @ frame - np.eye(n), 2) <= 1e-12, how
        assert np.array_equal(frame[:, :S.dim], S.basis), how
        # the complement's frame is the same columns, blocks swapped
        swapped = S.complement().extended_frame
        assert np.array_equal(swapped[:, :n - S.dim], frame[:, S.dim:]), how
        assert np.array_equal(swapped[:, n - S.dim:], frame[:, :S.dim]), how


def test_angle_examples():
    ap = angles(span([1, 0]), span([1, 1]))
    assert ap.dixmier_cos == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert ap.friedrichs_cos == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    same = span([1, 0])
    ap = angles(same, same)
    assert ap.dixmier_cos == pytest.approx(1.0, abs=1e-12)
    assert ap.friedrichs_cos == 0.0  # empty sup once the intersection is removed

    e = np.eye(3)
    M = span(e[0], e[1])
    N = span(e[0], (e[1] + e[2]) / np.sqrt(2))
    ap = angles(M, N)
    assert ap.dixmier_cos == pytest.approx(1.0, abs=1e-12)
    assert ap.friedrichs_cos == pytest.approx(1 / np.sqrt(2), abs=1e-10)


def test_angles_trivial_subspace_convention():
    ap = angles(Subspace.trivial(3), Subspace.full(3))
    assert ap.dixmier_cos == 0.0
    assert ap.friedrichs_cos == 0.0


def test_friedrichs_dominated_by_dixmier_when_intersection_trivial():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        M = gen_subspace(n, int(rng.integers(0, n + 1)), rng)
        N = gen_subspace(n, int(rng.integers(0, n + 1)), rng)
        if subspace_meet(M, N).dim:
            continue
        ap = angles(M, N)
        assert abs(ap.friedrichs_cos - ap.dixmier_cos) <= 1e-9


def test_oblique_projection_range_and_nullspace():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(0, n + 1))
        R = gen_subspace(n, k, rng)
        N = gen_subspace(n, n - k, rng)
        if angles(R, N).dixmier_cos >= 1 - 1e-6:
            continue
        Q = oblique_projection(R, N)
        scale = max(1.0, np.linalg.norm(Q, 2)) ** 2 if Q.size else 1.0
        assert np.linalg.norm(Q @ Q - Q) <= 1e-9 * scale
        assert Subspace.range_of(Q).equals(R) or k == 0
        assert np.linalg.norm(Q @ N.basis) <= 1e-9 * scale


def _unitary(rng, n):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(Z)[0]


def _frame_inverse_split(W1, W2, tol=DEFAULT_TOL):
    """Reference: the rank cutoff on the stacked bases [W1 W2], the rule
    ``subspace_meet`` applies, then W1 times the first rows of the inverse
    of the unitary-completed frame [W1 W2 W_rest]."""
    n, a = W1.shape
    b = W2.shape[1]
    if a + b > n:
        return None
    U, s = np.linalg.svd(np.hstack([W1, W2]), full_matrices=True)[:2]
    if s.size and s[-1] <= tol.rank_rel * n * s[0]:
        return None
    frame = np.hstack([W1, W2, U[:, a + b:]])
    return W1 @ np.linalg.inv(frame)[:a]


def _cutoff_angle(n, tol=DEFAULT_TOL):
    """The least principal angle at the meet's cutoff in C^n (a + b <= n):
    [W1 W2] has least and largest singular values sqrt(2) sin(θ/2) and
    sqrt(2) cos(θ/2), so the ranges meet iff tan(θ/2) <= rank_rel n."""
    return 2.0 * np.arctan(tol.rank_rel * n)


def _pair_draw(rng, n, a, b, theta=None):
    """Orthonormal W1 (n x a) and W2 (n x b); with ``theta``, the least
    principal angle between their ranges (needs a, b >= 1, a + b <= n)."""
    if theta is None:
        return _unitary(rng, n)[:, :a], _unitary(rng, n)[:, :b]
    return _angle_pair(rng, n, a, b, [theta])


def _angle_pair(rng, n, a, b, thetas):
    """Orthonormal W1 (n x a) and W2 (n x b), a + b <= n, whose principal
    angles are ``thetas`` (0 for a shared direction) and pi/2 for the other
    min(a, b) - len(thetas)."""
    F = _unitary(rng, n)
    t = len(thetas)
    tilted = F[:, :t] * np.cos(thetas) + F[:, a:a + t] * np.sin(thetas)
    W2 = np.hstack([tilted, F[:, a + t:a + b]]) @ _unitary(rng, b)
    return F[:, :a] @ _unitary(rng, a), W2


def test_stacked_split_matches_frame_inverse():
    rng = np.random.default_rng(2024)
    near = decided = 0
    for trial in range(400):
        n = int(rng.integers(1, 9))
        a, b = (int(v) for v in rng.integers(0, n + 1, size=2))
        theta = None
        if trial % 3 == 0 and a and b and a + b <= n:
            # within a decade of the cutoff, on either side of it
            theta = _cutoff_angle(n) * 10.0 ** (rng.choice([-1, 1]) * rng.uniform(0.1, 1.0))
            near += 1
        W1, W2 = _pair_draw(rng, n, a, b, theta)
        got = _split_along(W1, complement_basis(W2), DEFAULT_TOL)
        want = _frame_inverse_split(W1, W2)
        assert (got is None) == (want is None), (n, a, b, theta)
        if theta is not None:
            assert (got is None) == (theta < _cutoff_angle(n))
        if want is None:
            continue
        decided += 1
        # both are backward stable; the frame's condition number squared
        # bounds the forward error of either
        s = np.linalg.svd(np.hstack([W1, W2]), compute_uv=False)
        cond = s[0] / s[-1] if s.size else 1.0
        assert np.linalg.norm(got - want, 2) <= 1e-13 * n * cond ** 2 * max(1.0, np.linalg.norm(want, 2))
        assert np.linalg.norm(got @ got - got) <= 1e-9 * max(1.0, np.linalg.norm(got, 2)) ** 2
        assert np.linalg.norm(got @ W2) <= 1e-9 * max(1.0, np.linalg.norm(got, 2))
    assert near >= 40 and decided >= 200


def test_stacked_least_singular_value_is_dixmier_gap():
    rng = np.random.default_rng(77)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a = int(rng.integers(1, n))
        b = int(rng.integers(1, n - a + 1))
        W1, W2 = _pair_draw(rng, n, a, b)
        sigma_min = np.linalg.svd(np.hstack([W1, W2]), compute_uv=False)[-1]
        assert abs(1.0 - sigma_min ** 2 - largest_cosine(W1, W2)) <= 1e-12


def test_oblique_projection_threshold_and_excess_dimension():
    rng = np.random.default_rng(5)
    for theta, raises in ((_cutoff_angle(4) / 10.0, True), (_cutoff_angle(4) * 10.0, False)):
        W1, W2 = _pair_draw(rng, 4, 2, 2, theta)
        R, N = Subspace(4, W1), Subspace(4, W2)
        if raises:
            with pytest.raises(NotComplementary):
                oblique_projection(R, N)
        else:
            Q = oblique_projection(R, N)
            assert np.linalg.norm(Q @ W2) <= 1e-9 * np.linalg.norm(Q, 2)
    W1, W2 = _pair_draw(rng, 3, 2, 2)
    assert _split_along(W1, complement_basis(W2), DEFAULT_TOL) is None  # a + b > n: ranges meet


def test_meet_and_join_dimensions_add_up_near_the_cutoff():
    # dim (M ∩ N) + dim (M + N) = dim M + dim N, with one principal angle
    # straddling the meet's cutoff
    rng = np.random.default_rng(1973)
    met = 0
    for _ in range(1200):
        n = int(rng.integers(2, 10))
        a = int(rng.integers(1, n))
        b = int(rng.integers(1, n - a + 1))
        W1, W2 = _angle_pair(rng, n, a, b, [10.0 ** rng.uniform(-11, -7)])
        M, N = Subspace(n, W1), Subspace(n, W2)
        meet = subspace_meet(M, N)
        assert meet.dim + subspace_join(M, N).dim == a + b
        if meet.dim:
            met += 1
            # the meet direction lies within its singular value of M and N
            K = meet.basis
            assert np.linalg.norm(K - M.projection @ K, 2) <= 1e-8
            assert np.linalg.norm(K - N.projection @ K, 2) <= 1e-8
    assert 200 <= met <= 1000


def _unit_scale_factors(A, tol=DEFAULT_TOL):
    spectrum = fundamental_subspaces(A, tol)
    return spectrum.at_scale(spectrum.s.max(initial=1.0), tol)


def _complement_stack_meet(M, N, tol=DEFAULT_TOL):
    """Reference meet: the common null space of [I - P_M; I - P_N], cut off
    at max(1, sigma_max)."""
    eye = np.eye(M.ambient_dim)
    stacked = np.vstack([eye - M.projection, eye - N.projection])
    return Subspace(M.ambient_dim, _unit_scale_factors(stacked, tol).null_basis)


def _deflate(S, K, tol=DEFAULT_TOL):
    """Reference: orthonormal basis of the part of S orthogonal to K."""
    if K.dim == 0:
        return S.basis
    return _unit_scale_factors(S.basis - K.projection @ S.basis, tol).range_basis


def _reference_angles(M, N):
    """Meet dimension, Dixmier and Friedrichs cosines by separate routes: the
    largest cosine of the bases, then of the bases deflated by the meet."""
    dixmier = largest_cosine(M.basis, N.basis)
    K = _complement_stack_meet(M, N)
    if K.dim == 0:
        return 0, dixmier, dixmier
    return K.dim, dixmier, largest_cosine(_deflate(M, K), _deflate(N, K))


def test_angles_and_meet_match_complement_stack_reference():
    rng = np.random.default_rng(1951)
    gap_band = (1e-10, 1e-8)
    in_band = nested = 0
    for trial in range(1500):
        n = int(rng.integers(2, 10))
        angle = None
        if trial % 3 == 0:  # any dimensions, a + b > n included
            M = gen_subspace(n, int(rng.integers(0, n + 1)), rng)
            N = gen_subspace(n, int(rng.integers(0, n + 1)), rng)
            if trial % 2:  # N contains M
                extra = int(rng.integers(0, n - M.dim + 1))
                spanning = np.hstack([M.basis, M.complement().basis[:, :extra]])
                N = Subspace(n, spanning @ _unitary(rng, M.dim + extra))
                nested += 1
        else:  # shared directions, one probe angle, the rest generic
            a = int(rng.integers(1, n))
            b = int(rng.integers(1, n - a + 1))
            shared = int(rng.integers(0, min(a, b)))
            angle = 10.0 ** rng.uniform(-15, -1)
            rest = rng.uniform(0.05, np.pi / 2, size=min(a, b) - shared - 1)
            thetas = np.concatenate([np.zeros(shared), [angle], rest])
            M, N = (Subspace(n, W) for W in _angle_pair(rng, n, a, b, thetas))
        band = angle is not None and gap_band[0] <= angle <= gap_band[1]
        in_band += band
        ref_dim, ref_dixmier, ref_friedrichs = _reference_angles(M, N)
        got = angles(M, N)
        assert abs(got.dixmier_cos - ref_dixmier) <= 1e-12
        if subspace_meet(M, N).dim == ref_dim:
            assert abs(got.friedrichs_cos - ref_friedrichs) <= 1e-12
        else:
            assert band, (n, M.dim, N.dim, angle)
    assert in_band >= 100 and nested >= 200


def test_oblique_projection_and_meet_agree_on_overlap():
    # two planes in C^4 with one principal angle θ above the meet's cutoff
    # but with 1 - cos θ <= eq_rel: the projection exists and the meet is {0}
    rng = np.random.default_rng(4)
    for theta in (1e-8, 1e-6, 4e-5):
        M, N = (Subspace(4, W) for W in _angle_pair(rng, 4, 2, 2, [theta]))
        try:
            oblique_projection(M, N)
            overlapping = False
        except NotComplementary:
            overlapping = True
        assert overlapping == (subspace_meet(M, N).dim > 0), theta


def test_split_projection_and_meet_share_one_overlap_rule():
    # planted least principal angles, log-uniform over the decades around
    # the cutoff and every tenth within a decade of it: the split, the meet
    # and (for complementary dimensions) the oblique projection agree with
    # each other and with the planted angle, outside a 1e-6 relative window
    rng = np.random.default_rng(20)
    near = straddled = complementary = 0
    for trial in range(3000):
        n = int(rng.integers(2, 10))
        a = int(rng.integers(1, n))
        b = int(rng.integers(1, n - a + 1))
        cutoff = _cutoff_angle(n)
        if trial % 10 == 0:
            theta = cutoff * 10.0 ** rng.uniform(-1.0, 1.0)
            near += 1
        else:
            theta = 10.0 ** rng.uniform(-12.0, -3.0)
        rest = rng.uniform(0.05, np.pi / 2, size=min(a, b) - 1)
        W1, W2 = _angle_pair(rng, n, a, b, np.concatenate([[theta], rest]))
        if abs(theta / cutoff - 1.0) <= 1e-6:
            continue
        M, N = Subspace(n, W1), Subspace(n, W2)
        meets = subspace_meet(M, N).dim > 0
        assert meets == (theta < cutoff), (n, a, b, theta)
        assert (_split_along(W1, N.complement().basis, DEFAULT_TOL) is None) == meets
        straddled += meets
        if a + b == n:
            complementary += 1
            try:
                oblique_projection(M, N)
                refused = False
            except NotComplementary:
                refused = True
            assert refused == meets, (n, a, b, theta)
    assert near == 300 and 300 <= straddled <= 2700 and complementary >= 500


def test_dimension_and_projection_errors():
    e1 = Subspace(2, np.eye(2)[:, :1])
    e1_in_3 = Subspace(3, np.eye(3)[:, :1])
    with pytest.raises(DimensionMismatch, match="more basis columns than ambient dimension"):
        Subspace(2, np.eye(3)[:2])
    with pytest.raises(DimensionMismatch, match="projection matrix must be square"):
        Subspace.from_projection(np.eye(3)[:2])
    with pytest.raises(ValueError, match="projection matrix is not idempotent"):
        Subspace.from_projection(np.diag([0.5, 0.0]))
    with pytest.raises(DimensionMismatch, match="vector length != ambient dimension"):
        e1.contains(np.ones((3, 1)))
    with pytest.raises(DimensionMismatch, match="different ambient spaces"):
        e1.equals(e1_in_3)
    with pytest.raises(DimensionMismatch, match="different ambient spaces"):
        oblique_projection(e1, Subspace(3, np.eye(3)[:, 1:]))
