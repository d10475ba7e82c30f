"""Per-call views of the census, and the counts it does not hold.

Each test checks the census entries of its call (``tests/_census.py``)
against tests/golden/census.json.  The tests that count for themselves pin
structure, not totals: the order of the checks and the per-object frame
cache.
"""

import numpy as np
import pytest

from shortops import BadAuxiliary, NotComplementable, Subspace, complementability
from shortops import recover_shorted, shorted
from shortops.genlab import gen_complementable

from _census import _not_complementable, check, record


def test_parallel_sum_2x2():
    check("parallel_sum 2x2")


def test_shorted_2x2():
    check("shorted 2x2 README")


def test_shorted_64x64():
    check("shorted 64x64")


@pytest.mark.parametrize("source", ["from_spanning", "range_of", "gen_complementable"])
def test_framed_subspaces_take_no_complement_qr(source):
    check(rf"(block_decompose|shorted) 6x6 framed by {source}")


def test_caller_built_subspace_takes_one_qr_per_frame():
    check("(block_decompose|shorted) 6x6 caller-built S")
    # a caller's basis is completed once per Subspace object
    A, S, T = gen_complementable(6, 6, 3, 3, 2, np.random.default_rng(0))
    built_S, built_T = Subspace(6, S.basis), Subspace(6, T.basis)
    with record() as first:
        shorted(A, built_S, built_T)
    with record() as second:
        shorted(A, built_S, built_T)
    assert second["qr"] == 0 < first["qr"]


def test_complement_frame_takes_no_qr():
    check(r"Subspace\.complement ")


def test_minus_leq_3x3():
    check("minus_leq 3x3")


def test_minus_leq_64x64_split_sizes():
    check("minus_leq 64x64")


def test_oblique_projection_4x4():
    check("oblique_projection ")


def test_angles_with_a_1dim_meet():
    check("angles 4x4")


def test_subspace_meet_1dim():
    check("subspace_meet 4x4")


def test_complementability_report_4x4():
    check("complementability 4x4")


def test_parallel_sum_64x64():
    check("parallel_sum 64x64")


def test_parallel_subtract_64x64():
    check("parallel_subtract 64x64")


def test_in_da_stops_before_factoring_d():
    check("in_da 3x3")


def test_recover_shorted_64x64():
    check("recover_shorted 64x64")


def test_recover_shorted_decides_complementability_in_the_auxiliary_frames():
    check(r"recover_shorted \S+ NotComplementable")
    A, S, T, L = _not_complementable()
    with pytest.raises(NotComplementable) as info:
        recover_shorted(A, S, T, L, 1)
    got, want = info.value.report, complementability(A, S, T)
    assert (got.weakly, got.strongly) == (want.weakly, want.strongly) == (False, False)


def test_recover_shorted_checks_the_auxiliary_before_complementability():
    # an invalid L and a triple that is not complementable: BadAuxiliary,
    # from L's SVD, before the 2x2 corner is factored
    A, S, T, _ = _not_complementable()
    with record() as calls, pytest.raises(BadAuxiliary):
        recover_shorted(A, S, T, np.eye(4), 1)
    assert "2x2" not in calls.svd_shapes


def test_shorted_via_limit_64x64():
    check("shorted_via_limit 64x64")


# frames give the complements; no witness is multiplied out unread
_NO_BUILDS = {
    "shorted": r"shorted \d+x\d+$",
    "complementability": r"complementability \d+x\d+$",
    "complementability-false": r"complementability \S+ rejected$",
    "recover_shorted": r"recover_shorted \d+x\d+$",
    "shorted_via_limit": r"shorted_via_limit \d+x\d+$",
}


@pytest.mark.parametrize("name", list(_NO_BUILDS))
def test_shorting_routes_build_no_subspace_and_no_block_matrix(name):
    check(_NO_BUILDS[name])


def test_summability_8x8():
    check("summability 8x8")


def test_schur_compression_3x3():
    check("schur_compression ")


def test_gen_da_member_4x4():
    check(r"genlab\.gen_da_member ")


def test_random_idempotent_takes_one_svd():
    check(r"genlab\._random_idempotent ")


def test_shorted_range_nullspace_ok_6x6():
    check(r"genlab\.shorted_range_nullspace_ok ")


def test_minus_route_agreement_trials():
    check("genlab:minus-route-agreement ")


def test_reduced_solution_minimal_norm_trials():
    check("genlab:reduced-solution-minimal-norm ")


def test_limit_convergence_trials():
    check("genlab:limit-convergence ")
