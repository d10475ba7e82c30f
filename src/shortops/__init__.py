"""Bilateral shorted operators, parallel sums and the minus order.

Dense complex matrices stand in for bounded operators between
finite-dimensional Hilbert spaces; subspaces are orthonormal column bases.
The package computes generalized Schur complements relative to a pair of
subspaces, the parallel sum/subtraction calculus built on them, and the minus
partial order, together with a randomized suite certifying their expected
identities.
"""

import importlib

from .douglas import ReducedSolution, range_leq, range_residual, reduced_solution
from .errors import (
    BadAuxiliary,
    BadDims,
    DimensionMismatch,
    EscalationExhausted,
    NotComplementable,
    NotComplementary,
    NotInDA,
    NotPSD,
    NotSummable,
    RangeNotIncluded,
    ShortopsError,
    ZeroOperator,
)
from .geometry import (
    AnglePair,
    Subspace,
    angles,
    oblique_projection,
    ortho_projection,
    subspace_join,
    subspace_meet,
)
from .minusorder import MinusVerdict, in_minus_set, minus_leq
from .numcore import (
    DEFAULT_TOL,
    FundamentalSubspaces,
    Tolerance,
    as_operator,
    fundamental_subspaces,
    opnorm,
    pinv,
    polar,
    rank,
    sqrt_abs,
    sqrt_abs_adjoint,
    sqrt_psd,
)
from .parallel import (
    ConvergenceRecord,
    ParallelSumResult,
    SummabilityReport,
    in_da,
    parallel_subtract,
    parallel_sum,
    recover_shorted,
    shorted_via_limit,
    summability,
)
from .shorting import (
    BlockDecomposition,
    ComplementabilityReport,
    ShortedResult,
    block_decompose,
    complementability,
    schur_compression,
    shorted,
    solve_shorting_direction,
)

__version__ = "0.1.0"

# The suite module and its re-exports load on first access (PEP 562), so a
# process that only computes does not compile the suite.
_GENLAB_EXPORTS = frozenset({
    "GenConfig",
    "SuiteReport",
    "gauss",
    "gen_complementable",
    "gen_da_member",
    "gen_subspace",
    "gen_with_ranges",
    "run_suite",
})


def __getattr__(name):
    if name != "genlab" and name not in _GENLAB_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    genlab = importlib.import_module(".genlab", __name__)
    value = genlab if name == "genlab" else getattr(genlab, name)
    globals()[name] = value
    return value
