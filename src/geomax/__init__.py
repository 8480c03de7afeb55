"""Turn-count distribution of the dice elimination game.

n dice with s faces are rolled once per turn; every die showing the
current dice count is removed, and the game ends when none remain. The
number of turns equals the maximum of n geometric variables with success
probability 1/s. This package evaluates its distribution and moments by
four mutually checking routes (closed alternating sums, positive series,
Markov recursions, matrix powers), provides proved bounds, and ships a
seeded simulator for the game itself.
"""

from .bounds import (
    BoundReport,
    ev_bound_pairing,
    ev_bounds_elementary,
    pair_expected_value,
    second_moment_bounds_elementary,
    var_bound_sum,
    var_bounds_elementary,
)
from .chain import (
    AbsorptionProfile,
    TransitionMatrix,
    absorption_cdf_profile,
    build_transition_matrix,
    second_moments_recursive,
)
from .kernels import (
    tail_bound_max_geom,
    tail_bound_weighted_max_geom,
    weighted_geom_sum_first,
    weighted_geom_sum_second,
)
from .moments import cdf, pmf, quantile
from .params import (
    EXACT,
    FLOAT,
    CancellationError,
    GameNotFinishedError,
    GameParams,
    MomentReport,
    NumericMode,
)
from .report import (
    CANCELLATION_TOLERANCE,
    expected_value_closed,
    expected_value_series,
    moment_report,
    second_moment_closed,
    second_moment_series,
    variance_closed,
)
from .simulate import (
    CHUNK_TRIALS,
    GameRecord,
    McEstimate,
    enumerate_signatures,
    is_valid_signature,
    ks_critical_value,
    ks_statistic,
    monte_carlo_moments,
    play_game,
    signature_frequencies,
    turn_count_histogram,
)

__version__ = "0.1.0"

__all__ = [
    "AbsorptionProfile",
    "BoundReport",
    "CANCELLATION_TOLERANCE",
    "CHUNK_TRIALS",
    "CancellationError",
    "EXACT",
    "FLOAT",
    "GameNotFinishedError",
    "GameParams",
    "GameRecord",
    "McEstimate",
    "MomentReport",
    "NumericMode",
    "TransitionMatrix",
    "absorption_cdf_profile",
    "build_transition_matrix",
    "cdf",
    "enumerate_signatures",
    "ev_bound_pairing",
    "ev_bounds_elementary",
    "expected_value_closed",
    "expected_value_series",
    "is_valid_signature",
    "ks_critical_value",
    "ks_statistic",
    "moment_report",
    "monte_carlo_moments",
    "pair_expected_value",
    "play_game",
    "pmf",
    "quantile",
    "second_moment_bounds_elementary",
    "second_moment_closed",
    "second_moment_series",
    "second_moments_recursive",
    "signature_frequencies",
    "tail_bound_max_geom",
    "tail_bound_weighted_max_geom",
    "turn_count_histogram",
    "var_bound_sum",
    "var_bounds_elementary",
    "variance_closed",
    "weighted_geom_sum_first",
    "weighted_geom_sum_second",
]
