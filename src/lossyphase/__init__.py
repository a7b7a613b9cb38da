"""Phase estimation by the ideal (canonical) measurement under photon loss.

The pipeline: build an input amplitude vector, push it through the
beam-splitter loss channel, and read off the phase distribution, sharpness,
and Holevo variance, either in closed form or through the reduced density
matrix. The sweep module scans photon number to locate the loss-dependent
optimum and the sub-shot-noise operating range.
"""

from .loss import (
    DENSITY_MATRIX_MAX_PHOTONS,
    LossChannel,
    PureLossyState,
    ReducedDensity,
    channel_from_loss,
    pure_lossy_state,
    reduced_density,
)
from .povm import (
    PhaseDistribution,
    PhaseEstimate,
    distribution,
    distribution_from_density,
    holevo,
    lossless_reference,
    sharpness_closed,
)
from .states import MAX_PHOTON_NUMBER, AmplitudeVector, optimal_amplitudes
from .sweep import (
    DEFAULT_MAX_PHOTONS,
    CurvePoint,
    SweepResult,
    curve,
    find_n_opt,
    find_subshot_bound,
    nopt_vs_loss,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeVector",
    "CurvePoint",
    "DEFAULT_MAX_PHOTONS",
    "DENSITY_MATRIX_MAX_PHOTONS",
    "LossChannel",
    "MAX_PHOTON_NUMBER",
    "PhaseDistribution",
    "PhaseEstimate",
    "PureLossyState",
    "ReducedDensity",
    "SweepResult",
    "channel_from_loss",
    "curve",
    "distribution",
    "distribution_from_density",
    "find_n_opt",
    "find_subshot_bound",
    "holevo",
    "lossless_reference",
    "nopt_vs_loss",
    "optimal_amplitudes",
    "pure_lossy_state",
    "reduced_density",
    "sharpness_closed",
]
