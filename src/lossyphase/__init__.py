"""Phase estimation by the ideal (canonical) measurement under photon loss.

The pipeline: build an input amplitude vector, push it through the
beam-splitter loss channel, and read off the phase distribution, sharpness,
and Holevo variance, either in closed form or through the reduced density
matrix. The sweep module scans photon number to locate the loss-dependent
optimum and the sub-shot-noise operating range.

The names of ``__all__`` resolve on first access (PEP 562), so
``import lossyphase`` imports no numpy: ``python -m lossyphase`` can choose
the BLAS thread count in ``__main__`` before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# the public names of each submodule
_SUBMODULE_NAMES = {
    "core": ("MAX_PHOTON_NUMBER", "channel_from_loss"),
    "loss": ("PureLossyState", "ReducedDensity", "pure_lossy_state", "reduced_density"),
    "povm": ("PhaseDistribution", "PhaseEstimate", "distribution", "distribution_from_density",
             "holevo", "lossless_reference", "phase_estimate", "sharpness_closed"),
    "states": ("AmplitudeVector", "optimal_amplitudes"),
    "sweep": ("DEFAULT_MAX_PHOTONS", "CurvePoint", "SweepResult", "curve", "nopt_vs_loss"),
}
_EXPORTS = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
