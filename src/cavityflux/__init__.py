"""Atom-pseudomode dynamics, monitored-emission trajectories, and
spectral detection of non-Markovian dynamics."""

__version__ = "0.1.0"

from .dynamics import (AmplitudeSeries, FluxSeries, ModelParams,
                       amplitude_series, amplitudes_analytic, flux_at,
                       photon_flux_analytic, splitting, time_grid)
from .nonmarkov import (BoundaryCurve, NMResult, SignMap,
                        UnsupportedInitialState, markovian_boundary,
                        nm_measure, sigma_positive, sigma_values, sign_map)
from .spectrum import (EmptyRegion, NoSignal, PeakEstimate, RegionVerdict,
                       SpectrumResult, ThresholdFrequency, classify,
                       coherent_frequency, detrend, dft, dominant_peak,
                       threshold_frequency)
from .sweep import (RegionMap, SweepConfig, UnknownFigure, figure_datasets,
                    run_sweep)
from .trajectories import (GridMismatch, InvalidBinning, JumpRecord,
                           PartialBinWarning, ResidualStats,
                           analytic_flux_at_bins, estimate_flux,
                           flux_residual_stats, sample_jump_times,
                           survival_at)

__all__ = [
    "AmplitudeSeries", "BoundaryCurve", "EmptyRegion", "FluxSeries",
    "GridMismatch", "InvalidBinning", "JumpRecord", "ModelParams",
    "NMResult", "NoSignal", "PeakEstimate", "RegionMap", "RegionVerdict",
    "ResidualStats", "SignMap", "SpectrumResult", "SweepConfig",
    "ThresholdFrequency", "UnknownFigure", "UnsupportedInitialState",
    "amplitude_series", "amplitudes_analytic",
    "analytic_flux_at_bins", "classify", "coherent_frequency", "detrend",
    "dft", "dominant_peak", "estimate_flux", "figure_datasets", "flux_at",
    "flux_residual_stats", "markovian_boundary", "nm_measure",
    "photon_flux_analytic", "run_sweep", "sample_jump_times",
    "sigma_positive", "sigma_values", "sign_map",
    "splitting", "survival_at", "threshold_frequency", "time_grid",
    "__version__",
]
