"""Atom-pseudomode dynamics, monitored-emission trajectories, and
spectral detection of non-Markovian dynamics."""

__version__ = "0.1.0"

from .dynamics import (AmplitudeSeries, FluxSeries, ModelParams,
                       StepTooLargeWarning, amplitude_derivatives,
                       amplitude_series, amplitudes_analytic, amplitudes_ode,
                       flux_at, photon_flux_analytic, splitting, time_grid)
from .nonmarkov import (BoundaryCurve, NMResult, SignMap,
                        UnsupportedInitialState, is_nonmarkovian,
                        markovian_boundary, mode_gain_values, nm_measure,
                        sigma_positive, sigma_values, sign_map)
from .spectrum import (EmptyRegion, NoSignal, PeakEstimate, RegionVerdict,
                       SpectrumResult, ThresholdFrequency, classify,
                       coherent_frequency, detrend, dft, dominant_peak,
                       threshold_frequency)
from .sweep import (RegionMap, SweepConfig, UnknownFigure, figure_datasets,
                    run_sweep)
from .trajectories import (GridMismatch, InvalidBinning, JumpRecord,
                           PartialBinWarning, ResidualStats,
                           TrajectoryOutcome, analytic_flux_at_bins,
                           estimate_flux, flux_residual_stats,
                           sample_jump_times, simulate_trajectory,
                           survival_at, trajectory_seed)

__all__ = [
    "AmplitudeSeries", "BoundaryCurve", "EmptyRegion", "FluxSeries",
    "GridMismatch", "InvalidBinning", "JumpRecord", "ModelParams",
    "NMResult", "NoSignal", "PeakEstimate", "RegionMap", "RegionVerdict",
    "ResidualStats", "SignMap", "SpectrumResult", "StepTooLargeWarning",
    "SweepConfig", "ThresholdFrequency", "TrajectoryOutcome",
    "UnknownFigure", "UnsupportedInitialState", "amplitude_derivatives",
    "amplitude_series", "amplitudes_analytic", "amplitudes_ode",
    "analytic_flux_at_bins", "classify", "coherent_frequency", "detrend",
    "dft", "dominant_peak", "estimate_flux", "figure_datasets", "flux_at",
    "flux_residual_stats", "is_nonmarkovian", "markovian_boundary",
    "mode_gain_values", "nm_measure", "photon_flux_analytic", "run_sweep",
    "sample_jump_times", "sigma_positive", "sigma_values", "sign_map",
    "simulate_trajectory", "splitting", "survival_at",
    "threshold_frequency", "time_grid", "trajectory_seed", "__version__",
]
