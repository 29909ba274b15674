"""Finite-blocklength link analysis for mini-slot OFDM.

Short-packet transmission inside a handful of OFDM symbols leaves little
room for pilots, which makes the classic trade between pilot-assisted
coherent reception and differential (frequency- or time-direction)
signalling sharp enough to matter. This package computes both sides of
that trade: channel-estimation MSE and the effective SNR it implies,
mismatched information density statistics for the differential equivalent
channel, normal-approximation block error rates, and the converse/achievability
bounds that sandwich them, computed from the law of the information density
with Monte Carlo estimators as their reference. A small CLI drives
parameter sweeps, scheme selection and Doppler crossover searches from
JSON scenarios.
"""

import importlib

from .channel import (
    ChannelGrid,
    DopplerSpec,
    PowerDelayProfile,
    exponential_pdp,
    freq_correlation,
    sample_channel_grid,
    sample_channel_grids,
    time_correlation,
)
from .grid import (
    FDDI,
    MINI_SLOT_LENGTHS,
    PA,
    SCHEMES,
    TDDI,
    Constellation,
    MiniSlotGrid,
    PilotPattern,
    ReClass,
    class_map,
    data_symbol_count,
    default_constellation,
    psk,
    qam,
    standard_pattern,
)
from .modem import (
    DegenerateEstimateError,
    DiffDecision,
    RxGrid,
    SymbolGrid,
    coherent_detect,
    differential_detect,
    differential_encode,
    fast_rx,
    ofdm_time_domain_chain,
)
from .chanest import (
    EstimationCollapseError,
    MseBreakdown,
    MseMeasurement,
    average_mse,
    channel_estimation_mse,
    effective_snr,
    interpolate_linear,
    lmmse_estimate,
    measure_mse,
    mse_map,
    phi_lmmse,
    pilot_spectrum,
)
from .fbl import (
    DiffChannelParams,
    EquivalentChannel,
    FblResult,
    InfeasiblePayloadError,
    IvEstimate,
    ModelFidelityWarning,
    awgn_capacity_dispersion,
    channel_fbl,
    coherent_capacity_dispersion,
    coherent_quadrature_iv,
    diff_capacity_dispersion,
    diff_quadrature_iv,
    diff_transition_logpdf,
    equivalent_channel,
    fddi_correlation,
    feasible_blocklength,
    normal_approx_bler,
    normal_approx_log_bler,
    PerUseLaw,
    sample_coherent_density,
    sample_diff_density,
    scheme_fbl,
    tddi_correlation,
)
from .bounds import (
    BoundEstimate,
    block_density_samples,
    dt_upper_bound,
    is_lower_bound,
    lattice_bounds,
)

__version__ = "0.1.0"

# The CLI loads on first use (__getattr__ below), so that
# `python -m minislot.cli` runs a module the package import has not already
# executed.
_CLI_NAMES = (
    "ConfigError", "Recommendation", "Scenario", "doppler_crossover",
    "run_sweep", "select_scheme",
)

__all__ = [
    "__version__",
    # channel
    "ChannelGrid", "DopplerSpec", "PowerDelayProfile", "exponential_pdp",
    "freq_correlation", "sample_channel_grid", "sample_channel_grids",
    "time_correlation",
    # grid
    "FDDI", "MINI_SLOT_LENGTHS", "PA", "SCHEMES", "TDDI", "Constellation",
    "MiniSlotGrid", "PilotPattern", "ReClass", "class_map",
    "data_symbol_count", "default_constellation", "psk", "qam", "standard_pattern",
    # modem
    "DegenerateEstimateError", "DiffDecision", "RxGrid", "SymbolGrid",
    "coherent_detect", "differential_detect", "differential_encode",
    "fast_rx", "ofdm_time_domain_chain",
    # chanest
    "EstimationCollapseError", "MseBreakdown", "MseMeasurement",
    "average_mse", "channel_estimation_mse",
    "effective_snr", "interpolate_linear", "lmmse_estimate", "measure_mse",
    "mse_map", "phi_lmmse", "pilot_spectrum",
    # fbl
    "DiffChannelParams", "EquivalentChannel", "FblResult",
    "InfeasiblePayloadError", "IvEstimate", "ModelFidelityWarning",
    "PerUseLaw", "awgn_capacity_dispersion", "channel_fbl",
    "coherent_capacity_dispersion", "coherent_quadrature_iv",
    "diff_capacity_dispersion", "diff_quadrature_iv",
    "diff_transition_logpdf", "equivalent_channel", "fddi_correlation",
    "feasible_blocklength",
    "normal_approx_bler",
    "normal_approx_log_bler",
    "sample_coherent_density", "sample_diff_density", "scheme_fbl",
    "tddi_correlation",
    # bounds
    "BoundEstimate", "block_density_samples", "dt_upper_bound",
    "is_lower_bound", "lattice_bounds",
    # cli
    *_CLI_NAMES,
]


def __getattr__(name):
    if name == "cli" or name in _CLI_NAMES:
        cli = importlib.import_module(".cli", __name__)
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
