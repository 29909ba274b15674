"""Pilot-based channel estimation and its closed-form MSE analysis.

Estimation runs in three stages: LMMSE filtering of the least-squares pilot
observations, linear interpolation across subcarriers (with a two-point
linear extrapolation past the last pilot subcarrier), and reuse of the
nearest preceding pilot symbol's estimates on the remaining OFDM symbols.

The closed-form MSE components mirror those stages:

  phi_lmmse    pilot subcarriers on pilot-carrying symbols
  phi_linear   interpolated subcarriers on pilot-carrying symbols
  phi_edge     extrapolated edge subcarriers (diagnostic; the headline
               average folds edge into linear)
  phi_region_a pilot subcarriers on symbols reusing estimates in time
  phi_region_b interpolated subcarriers on reuse symbols
  phi_edge_region_b  extrapolated subcarriers on reuse symbols (diagnostic;
               the headline average folds it into region B)

The classes are those of grid.class_map, and average_mse weights each
component by its class counts over the first pilot window, symbols
1..delta_sym. Where two pilot windows exist (T = 7 under high mobility) the
first stands for the grid: that is an approximation, and sigma_e2 differs
from the average over all K*T elements.

The closed forms treat the pilot-stage estimation error as white with
variance phi_lmmse and independent of the channel. That is exact for the
LMMSE residual variance itself but an approximation for the interpolation
and reuse stages, where the actual LMMSE error is correlated across pilots
and with the channel. measure_mse therefore offers two empirical error
models: 'matched' draws white pilot errors (the analysis's own premise, the
right oracle for validating the formulas) and 'estimator' runs the honest
LMMSE chain (the right view of what a receiver would see). The gap between
them is real and worth knowing about; demos/demo_estimation_mse.py shows it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import as_rng
from .channel import freq_correlation, time_correlation, sample_channel_grids
from .grid import PA, PA_CLASSES, MiniSlotGrid, ReClass, class_counts, class_map

__all__ = [
    "EstimationCollapseError",
    "PilotCovariance",
    "MseBreakdown",
    "MseMeasurement",
    "pilot_covariance",
    "lmmse_estimate",
    "interpolate_linear",
    "phi_lmmse",
    "phi_linear",
    "phi_edge",
    "phi_region_a",
    "phi_region_b",
    "phi_edge_region_b",
    "HEADLINE_PARTS",
    "CLASS_PARTS",
    "average_mse",
    "channel_estimation_mse",
    "effective_snr",
    "measure_mse",
]


class EstimationCollapseError(ValueError):
    """sigma_e^2 >= 1: estimation error swamps the signal, no effective SNR."""


@dataclass(frozen=True)
class PilotCovariance:
    """Channel autocorrelation matrix at the pilot subcarriers.

    R[i, j] = freq_correlation((i - j) * delta_sub); Hermitian PSD with
    trace lambda_p for a unit-power channel. psi holds its eigenvalues.
    """

    R: np.ndarray
    psi: np.ndarray


def pilot_covariance(pdp, n_subcarriers: int, delta_sub: int) -> PilotCovariance:
    if n_subcarriers % delta_sub != 0:
        raise ValueError("delta_sub must divide K")
    n_pilots = n_subcarriers // delta_sub
    lags = (np.arange(n_pilots)[:, None] - np.arange(n_pilots)[None, :]) * delta_sub
    first_col = np.array(
        [
            freq_correlation(int(l * delta_sub), pdp, n_subcarriers)
            for l in range(n_pilots)
        ]
    )
    R = np.empty((n_pilots, n_pilots), dtype=complex)
    R[lags >= 0] = first_col[lags[lags >= 0] // delta_sub]
    R[lags < 0] = np.conj(first_col[-lags[lags < 0] // delta_sub])
    psi = np.linalg.eigvalsh(R)
    if psi.min() < -1e-8 * n_pilots:
        raise ValueError("pilot covariance has a significantly negative eigenvalue")
    return PilotCovariance(R=R, psi=np.maximum(psi, 0.0))


def _lmmse_filter(cov: PilotCovariance, gamma: float) -> np.ndarray:
    """A = R (R + I/gamma)^{-1}; returned so x -> A @ x."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    n = cov.R.shape[0]
    # solve gives (R + I/g)^{-1} R = A^H since both factors are Hermitian
    ah = np.linalg.solve(cov.R + np.eye(n) / gamma, cov.R)
    return ah.conj().T


def lmmse_estimate(ls_estimates, cov: PilotCovariance, gamma: float) -> np.ndarray:
    """LMMSE-filter least-squares pilot observations.

    Accepts one observation vector (lambda_p,) or a batch (n, lambda_p);
    the filter R (R + I/gamma)^{-1} applies along the last axis.
    """
    ls = np.asarray(ls_estimates, dtype=complex)
    filt = _lmmse_filter(cov, gamma)
    return ls @ filt.T


def interpolate_linear(h_pilots, delta_sub: int) -> np.ndarray:
    """Expand pilot-subcarrier estimates to all K = lambda_p * delta_sub bins.

    Interior positions between pilots get the two-point linear interpolation
    ((delta-kd)/delta, kd/delta); the delta_sub - 1 positions past the last
    pilot are extrapolated from the last two pilots with weights
    (-kd/delta, (delta+kd)/delta). Needs lambda_p >= 2. Batched along
    leading axes.
    """
    h = np.asarray(h_pilots, dtype=complex)
    n_pilots = h.shape[-1]
    if n_pilots < 2:
        raise ValueError("edge extrapolation needs at least two pilots")
    delta = int(delta_sub)
    if delta < 1:
        raise ValueError("delta_sub must be >= 1")
    if delta == 1:
        return h.copy()
    K = n_pilots * delta
    out = np.empty(h.shape[:-1] + (K,), dtype=complex)
    out[..., ::delta] = h
    kd = np.arange(1, delta, dtype=float)
    w_left = (delta - kd) / delta
    w_right = kd / delta
    interior = w_left * h[..., :-1, None] + w_right * h[..., 1:, None]
    idx = (np.arange(n_pilots - 1)[:, None] * delta + kd.astype(int)[None, :]).ravel()
    out[..., idx] = interior.reshape(h.shape[:-1] + (idx.size,))
    edge = (-kd / delta) * h[..., -2, None] + ((delta + kd) / delta) * h[..., -1, None]
    out[..., (n_pilots - 1) * delta + kd.astype(int)] = edge
    return out


# ---------------------------------------------------------------------------
# Closed-form MSE components
# ---------------------------------------------------------------------------

def phi_lmmse(cov: PilotCovariance, gamma: float) -> float:
    """Per-pilot LMMSE residual MSE (1/lambda_p) sum psi/(gamma*psi + 1)."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    return float(np.mean(cov.psi / (gamma * cov.psi + 1.0)))


def _re_rho_f(pdp, n_subcarriers, lags) -> np.ndarray:
    return np.array(
        [freq_correlation(int(l), pdp, n_subcarriers).real for l in np.atleast_1d(lags)]
    )


def _interp_constant(delta: int, re_rho_delta: float, phi: float) -> float:
    """The constant term shared by the interpolation-stage MSE formulas:
    (5d-1)/(3d) + ((d+1)/(3d)) Re rho_f(d) + ((2d-1)/(3d)) phi_lmmse."""
    d = float(delta)
    return (5 * d - 1) / (3 * d) + (d + 1) / (3 * d) * re_rho_delta + (2 * d - 1) / (
        3 * d
    ) * phi


def _interp_cross(pdp, n_subcarriers, delta: int) -> np.ndarray:
    """Per-offset cross term ((d-kd)/d) Re rho_f(kd) + (kd/d) Re rho_f(d-kd)."""
    kd = np.arange(1, delta, dtype=float)
    rho_kd = _re_rho_f(pdp, n_subcarriers, kd)
    rho_rev = _re_rho_f(pdp, n_subcarriers, delta - kd)
    return (delta - kd) / delta * rho_kd + kd / delta * rho_rev


def phi_linear(pdp, n_subcarriers: int, delta_sub: int, phi_lmmse_value: float) -> float:
    """Average MSE of the interior linearly interpolated subcarriers."""
    delta = int(delta_sub)
    if delta == 1:
        return 0.0  # no interpolated positions
    rho_delta = float(_re_rho_f(pdp, n_subcarriers, delta)[0])
    const = _interp_constant(delta, rho_delta, phi_lmmse_value)
    cross = _interp_cross(pdp, n_subcarriers, delta)
    return float(const - 2.0 / (delta - 1) * cross.sum())


def phi_edge(pdp, n_subcarriers: int, delta_sub: int, phi_lmmse_value: float) -> float:
    """Average MSE of the edge-extrapolated subcarriers (diagnostic).

    Extrapolation weights a = -kd/d on the second-to-last pilot and
    b = (d+kd)/d on the last; the headline average ignores the difference
    between this and phi_linear, so this stays a side output.
    """
    delta = int(delta_sub)
    if delta == 1:
        return 0.0
    kd = np.arange(1, delta, dtype=float)
    a = -kd / delta
    b = (delta + kd) / delta
    rho_delta = float(_re_rho_f(pdp, n_subcarriers, delta)[0])
    rho_kd = _re_rho_f(pdp, n_subcarriers, kd)
    rho_dk = _re_rho_f(pdp, n_subcarriers, delta + kd)
    per_kd = (
        1.0
        + a * a
        + b * b
        + 2 * a * b * rho_delta
        - 2 * a * rho_dk
        - 2 * b * rho_kd
        + (a * a + b * b) * phi_lmmse_value
    )
    return float(per_kd.mean())


def phi_region_a(doppler, delta_sym: int, phi_lmmse_value: float) -> float:
    """Average MSE at pilot subcarriers on estimate-reuse symbols."""
    d_sym = int(delta_sym)
    if d_sym == 1:
        return float(phi_lmmse_value)  # no reuse symbols exist
    dt = np.arange(1, d_sym)
    rho_t = time_correlation(dt, doppler)
    return float(2.0 + phi_lmmse_value - 2.0 / (d_sym - 1) * rho_t.sum())


def phi_region_b(
    pdp, doppler, n_subcarriers: int, delta_sub: int, delta_sym: int,
    phi_lmmse_value: float,
) -> float:
    """Average MSE at interpolated subcarriers on estimate-reuse symbols.

    Degenerate geometries reduce to the applicable component: no reuse
    symbols -> phi_linear; no interpolated subcarriers -> phi_region_a.
    """
    delta, d_sym = int(delta_sub), int(delta_sym)
    if d_sym == 1 and delta == 1:
        return float(phi_lmmse_value)
    if d_sym == 1:
        return phi_linear(pdp, n_subcarriers, delta, phi_lmmse_value)
    if delta == 1:
        return phi_region_a(doppler, d_sym, phi_lmmse_value)
    rho_delta = float(_re_rho_f(pdp, n_subcarriers, delta)[0])
    const = _interp_constant(delta, rho_delta, phi_lmmse_value)
    cross = _interp_cross(pdp, n_subcarriers, delta)  # (delta-1,)
    rho_t = time_correlation(np.arange(1, d_sym), doppler)  # (d_sym-1,)
    double_sum = float(np.outer(rho_t, cross).sum())
    return float(const - 2.0 / ((d_sym - 1) * (delta - 1)) * double_sum)


def phi_edge_region_b(
    pdp, doppler, n_subcarriers: int, delta_sub: int, delta_sym: int,
    phi_lmmse_value: float,
) -> float:
    """Edge-extrapolated subcarriers on reuse symbols (diagnostic).

    Same structure as phi_edge with the pilot-to-target cross terms scaled
    by the time correlation; the pilot-to-pilot term is not, both pilots
    living on the same symbol.
    """
    delta, d_sym = int(delta_sub), int(delta_sym)
    if delta == 1:
        return phi_region_a(doppler, d_sym, phi_lmmse_value)
    if d_sym == 1:
        return phi_edge(pdp, n_subcarriers, delta, phi_lmmse_value)
    kd = np.arange(1, delta, dtype=float)
    a = -kd / delta
    b = (delta + kd) / delta
    rho_delta = float(_re_rho_f(pdp, n_subcarriers, delta)[0])
    rho_kd = _re_rho_f(pdp, n_subcarriers, kd)
    rho_dk = _re_rho_f(pdp, n_subcarriers, delta + kd)
    rho_t = time_correlation(np.arange(1, d_sym), doppler)
    per = (
        1.0
        + a * a
        + b * b
        + 2 * a * b * rho_delta
        + (a * a + b * b) * phi_lmmse_value
        - 2.0 * rho_t[:, None] * (a * rho_dk + b * rho_kd)
    )
    return float(per.mean())


# A part is a tuple of PA classes weighted by one closed-form component:
# the MSE of its first class. The headline sigma_e2 folds each edge class
# into the interpolation component of its symbol; CLASS_PARTS keeps every
# class apart.
HEADLINE_PARTS = (
    (ReClass.PILOT,),
    (ReClass.LINEAR_DATA, ReClass.EDGE_DATA),
    (ReClass.REGION_A,),
    (ReClass.REGION_B, ReClass.EDGE_REGION_B),
)
CLASS_PARTS = tuple((c,) for c in PA_CLASSES)
# the MseBreakdown and MseMeasurement field of each class's MSE
_PHI_FIELD = {
    ReClass.PILOT: "phi_lmmse", ReClass.LINEAR_DATA: "phi_linear",
    ReClass.EDGE_DATA: "phi_edge", ReClass.REGION_A: "phi_a",
    ReClass.REGION_B: "phi_b", ReClass.EDGE_REGION_B: "phi_edge_b",
}


def average_mse(grid: MiniSlotGrid, phi: dict, parts=HEADLINE_PARTS):
    """Average of the per-class MSEs phi (ReClass -> value) over the first
    pilot window, symbols 1..delta_sym of class_map(grid, PA).

    Each part weighs the MSE of its first class by the summed count of its
    classes, and the terms add in the order of parts. For T = 7 under high
    mobility (windows of 4 and 3 symbols) this differs from the average over
    the whole grid: the first window stands for both. The values may be
    arrays, as measure_mse's per-realization class means are.
    """
    if grid.pattern is None:
        raise ValueError("average_mse needs a pilot pattern")
    counts = class_counts(grid, PA, grid.pattern.delta_sym)
    weights = [sum(counts[c] for c in part) for part in parts]
    return sum(n * phi[part[0]] for n, part in zip(weights, parts)) / sum(weights)


@dataclass(frozen=True)
class MseBreakdown:
    """Closed-form MSE components and their first-window averages.

    sigma_e2 is the headline average (HEADLINE_PARTS: edge folded into the
    interpolation components). sigma_e2_grid keeps every class apart
    (CLASS_PARTS), which makes it the exact grid average for the
    single-window geometries.
    """

    phi_lmmse: float
    phi_linear: float
    phi_a: float
    phi_b: float
    sigma_e2: float
    phi_edge: float
    phi_edge_b: float
    sigma_e2_grid: float


def channel_estimation_mse(pdp, doppler, grid: MiniSlotGrid, gamma: float) -> MseBreakdown:
    """All closed-form components plus the first-window averages for one
    geometry."""
    pattern = grid.pattern
    if pattern is None:
        raise ValueError("channel estimation needs a pilot pattern")
    K, delta, d_sym = grid.n_subcarriers, pattern.delta_sub, pattern.delta_sym
    phi = phi_lmmse(pilot_covariance(pdp, K, delta), gamma)
    by_class = {
        ReClass.PILOT: phi,
        ReClass.LINEAR_DATA: phi_linear(pdp, K, delta, phi),
        ReClass.EDGE_DATA: phi_edge(pdp, K, delta, phi),
        ReClass.REGION_A: phi_region_a(doppler, d_sym, phi),
        ReClass.REGION_B: phi_region_b(pdp, doppler, K, delta, d_sym, phi),
        ReClass.EDGE_REGION_B: phi_edge_region_b(pdp, doppler, K, delta, d_sym, phi),
    }
    return MseBreakdown(
        **{_PHI_FIELD[c]: v for c, v in by_class.items()},
        sigma_e2=float(average_mse(grid, by_class)),
        sigma_e2_grid=float(average_mse(grid, by_class, CLASS_PARTS)),
    )


def effective_snr(sigma_e2: float, sigma_w2: float) -> float:
    """Post-estimation SNR (1 - sigma_e^2) / (sigma_e^2 + sigma_w^2).

    Estimation error eats signal power and adds interference; sigma_e^2 = 0
    returns exactly 1/sigma_w^2 = gamma.
    """
    if sigma_w2 <= 0.0:
        raise ValueError("sigma_w^2 must be positive")
    if sigma_e2 < 0.0:
        raise ValueError("sigma_e^2 must be nonnegative")
    if sigma_e2 >= 1.0:
        raise EstimationCollapseError(
            f"sigma_e^2 = {sigma_e2:.4f} >= 1: estimates carry no signal"
        )
    return (1.0 - sigma_e2) / (sigma_e2 + sigma_w2)


# ---------------------------------------------------------------------------
# Empirical counterparts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MseMeasurement:
    """Empirical per-class MSE means with standard errors.

    sigma_e2 recombines the class means with average_mse's headline parts
    and weights; sigma_e2_grid is the straight average over all K*T grid
    positions (the true geometry, edge classes included).
    """

    phi_lmmse: float
    phi_lmmse_se: float
    phi_linear: float
    phi_linear_se: float
    phi_edge: float
    phi_edge_se: float
    phi_a: float
    phi_a_se: float
    phi_b: float
    phi_b_se: float
    phi_edge_b: float
    phi_edge_b_se: float
    sigma_e2: float
    sigma_e2_se: float
    sigma_e2_grid: float
    sigma_e2_grid_se: float
    n_realizations: int
    error_model: str


def measure_mse(
    pdp,
    doppler,
    grid: MiniSlotGrid,
    gamma: float,
    n_realizations: int,
    seed,
    error_model: str = "matched",
    chunk: int = 10_000,
) -> MseMeasurement:
    """Monte Carlo MSE per resource-element class of class_map(grid, PA).

    The pilot-stage class (phi_lmmse) always runs the honest LS -> LMMSE
    chain; its residual variance is phi_lmmse exactly, no modeling gap
    there. Downstream interpolation/reuse classes use the requested error
    model: 'matched' replaces the pilot error with white noise of variance
    phi_lmmse (the closed forms' premise), 'estimator' feeds the honest
    LMMSE estimates through instead.

    Each class is averaged per realization, then across realizations, which
    gives clean independent-sample standard errors.
    """
    if error_model not in ("matched", "estimator"):
        raise ValueError("error_model must be 'matched' or 'estimator'")
    pattern = grid.pattern
    if pattern is None:
        raise ValueError("measure_mse needs a pilot pattern")
    K, T = grid.n_subcarriers, grid.n_symbols
    delta = pattern.delta_sub
    pilots = list(pattern.pilot_symbols)
    cov = pilot_covariance(pdp, K, delta)
    phi = phi_lmmse(cov, gamma)
    filt = _lmmse_filter(cov, gamma)
    rng = as_rng(seed)

    cmap = class_map(grid, PA)
    pilot_k = np.flatnonzero(cmap[:, pilots[0] - 1] == ReClass.PILOT)
    lam = pilot_k.size
    # nearest preceding pilot symbol of every symbol
    window_of = {
        t: max(s for s in pilots if s <= t) for t in range(1, T + 1)
    }

    # the data classes this grid has; the pilot class is measured on the
    # LMMSE stage itself, not on the interpolated grid
    masks = {c: cmap == c for c in PA_CLASSES[1:] if np.any(cmap == c)}
    per_class = {c: [] for c in (ReClass.PILOT, *masks)}
    grid_avg = []
    done = 0
    while done < n_realizations:
        n = min(chunk, n_realizations - done)
        H, _ = sample_channel_grids(pdp, doppler, K, T, n, rng)
        # honest pilot estimation at each pilot symbol
        err_l = []
        est_by_sym = {}
        for tp in pilots:
            h_p = H[:, pilot_k, tp - 1]  # (n, lam)
            noise = (
                rng.standard_normal((n, lam)) + 1j * rng.standard_normal((n, lam))
            ) * np.sqrt(0.5 / gamma)
            h_lmmse = (h_p + noise) @ filt.T
            err_l.append(np.abs(h_lmmse - h_p) ** 2)
            if error_model == "matched":
                e = (
                    rng.standard_normal((n, lam)) + 1j * rng.standard_normal((n, lam))
                ) * np.sqrt(phi / 2.0)
                est_by_sym[tp] = h_p + e
            else:
                est_by_sym[tp] = h_lmmse
        per_class[ReClass.PILOT].append(np.mean(np.concatenate(err_l, axis=1), axis=1))

        full_by_sym = {tp: interpolate_linear(est_by_sym[tp], delta) for tp in pilots}
        sq = np.empty((n, K, T))
        for t in range(1, T + 1):
            sq[:, :, t - 1] = np.abs(full_by_sym[window_of[t]] - H[:, :, t - 1]) ** 2
        for c, mask in masks.items():
            per_class[c].append(sq[:, mask].mean(axis=1))
        grid_avg.append(sq.mean(axis=(1, 2)))
        done += n

    def reduce(x):
        return float(x.mean()), float(x.std(ddof=1) / np.sqrt(x.size))

    # per-realization class means; a class the grid lacks reads nan and
    # weighs 0 in the headline recombination
    means = {c: np.concatenate(v) for c, v in per_class.items()}
    fields = {}
    for c, name in _PHI_FIELD.items():
        fields[name], fields[name + "_se"] = reduce(means[c]) if c in means else (np.nan, np.nan)
    fields["sigma_e2"], fields["sigma_e2_se"] = reduce(
        average_mse(grid, {c: means.get(c, 0.0) for c in PA_CLASSES}))
    fields["sigma_e2_grid"], fields["sigma_e2_grid_se"] = reduce(np.concatenate(grid_avg))
    return MseMeasurement(**fields, n_realizations=n_realizations, error_model=error_model)
