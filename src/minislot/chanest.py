"""Pilot-based channel estimation and its closed-form MSE.

Estimation runs in three stages: LMMSE filtering of the least-squares pilot
observations, two-pilot linear interpolation across subcarriers (extrapolated
from the last two pilots past the last pilot subcarrier), and reuse of the
nearest preceding pilot symbol's estimates on the remaining OFDM symbols
(grid.source_pilot_symbols). One weight table states the interpolation:
subcarrier k is estimated as a h_p[j] + b h_p[j + 1] from pilots j and j + 1.
interpolate_linear applies it and mse_map reads it.

The pilot covariance is circulant, so one spectrum states the LMMSE stage:
pilot_spectrum's psi, lambda_p times the tap powers aliased modulo lambda_p.
The filter is the gain psi / (psi + 1/gamma) per DFT bin of the pilot
observations, and its per-pilot residual is phi = mean(psi / (gamma psi + 1)).
With the pilot estimates taken as the channel plus white errors of variance
phi, element (k, t) has

  MSE = 1 + a^2 + b^2 + 2ab Re rho_f(delta) + (a^2 + b^2) phi
        - 2 rho_t(dt) (a Re rho_f(u) + b Re rho_f(u - delta)),

where u = k - j delta is the offset from pilot j and dt the lag of symbol t
behind the pilot symbol it reuses; pilots read phi itself. Each MseBreakdown
component is the mean of this map over one class of grid.class_map on the
first pilot window, the symbols whose source_pilot_symbols entry is 1;
sigma_e2 weights them by that window's class counts, and sigma_e2_grid is
the map's mean over all K*T elements. measure_mse reduces its squared errors
over the same window with the same class means, written as one weight
matrix (_window_weights).

measure_mse is a Monte Carlo reference, and its cost is memory traffic, not
arithmetic. It keeps its random stream per chunk of _MSE_CHUNK realizations
and runs the estimation chain on blocks of about _MSE_BLOCK grid elements,
laid out (realization, symbol, subcarrier), so that each stage's
temporaries stay in cache instead of passing over a whole chunk's grid.

The white-error premise is exact for the LMMSE residual variance itself but
an approximation for the interpolation and reuse stages, where the actual
LMMSE error is correlated across pilots and with the channel. measure_mse
therefore offers two empirical error models: 'matched' draws white pilot
errors (the analysis's own premise, the right oracle for validating the
formulas) and 'estimator' runs the honest LMMSE chain (the right view of what
a receiver would see). The gap between them is real and worth knowing about;
demos/demo_estimation_mse.py shows it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import as_rng
from .channel import _draw_taps, freq_correlation, time_correlation
from .grid import (
    PA,
    PA_CLASSES,
    MiniSlotGrid,
    ReClass,
    class_map,
    source_pilot_symbols,
)

__all__ = [
    "EstimationCollapseError",
    "MseBreakdown",
    "MseMeasurement",
    "pilot_spectrum",
    "lmmse_estimate",
    "interpolate_linear",
    "phi_lmmse",
    "mse_map",
    "HEADLINE_PARTS",
    "average_mse",
    "channel_estimation_mse",
    "effective_snr",
    "measure_mse",
]


class EstimationCollapseError(ValueError):
    """sigma_e^2 >= 1: estimation error swamps the signal, no effective SNR."""


def pilot_spectrum(pdp, n_subcarriers: int, delta_sub: int) -> np.ndarray:
    """Spectrum psi of the channel autocorrelation at the lambda_p =
    K / delta_sub pilot subcarriers, R[i, j] = rho_f((i - j) delta_sub).

    R depends on i - j only modulo lambda_p, so it is circulant and psi is
    lambda_p times the tap powers aliased modulo lambda_p: entry l holds the
    taps l mod lambda_p (trace lambda_p).
    """
    if n_subcarriers % delta_sub != 0:
        raise ValueError("delta_sub must divide K")
    lam, taps = n_subcarriers // delta_sub, pdp.taps
    return lam * np.bincount(np.arange(taps.size) % lam, weights=taps, minlength=lam)


def lmmse_estimate(ls_estimates, pdp, delta_sub: int, gamma: float) -> np.ndarray:
    """LMMSE-filter least-squares pilot observations, R (R + I/gamma)^{-1} x.

    Accepts one observation vector (lambda_p,) or a batch (n, lambda_p) and
    filters along the last axis. R is circulant, so the filter is the gain
    psi / (psi + 1/gamma) per DFT bin; bin q carries psi[-q mod lambda_p].
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    ls = np.asarray(ls_estimates, dtype=complex)
    lam = ls.shape[-1]
    psi = pilot_spectrum(pdp, lam * delta_sub, delta_sub)
    gain = psi / (psi + 1.0 / gamma)
    return np.fft.ifft(np.fft.fft(ls, axis=-1) * gain[-np.arange(lam) % lam], axis=-1)


def _interp_weights(n_pilots: int, delta_sub: int):
    """The interpolation stage as a table over the K = n_pilots * delta_sub
    subcarriers: h[k] = a[k] h_p[j[k]] + b[k] h_p[j[k] + 1].

    Pilot pair j encloses k, or is the last pair past the last pilot; with
    u = k - j delta the offset from pilot j, a = (delta - u) / delta and
    b = u / delta put k on the line through the two pilots.
    """
    if n_pilots < 2:
        raise ValueError("edge extrapolation needs at least two pilots")
    delta = int(delta_sub)
    if delta < 1:
        raise ValueError("delta_sub must be >= 1")
    k = np.arange(n_pilots * delta)
    j = np.minimum(k // delta, n_pilots - 2)
    u = k - j * delta
    return j, (delta - u) / delta, u / delta


def interpolate_linear(h_pilots, delta_sub: int) -> np.ndarray:
    """Expand pilot-subcarrier estimates to all K = lambda_p * delta_sub bins.

    Bins between pilots get the two-point linear interpolation of their
    neighbours; the delta_sub - 1 bins past the last pilot are extrapolated
    from the last two pilots. Needs lambda_p >= 2. Batched along leading
    axes.
    """
    h = np.asarray(h_pilots, dtype=complex)
    j, a, b = _interp_weights(h.shape[-1], delta_sub)
    return a * h[..., j] + b * h[..., j + 1]


# ---------------------------------------------------------------------------
# Closed-form MSE
# ---------------------------------------------------------------------------

def phi_lmmse(pdp, n_subcarriers: int, delta_sub: int, gamma: float) -> float:
    """Per-pilot LMMSE residual MSE (1/lambda_p) sum psi/(gamma*psi + 1)."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    psi = pilot_spectrum(pdp, n_subcarriers, delta_sub)
    return float(np.mean(psi / (gamma * psi + 1.0)))


def mse_map(pdp, doppler, grid: MiniSlotGrid, phi: float) -> np.ndarray:
    """Closed-form MSE of every resource element given the pilot-stage MSE
    phi: a (K, T) array laid out as class_map(grid, PA). The formula is in
    the module docstring; pilots read phi itself."""
    cmap = class_map(grid, PA)
    K, delta = grid.n_subcarriers, grid.pattern.delta_sub
    j, a, b = _interp_weights(K // delta, delta)
    u = np.arange(K) - j * delta
    # Re rho_f is even in the lag, and |u|, |u - delta| < 2 delta
    re_rho = np.array([freq_correlation(l, pdp, K).real for l in range(2 * delta)])
    symbols = np.arange(1, grid.n_symbols + 1)
    rho_t = time_correlation(symbols - source_pilot_symbols(grid), doppler)
    own = 1.0 + a * a + b * b + 2 * a * b * re_rho[delta] + (a * a + b * b) * phi
    cross = a * re_rho[u] + b * re_rho[np.abs(u - delta)]
    mse = own[:, None] - 2.0 * rho_t[None, :] * cross[:, None]
    mse[cmap == ReClass.PILOT] = phi
    return mse


# A part is a tuple of PA classes weighted by one MSE: that of its first
# class. The headline sigma_e2 folds each edge class into the interpolation
# component of its symbol.
HEADLINE_PARTS = (
    (ReClass.PILOT,),
    (ReClass.LINEAR_DATA, ReClass.EDGE_DATA),
    (ReClass.REGION_A,),
    (ReClass.REGION_B, ReClass.EDGE_REGION_B),
)
# the MseBreakdown and MseMeasurement field of each class's MSE
_PHI_FIELD = {
    ReClass.PILOT: "phi_lmmse", ReClass.LINEAR_DATA: "phi_linear",
    ReClass.EDGE_DATA: "phi_edge", ReClass.REGION_A: "phi_a",
    ReClass.REGION_B: "phi_b", ReClass.EDGE_REGION_B: "phi_edge_b",
}


def _window_class_map(grid: MiniSlotGrid) -> np.ndarray:
    """class_map(grid, PA) on the first pilot window, -1 elsewhere. The
    window is the symbols that reuse symbol 1's estimates, symbol 1
    included: the whole slot when only symbol 1 carries pilots."""
    return np.where(source_pilot_symbols(grid) == 1, class_map(grid, PA), -1)


def _window_class_means(mse, grid: MiniSlotGrid) -> dict:
    """Mean of a (..., K, T) MSE map over each PA data class of the first
    pilot window, as ReClass -> (...) array; a class the window lacks is
    left out."""
    cmap = _window_class_map(grid)
    return {c: mse[..., cmap == c].mean(axis=-1) for c in PA_CLASSES[1:] if np.any(cmap == c)}


def _window_weights(grid: MiniSlotGrid):
    """_window_class_means as a matrix, with the grid mean added, for maps
    laid out (T, K) and flattened: (classes, W), W a (C + 1, T*K) matrix
    whose row i averages classes[i], the C PA data classes present on the
    first pilot window, over that window, and whose last row averages the
    whole grid.

    measure_mse applies W to a block of realizations as one matrix product.
    Its sequential sums differ from the pairwise means of
    _window_class_means by up to 1e-13 relative over K*T = 7168 elements,
    far inside the Monte Carlo error; the closed form keeps the pairwise
    means, whose last bits its outputs print.
    """
    cmap = _window_class_map(grid).T.ravel()
    classes = [c for c in PA_CLASSES[1:] if np.any(cmap == c)]
    member = np.stack([cmap == c for c in classes] + [np.ones(cmap.size, bool)])
    return classes, member / np.count_nonzero(member, axis=1)[:, None]


def average_mse(grid: MiniSlotGrid, phi: dict):
    """Average of the per-class MSEs phi (ReClass -> value) over the first
    pilot window of class_map(grid, PA), the symbols that reuse symbol 1.

    Each of HEADLINE_PARTS weighs the MSE of its first class by the summed
    count of its classes, and the terms add in the order of the parts. A
    part with no elements in the window is skipped, so phi may lack its
    class or hold nan for it. For T = 7 under high mobility (windows of 4
    and 3 symbols) this differs from the average over the whole grid: the
    first window stands for both. The values may be arrays, as
    measure_mse's per-realization class means are.
    """
    cmap = _window_class_map(grid)
    terms = [(sum(np.count_nonzero(cmap == c) for c in part), part[0])
             for part in HEADLINE_PARTS]
    terms = [(n, c) for n, c in terms if n]
    return sum(n * phi[c] for n, c in terms) / sum(n for n, _ in terms)


@dataclass(frozen=True)
class MseBreakdown:
    """Closed-form per-class MSEs and their averages.

    Each phi_* field is the mean of mse_map over one class on the first
    pilot window, the symbols that reuse symbol 1 (nan where the window has
    no such element); phi_lmmse is the pilot-stage MSE itself. sigma_e2 is the
    headline average of average_mse (edge classes folded into the
    interpolation components); sigma_e2_grid is the map's mean over all
    K*T elements, pilots included.
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
    """The closed-form class MSEs and averages of one geometry."""
    pattern = grid.pattern
    if pattern is None:
        raise ValueError("channel estimation needs a pilot pattern")
    phi = phi_lmmse(pdp, grid.n_subcarriers, pattern.delta_sub, gamma)
    mse = mse_map(pdp, doppler, grid, phi)
    by_class = {c: float(v) for c, v in _window_class_means(mse, grid).items()}
    by_class[ReClass.PILOT] = phi
    return MseBreakdown(
        **{name: by_class.get(c, np.nan) for c, name in _PHI_FIELD.items()},
        sigma_e2=float(average_mse(grid, by_class)),
        sigma_e2_grid=float(mse.mean()),
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

    The class means cover the first pilot window, as MseBreakdown's do.
    sigma_e2 recombines them with average_mse's headline parts and
    weights; sigma_e2_grid is the straight average over all K*T grid
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


# The chunk fixes the random stream: measure_mse draws the tap gains, then
# each pilot symbol's noise and matched error, for up to _MSE_CHUNK
# realizations at a time. The block fixes the working set: it evaluates those
# draws about _MSE_BLOCK grid elements (realization x symbol x subcarrier) at
# a time, so that the chain's temporaries stay in cache.
_MSE_CHUNK = 10_000
_MSE_BLOCK = 1 << 15


def _complex_normal(rng, var: float, out: np.ndarray) -> None:
    """Fill out with CN(0, var) draws, real parts then imaginary parts."""
    re, im = rng.standard_normal(out.shape), rng.standard_normal(out.shape)
    np.multiply(re + 1j * im, np.sqrt(var / 2.0), out=out)


def measure_mse(
    pdp,
    doppler,
    grid: MiniSlotGrid,
    gamma: float,
    n_realizations: int,
    seed,
    error_model: str = "matched",
) -> MseMeasurement:
    """Monte Carlo MSE per resource-element class of class_map(grid, PA).

    The pilot-stage class (phi_lmmse) always runs the honest LS -> LMMSE
    chain; its residual variance is phi_lmmse exactly, no modeling gap
    there. Downstream interpolation/reuse classes use the requested error
    model: 'matched' replaces the pilot error with white noise of variance
    phi_lmmse (the closed forms' premise), 'estimator' feeds the honest
    LMMSE estimates through instead.

    Each data class is averaged per realization over the first pilot window,
    as channel_estimation_mse reduces mse_map, then across realizations,
    which gives clean independent-sample standard errors; n_realizations
    must be at least 2.
    """
    if error_model not in ("matched", "estimator"):
        raise ValueError("error_model must be 'matched' or 'estimator'")
    if n_realizations < 2:
        raise ValueError("n_realizations must be >= 2 for a standard error")
    pattern = grid.pattern
    if pattern is None:
        raise ValueError("measure_mse needs a pilot pattern")
    K, T = grid.n_subcarriers, grid.n_symbols
    delta = pattern.delta_sub
    pilot_rows = np.array(pattern.pilot_symbols) - 1
    phi = phi_lmmse(pdp, K, delta, gamma)
    rng = as_rng(seed)

    pilot_k = np.flatnonzero(class_map(grid, PA)[:, pilot_rows[0]] == ReClass.PILOT)
    lam = pilot_k.size
    # the symbols that reuse each pilot symbol's estimates: one run each
    source = source_pilot_symbols(grid)
    reuse = [slice(p - 1, np.flatnonzero(source == p)[-1] + 1) for p in pattern.pilot_symbols]
    classes, weights = _window_weights(grid)
    block = max(1, _MSE_BLOCK // (T * K))

    # per realization: the pilot class, measured on the LMMSE stage itself
    # rather than on the interpolated grid, then the window's data classes
    # and the grid mean
    rows = np.empty((n_realizations, 1 + weights.shape[0]))
    done = 0
    while done < n_realizations:
        n = min(_MSE_CHUNK, n_realizations - done)
        # (n, T, L), each symbol's taps contiguous for the FFT over delay
        taps = np.ascontiguousarray(_draw_taps(pdp, doppler, K, T, n, rng).transpose(0, 2, 1))
        # per pilot symbol: the LS noise, then the matched error
        noise = np.empty((pilot_rows.size, n, lam), dtype=complex)
        error = np.empty_like(noise) if error_model == "matched" else None
        for i in range(pilot_rows.size):
            _complex_normal(rng, 1.0 / gamma, noise[i])
            if error is not None:
                _complex_normal(rng, phi, error[i])
        for lo in range(0, n, block):
            sl = slice(lo, lo + block)
            H = np.fft.fft(taps[sl], n=K, axis=-1)  # (b, T, K)
            h_p = H[:, pilot_rows[:, None], pilot_k]  # (b, P, lam)
            h_lmmse = lmmse_estimate(h_p + noise[:, sl].swapaxes(0, 1), pdp, delta, gamma)
            e = h_lmmse - h_p
            out = rows[done + lo : done + lo + e.shape[0]]
            out[:, 0] = (e.real ** 2 + e.imag ** 2).mean(axis=(1, 2))
            est = h_lmmse if error is None else h_p + error[:, sl].swapaxes(0, 1)
            full = interpolate_linear(est, delta)  # (b, P, K)
            for i, cols in enumerate(reuse):
                H[:, cols] -= full[:, i, None]  # H becomes the error, negated
            sq = H.real ** 2 + H.imag ** 2
            out[:, 1:] = sq.reshape(sq.shape[0], T * K) @ weights.T
        done += n

    def reduce(x):
        return float(x.mean()), float(x.std(ddof=1) / np.sqrt(x.size))

    # a class the first window lacks reads nan and average_mse skips it
    means = {ReClass.PILOT: rows[:, 0], **dict(zip(classes, rows[:, 1:-1].T))}
    fields = {}
    for c, name in _PHI_FIELD.items():
        fields[name], fields[name + "_se"] = reduce(means[c]) if c in means else (np.nan, np.nan)
    fields["sigma_e2"], fields["sigma_e2_se"] = reduce(average_mse(grid, means))
    fields["sigma_e2_grid"], fields["sigma_e2_grid_se"] = reduce(rows[:, -1])
    return MseMeasurement(**fields, n_realizations=n_realizations, error_model=error_model)
