"""WSSUS Rayleigh tapped-delay-line channel statistics and grid sampling.

The channel has L taps with normalized powers sigma_l^2. Each tap is a
zero-mean complex Gaussian process, wide-sense stationary in time with Jakes
autocorrelation J_0(2*pi*fdTs*dt) and independent of the other taps
(uncorrelated scattering). The frequency response on a K-subcarrier grid is
the K-point DFT of the zero-padded tap vector, so the subcarrier correlation
is the DFT of the tap power profile and the joint time-frequency correlation
factors exactly into a time part times a frequency part.

All time lags are counted in OFDM symbols: fdTs is the maximum Doppler shift
normalized to the OFDM symbol duration. It may be given as a DopplerSpec or
a bare float; either way DopplerSpec validates it. sample_channel_grids
draws realizations as plain arrays, H (n, K, T) and taps (n, L, T); one
realization is n = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import j0

from ._util import as_rng

__all__ = [
    "PowerDelayProfile",
    "DopplerSpec",
    "exponential_pdp",
    "time_correlation",
    "freq_correlation",
    "sample_channel_grids",
]


@dataclass(frozen=True)
class PowerDelayProfile:
    """Normalized per-tap powers sigma_l^2 of the tapped delay line.

    Tap l sits at delay index l (first tap at delay 0). Powers must be
    strictly positive and sum to one.
    """

    taps: np.ndarray

    def __post_init__(self):
        taps = np.atleast_1d(np.asarray(self.taps, dtype=float))
        object.__setattr__(self, "taps", taps)
        if taps.ndim != 1 or taps.size < 1:
            raise ValueError("power delay profile needs at least one tap")
        if np.any(taps <= 0.0):
            raise ValueError("tap powers must be strictly positive")
        if abs(float(taps.sum()) - 1.0) > 1e-12:
            raise ValueError("tap powers must sum to 1 (within 1e-12)")

    @property
    def n_taps(self) -> int:
        return int(self.taps.size)


@dataclass(frozen=True)
class DopplerSpec:
    """Normalized Doppler spread fdTs = f_d * T_s (per OFDM symbol), >= 0."""

    fd_ts: float

    def __post_init__(self):
        if not np.isfinite(self.fd_ts) or self.fd_ts < 0.0:
            raise ValueError("fdTs must be finite and >= 0")


def _fd_ts(doppler) -> float:
    """Accept a DopplerSpec or a bare float, which DopplerSpec validates."""
    if not isinstance(doppler, DopplerSpec):
        doppler = DopplerSpec(float(doppler))
    return float(doppler.fd_ts)


def exponential_pdp(n_taps: int, decay: float = 1.0) -> PowerDelayProfile:
    """Exponentially decaying profile sigma_l^2 ~ exp(-decay*l), unit sum."""
    if n_taps < 1:
        raise ValueError("n_taps must be >= 1")
    if not 0.0 <= decay < np.inf:
        raise ValueError("decay must be finite and >= 0")
    w = np.exp(-decay * np.arange(n_taps, dtype=float))
    return PowerDelayProfile(w / w.sum())


def time_correlation(delta_t, doppler) -> float:
    """Jakes time autocorrelation J_0(2*pi*fdTs*delta_t) at a symbol lag.

    Vectorizes over delta_t; always real.
    """
    fd = _fd_ts(doppler)
    return j0(2.0 * np.pi * fd * np.asarray(delta_t, dtype=float))


def freq_correlation(delta_k: int, pdp: PowerDelayProfile, n_subcarriers: int) -> complex:
    """Subcarrier correlation sum_l sigma_l^2 * exp(-j*2*pi*l*delta_k/K).

    Complex in general; Hermitian in delta_k. Equal to 1 at delta_k = 0.
    """
    if n_subcarriers < 2:
        raise ValueError("need at least 2 subcarriers")
    lags = np.arange(pdp.n_taps, dtype=float)
    phase = np.exp(-2j * np.pi * lags * float(delta_k) / n_subcarriers)
    return complex(np.sum(pdp.taps * phase))


def _jakes_sqrt(fd_ts: float, n_symbols: int) -> np.ndarray:
    """Square root (T x r) of the T x T Jakes covariance across symbols.

    A static channel (fdTs = 0) has the rank-one all-ones covariance; its
    exact square root is the all-ones column, which keeps the T columns of
    each tap bit-identical instead of nearly identical through a loaded
    Cholesky factor.
    """
    if fd_ts == 0.0:
        return np.ones((n_symbols, 1))
    lags = np.arange(n_symbols, dtype=float)
    cov = j0(2.0 * np.pi * fd_ts * np.abs(lags[:, None] - lags[None, :]))
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.cholesky(cov + 1e-12 * np.eye(n_symbols))
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"Jakes covariance not positive semidefinite for fdTs={fd_ts}, "
            f"T={n_symbols} even after diagonal loading"
        ) from exc


def _draw_taps(pdp, doppler, n_subcarriers, n_symbols, n_grids, rng) -> np.ndarray:
    """The tap gains of n_grids realizations on a K x T grid, (n_grids, L, T):
    the one definition of the channel draw, which sample_channel_grids and
    chanest.measure_mse both take from rng."""
    n_taps = pdp.n_taps
    if n_subcarriers <= n_taps:
        raise ValueError("need more subcarriers than channel taps (K > L)")
    if n_symbols < 1:
        raise ValueError("need at least one OFDM symbol")
    sqrt_cov = _jakes_sqrt(_fd_ts(doppler), n_symbols)  # (T, r)
    r = sqrt_cov.shape[1]
    g = rng.standard_normal((n_grids, n_taps, r)) + 1j * rng.standard_normal(
        (n_grids, n_taps, r)
    )
    g *= np.sqrt(0.5)  # unit-variance complex Gaussians
    taps = g @ sqrt_cov.T  # (n, L, T), covariance J across symbols
    taps *= np.sqrt(pdp.taps)[None, :, None]
    return taps


def sample_channel_grids(pdp, doppler, n_subcarriers, n_symbols, n_grids, seed):
    """Draw n_grids independent channel realizations, vectorized.

    Returns (H, taps) with shapes (n_grids, K, T) and (n_grids, L, T).
    Per tap, the length-T sequence is Gaussian with covariance
    sigma_l^2 * J_0(2*pi*fdTs*|dt|); taps are independent of each other.
    H is the K-point DFT of the zero-padded taps per symbol.
    """
    taps = _draw_taps(pdp, doppler, n_subcarriers, n_symbols, n_grids, as_rng(seed))
    H = np.fft.fft(taps, n=n_subcarriers, axis=1)  # zero-padded DFT over delay
    return H, taps
