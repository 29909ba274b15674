"""Transmit/receive chains: differential encoding, OFDM chain, detection.

The time-domain chain (IDFT, cyclic prefix, tap convolution, CP removal,
DFT) reduces exactly to the per-subcarrier model z = H * d + W when the CP
covers the channel memory and the channel is constant within each symbol.
fast_rx applies that equivalent model directly and is what every Monte Carlo
campaign uses; the full chain exists to prove the equivalence and for
spot-checking.

Both receive paths draw the same frequency-domain noise grid from the seed,
with the time-domain chain injecting its inverse DFT image into the samples.
White stays white under the unitary-up-to-scaling DFT, so this is just a
change of basis, and it makes the two paths comparable realization by
realization rather than only in distribution.

Grids are plain K x T arrays: the transmit symbols d (differential_encode
returns one), the frequency response H and the L x T taps of one
realization from channel.sample_channel_grids. The receive paths return an
RxGrid; the detectors take its samples z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import as_rng
from .grid import FDDI, TDDI, Constellation

__all__ = [
    "RxGrid",
    "DiffDecision",
    "DegenerateEstimateError",
    "differential_encode",
    "ofdm_time_domain_chain",
    "fast_rx",
    "differential_detect",
    "coherent_detect",
]


class DegenerateEstimateError(ValueError):
    """Coherent detection hit a zero channel estimate at a data position."""


@dataclass(frozen=True)
class RxGrid:
    """Received frequency-domain samples z (K x T) and the noise variance."""

    z: np.ndarray
    noise_var: float


@dataclass(frozen=True)
class DiffDecision:
    """Differential detection statistics a and hard phase indices."""

    a: np.ndarray
    hard: np.ndarray


def _as_matrix(x, name="array") -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"{name} must be a K x T matrix")
    return x


def differential_encode(v, scheme: str) -> np.ndarray:
    """Accumulate PSK symbols into the transmit grid d (a K x T array).

    FDDi: d[k, t] = v[k, t] * d[k-1, t] down each symbol, reference
    d[0, t] = 1. TDDi: the same recursion across symbols with reference
    column d[k, 0] = 1. Inputs must be unit modulus.
    """
    v = _as_matrix(np.asarray(v, dtype=complex), "v")
    if np.any(np.abs(np.abs(v) - 1.0) > 1e-9):
        raise ValueError("differential inputs must be unit modulus")
    if scheme == FDDI:
        ref = np.ones((1, v.shape[1]), dtype=complex)
        d = np.cumprod(np.concatenate([ref, v], axis=0), axis=0)
    elif scheme == TDDI:
        ref = np.ones((v.shape[0], 1), dtype=complex)
        d = np.cumprod(np.concatenate([ref, v], axis=1), axis=1)
    else:
        raise ValueError(f"differential encoding undefined for scheme {scheme!r}")
    return d


def _noise_grid(rng, n_subcarriers, n_symbols, noise_var) -> np.ndarray:
    """Frequency-domain white noise, variance noise_var per element."""
    w = rng.standard_normal((n_subcarriers, n_symbols)) + 1j * rng.standard_normal(
        (n_subcarriers, n_symbols)
    )
    return w * np.sqrt(noise_var / 2.0)


def ofdm_time_domain_chain(d, taps, noise_var: float, seed) -> RxGrid:
    """Full OFDM chain: IDFT, CP of length L, tap convolution, CP strip, DFT.

    The CP makes the linear tap convolution circular within each symbol, so
    the output equals H[k, t] * d[k, t] + W[k, t] up to floating point,
    with H the K-point DFT of the L x T taps. K must be a power of two
    (FFT-friendly grid sizes only) and larger than the channel memory.
    """
    d = _as_matrix(np.asarray(d, dtype=complex), "d")
    taps = _as_matrix(np.asarray(taps, dtype=complex), "taps")
    K, T = d.shape
    L = taps.shape[0]
    if taps.shape[1] != T:
        raise ValueError("channel taps and symbol grid disagree on T")
    if K & (K - 1) != 0:
        raise ValueError("time-domain chain needs K a power of 2")
    if L >= K:
        raise ValueError("channel memory must be shorter than the symbol (L < K)")
    rng = as_rng(seed)
    w_freq = _noise_grid(rng, K, T, noise_var) if noise_var > 0.0 else None
    z = np.empty((K, T), dtype=complex)
    for t in range(T):
        x = np.fft.ifft(d[:, t])
        with_cp = np.concatenate([x[-L:], x])  # CP length L >= L-1
        y = np.convolve(with_cp, taps[:, t])
        received = y[L : L + K]  # strip CP, keep one symbol worth
        if w_freq is not None:
            received = received + np.fft.ifft(w_freq[:, t])
        z[:, t] = np.fft.fft(received)
    return RxGrid(z=z, noise_var=float(noise_var))


def fast_rx(d, H, noise_var: float, seed) -> RxGrid:
    """Equivalent per-subcarrier receive model z = H * d + W."""
    d = _as_matrix(np.asarray(d, dtype=complex), "d")
    H = _as_matrix(np.asarray(H, dtype=complex), "H")
    if H.shape != d.shape:
        raise ValueError(f"channel {H.shape} and symbols {d.shape} do not match")
    z = H * d
    if noise_var > 0.0:
        z = z + _noise_grid(as_rng(seed), *d.shape, noise_var)
    return RxGrid(z=z, noise_var=float(noise_var))


def differential_detect(z, scheme: str, order: int) -> DiffDecision:
    """Differential detection against the neighboring element.

    The statistic is a = z * conj(previous neighbor) (previous subcarrier
    for FDDi, previous symbol for TDDi); the hard decision is the PSK phase
    index nearest to arg(a) with wrapped angular distance. Ties and exact
    zero statistics resolve to the lowest index.
    """
    z = _as_matrix(np.asarray(z, dtype=complex), "z")
    if scheme == FDDI:
        a = z[1:, :] * np.conj(z[:-1, :])
    elif scheme == TDDI:
        a = z[:, 1:] * np.conj(z[:, :-1])
    else:
        raise ValueError(f"differential detection undefined for scheme {scheme!r}")
    angles = 2.0 * np.pi * np.arange(order) / order
    # wrapped distance to each candidate phase; argmin takes the lowest index
    diff = np.angle(a)[..., None] - angles
    dist = np.abs((diff + np.pi) % (2.0 * np.pi) - np.pi)
    hard = np.argmin(dist, axis=-1)
    return DiffDecision(a=a, hard=hard)


def coherent_detect(z, h_hat, constellation: Constellation) -> np.ndarray:
    """Minimum-distance decision on the equalized samples z / h_hat.

    Ties resolve to the lowest constellation index. A zero estimate leaves
    the decision undefined and raises DegenerateEstimateError.
    """
    z = np.asarray(z, dtype=complex)
    h_hat = np.asarray(h_hat, dtype=complex)
    if h_hat.shape != z.shape:
        raise ValueError("estimate grid must match the received grid")
    if np.any(h_hat == 0):
        raise DegenerateEstimateError("zero channel estimate at a data position")
    eq = z / h_hat
    dist = np.abs(eq[..., None] - constellation.points)
    return np.argmin(dist, axis=-1)
