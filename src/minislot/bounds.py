"""Non-asymptotic BLER bounds from the law of the information density.

Both bounds work on block densities i_N = sum of N i.i.d. per-use densities
(bits). The lower bound maximizes P[i_N <= log2 beta] - beta 2^{-B} over
beta; the upper (dependence-testing) bound averages
2^{-max(i_N - log2((2^B - 1)/2), 0)}.

lattice_bounds computes both deterministically from a discrete per-use law,
such as the quadrature law of minislot.fbl: it bins the law onto a lattice
and takes the law of i_N by FFT convolution, only on the window where
Chernoff bounds on the binned law put all of its mass but 1e-17 on each
side, a few standard deviations around N I. The Monte Carlo estimators
is_lower_bound and dt_upper_bound serve as its reference: they take block
densities from block_density_samples, which sums per-use draws of any
sampler (n, rng) -> n densities, such as the samplers in minislot.fbl.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import as_rng

__all__ = [
    "BoundEstimate",
    "lattice_bounds",
    "block_density_samples",
    "is_lower_bound",
    "dt_upper_bound",
]


@dataclass(frozen=True)
class BoundEstimate:
    """One bound value with its error scale.

    From Monte Carlo, stderr is a standard error and n_samples counts
    blocks; from lattice_bounds, stderr is the deterministic error scale
    and n_samples counts the per-use atoms. log2_beta_star is the
    maximizing threshold of the lower bound (None for the DT bound).
    """

    kind: str
    value: float
    stderr: float
    n_samples: int
    log2_beta_star: float | None = None


def block_density_samples(sampler, n_uses: int, n_blocks: int, seed) -> np.ndarray:
    """n_blocks block densities, each the sum of n_uses per-use draws.

    Generation is chunked so that at most ~1e6 per-use samples are alive at
    once regardless of N.
    """
    if n_uses < 1:
        raise ValueError("blocklength must be >= 1")
    if n_blocks < 1:
        raise ValueError("need at least one block")
    rng = as_rng(seed)
    out = np.empty(n_blocks)
    step = max(1, 1_000_000 // n_uses)
    done = 0
    while done < n_blocks:
        m = min(step, n_blocks - done)
        per_use = sampler(m * n_uses, rng)
        out[done : done + m] = per_use.reshape(m, n_uses).sum(axis=1)
        done += m
    return out


def _dt_threshold(n_info_bits: int) -> float:
    """log2((2^B - 1)/2) = B - 1 + log2(1 - 2^-B), underflow-safe."""
    return n_info_bits - 1.0 + np.log1p(-(2.0 ** -n_info_bits)) / np.log(2.0)


LATTICE_STEP = 0.01  # bits
LATTICE_FLOOR = -20.0  # bits; per-use mass below it is the tail
# Round-off floor of IS and DT. Against the same windowed computation in
# 80-bit long double (numpy.fft transforms long double in long double),
# float64 was off by at most 4.3e-13, over 240 laws at both steps and two
# payloads each: PA, FDDi and TDDi at M = 4 and 16, 0-30 dB, K = 64 and
# 1024, T = 2-7 (N up to 7161, FFTs up to 2.2e5 points). The error grows
# with N: below 1.5e-13 at K = 64 (N up to 441). The floor keeps a factor
# 2.3 above that. The full-span convolution this window replaced reached
# 1.1e-12 in the cases checked at N = 6144-7161, on FFTs of 1.6e7 points.
FFT_ROUNDOFF = 1e-12


def _fast_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: a length numpy.fft transforms quickly."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            f = f35
            while f < n:
                f *= 2
            best = min(best, f)
            f35 *= 3
        f5 *= 5
    return best


def _power(x: np.ndarray, n: int) -> np.ndarray:
    """x**n by repeated squaring, several times faster than complex `**`."""
    out = None
    while n:
        if n & 1:
            out = x if out is None else out * x
        n >>= 1
        if n:
            x = x * x
    return out


# each side of the window leaves out at most this share of the N-fold law
_WINDOW_EPS = 1e-17
# tilts tried for the window's Chernoff bounds, x1/8 .. x8 of the Gaussian guess
_TILTS = 2.0 ** np.linspace(-3.0, 3.0, 13)


def _window(pmf, n_uses):
    """Bins [m0, m1] of the N-fold law of pmf that hold all of it but at
    most _WINDOW_EPS on each side.

    Chernoff bounds on the binned law itself: with j the bin index, S the
    N-fold sum in bins and Lambda(s) = ln sum_j p_j e^{s j} over the bins
    p_j > 0 (p normalized), P[S >= b] <= exp(N Lambda(s) - s b) and
    P[S <= a] <= exp(N Lambda(-s) + s a) for every s > 0; each side keeps
    its narrowest edge over the tilts.
    """
    j = np.flatnonzero(pmf > 0.0)
    p = pmf[j] / pmf.sum()
    mean = p @ j
    x = j - mean
    log_eps = -np.log(_WINDOW_EPS)
    # a one-bin law has no variance; the floor keeps s finite
    sd = np.sqrt(max(p @ (x * x), np.finfo(float).tiny))
    s = np.sqrt(2.0 * log_eps / n_uses) / sd * _TILTS
    # the one (tilts x bins) array, exponentiated in place
    z = np.multiply.outer(np.concatenate([s, -s]), x)
    top = z.max(axis=1)
    z -= top[:, None]
    np.exp(z, out=z)
    # centered Lambda(+-s) - (+-s) mean, log-sum-exp guarded
    cgf = top + np.log(z @ p)
    up, down = ((n_uses * cgf + log_eps) / np.concatenate([s, s])).reshape(2, -1).min(axis=1)
    m0 = max(int(np.floor(n_uses * mean - down)), n_uses * int(j[0]))
    m1 = min(int(np.ceil(n_uses * mean + up)), n_uses * int(j[-1]))
    return m0, m1


def _lattice_bounds(d, w, n_uses, n_info_bits, step):
    """(IS clipped at 0, log2 beta*, DT) of the N-fold law of (d, w) binned
    at `step`, read on its _window."""
    lo = step * np.floor(d.min() / step)
    u = d - lo
    u /= step
    k = np.floor(u).astype(np.intp)
    u -= k  # the fraction of each atom's mass that goes to bin k + 1
    size = int(k.max()) + 2
    # linear binning keeps the mass and the mean of every atom
    upper = w * u
    np.subtract(1.0, u, out=u)
    u *= w
    pmf = np.bincount(k, u, size)
    k += 1
    pmf += np.bincount(k, upper, size)
    m0, m1 = _window(pmf, n_uses)
    m = m0 + np.arange(m1 - m0 + 1)
    n_fft = _fast_size(max(m.size, size))
    # the circular convolution is the N-fold law wrapped mod n_fft
    law = np.fft.irfft(_power(np.fft.rfft(pmf, n_fft), n_uses), n_fft)[m % n_fft]
    t = n_uses * lo + step * m
    with np.errstate(over="ignore"):
        objective = np.cumsum(law) - np.exp2(t - n_info_bits)
    best = int(np.argmax(objective))
    # a sum, not `@`: a BLAS dot of this length wakes OpenBLAS's thread pool,
    # which cost 5-12 ms per call on a two-core machine
    dt = float(np.sum(law * np.exp2(-np.maximum(t - _dt_threshold(n_info_bits), 0.0))))
    return max(float(objective[best]), 0.0), float(t[best]), dt


def lattice_bounds(densities, weights, n_uses: int, n_info_bits: int):
    """IS lower and DT upper bound from a discrete per-use law, no sampling.

    The law (densities in bits, weights normalized to sum 1) is binned onto
    a lattice of step LATTICE_STEP from LATTICE_FLOOR to its largest atom by
    mass-preserving linear binning, and the law of i_N is its N-fold
    convolution, taken by FFT. IS = max over the lattice of
    P[i_N <= t] - 2^(t - B), clipped at 0; DT = E[2^-(i_N - thr)^+].

    The N-fold law is computed only on a window [a, b] that Chernoff bounds
    on the binned law place so that each side leaves out at most
    eps = 1e-17 of it; the window is a few standard deviations of i_N wide,
    where the whole span reaches N (log2 M - LATTICE_FLOOR) bits. The FFT
    runs at a length L covering the window, and its circular convolution
    is the N-fold law wrapped mod L, so the at most 2 eps outside the
    window lands on it. The CDF misses the mass below a and gains the
    wrapped mass, and DT loses the outside mass and gains it wrapped: each
    moves by at most 2 eps, far inside FFT_ROUNDOFF.

    Per-use mass p below LATTICE_FLOOR is kept conservative: it is left out
    of the CDF for IS, and every block that holds such a use counts as an
    error in DT, adding 1 - (1 - p)^N. The `stderr` of each estimate is a
    deterministic error scale: |value at step - value at 2 step|, plus that
    tail term, plus FFT_ROUNDOFF, which covers the window's 2 eps and the
    FFT's round-off. DT is kept inside [FFT_ROUNDOFF, 1].
    n_samples counts the atoms of the law. Returns (IS, DT) BoundEstimates.
    """
    if n_uses < 1:
        raise ValueError("blocklength must be >= 1")
    if n_info_bits < 1:
        raise ValueError("payload must be >= 1 bit")
    d = np.asarray(densities, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    if d.shape != w.shape or np.any(w < 0.0) or not w.sum() > 0.0:
        raise ValueError("need one nonnegative weight per density, not all zero")
    w = w / w.sum()
    n_atoms = d.size
    inside = d >= LATTICE_FLOOR
    tail = float(-np.expm1(n_uses * np.log1p(-w[~inside].sum())))
    if not inside.all():
        d, w = d[inside], w[inside]
    fine, coarse = (
        _lattice_bounds(d, w, n_uses, n_info_bits, step)
        for step in (LATTICE_STEP, 2.0 * LATTICE_STEP)
    )
    slack = tail + FFT_ROUNDOFF
    lower = BoundEstimate(
        kind="IS", value=fine[0], stderr=abs(fine[0] - coarse[0]) + slack,
        n_samples=n_atoms, log2_beta_star=fine[1],
    )
    upper = BoundEstimate(
        kind="DT", value=min(max(fine[2] + tail, FFT_ROUNDOFF), 1.0),
        stderr=abs(fine[2] - coarse[2]) + slack, n_samples=n_atoms,
    )
    return lower, upper


def is_lower_bound(block_densities, n_info_bits: int) -> BoundEstimate:
    """Lower bound sup_beta { P[i_N <= log2 beta] - beta 2^{-B} } from
    sampled block densities (block_density_samples).

    The empirical objective is a step function of log2 beta whose supremum
    is attained at a sample point, so the search is the exact maximum over
    the sorted samples rather than a grid scan. The reported standard error
    is the binomial error of the CDF term at the maximizer.
    """
    if n_info_bits < 1:
        raise ValueError("payload must be >= 1 bit")
    s = np.sort(np.asarray(block_densities, dtype=float))
    n = s.size
    cdf = np.arange(1, n + 1) / n
    with np.errstate(over="ignore"):
        objective = cdf - np.exp2(s - n_info_bits)
    best = int(np.argmax(objective))
    value = max(float(objective[best]), 0.0)
    p_hat = float(cdf[best])
    stderr = float(np.sqrt(p_hat * (1.0 - p_hat) / n))
    return BoundEstimate(
        kind="IS",
        value=value,
        stderr=stderr,
        n_samples=n,
        log2_beta_star=float(s[best]),
    )


def dt_upper_bound(block_densities, n_info_bits: int) -> BoundEstimate:
    """Upper bound E[ 2^{-max(i_N - log2((2^B-1)/2), 0)} ] from sampled
    block densities (block_density_samples)."""
    if n_info_bits < 1:
        raise ValueError("payload must be >= 1 bit")
    s = np.asarray(block_densities, dtype=float)
    terms = np.exp2(-np.maximum(s - _dt_threshold(n_info_bits), 0.0))
    value = float(terms.mean())
    stderr = float(terms.std(ddof=1) / np.sqrt(terms.size))
    return BoundEstimate(
        kind="DT", value=value, stderr=stderr, n_samples=s.size, log2_beta_star=None
    )
