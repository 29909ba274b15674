"""Independent reference implementations used only by the tests.

Everything here is deliberately written against the *definitions* (power
series, direct DFT sums, tensor-product quadrature) rather than reusing the
package's vectorized code paths, so agreement is evidence and not tautology.
The module-level constants are frozen outputs of the deterministic
quadratures below; they were computed before the Monte Carlo estimators were
tested against them and pin the oracle itself against accidental edits.
"""

import cmath
import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.laguerre import laggauss

from minislot import bounds, chanest, fbl
from minislot._util import as_rng
from minislot.channel import _fd_ts, _jakes_sqrt, freq_correlation, time_correlation
from minislot.grid import PA, ReClass, class_map, source_pilot_symbols

# ---------------------------------------------------------------------------
# Frozen quadrature values (deterministic; see functions below)
# ---------------------------------------------------------------------------

# differential equivalent channel at gamma=10 (10 dB), rho=0.999, QPSK
DIFF_POINT = dict(gamma=10.0, rho=0.999, order=4)
DIFF_GH60 = (1.501543191366541, 0.9025722738456388)
# |GH60 - GH40|: the quadrature's own truncation scale at this point
DIFF_GH_DELTA = (5.33e-5, 5.64e-4)

# coherent BPSK through a perfectly known channel at 0 dB effective SNR
BPSK_POINT = dict(gamma_hat=1.0)
BPSK_QUAD = (0.5657118556206051, 0.5173415882666514)
# 50x50 vs 60x60 nodes agree to ~5e-7; allow an order of margin
BPSK_QUAD_DELTA = (1e-6, 1e-5)


def j0_series(x, n_terms=60):
    """Bessel J0 by its power series sum_k (-1)^k (x/2)^(2k) / (k!)^2.

    Adequate for |x| up to ~15, which covers every Doppler lag the package
    evaluates (2*pi*fdTs*dt with fdTs <= 0.2 and dt <= 7).
    """
    x = float(x)
    total = 0.0
    term = 1.0
    q = (x / 2.0) ** 2
    for k in range(n_terms):
        total += term
        term *= -q / ((k + 1) ** 2)
    return total


def rho_f_direct(delta_k, taps, n_subcarriers):
    """Frequency correlation as an explicit scalar DFT sum over taps."""
    acc = 0 + 0j
    for l, p in enumerate(taps):
        acc += p * cmath.exp(-2j * cmath.pi * l * delta_k / n_subcarriers)
    return acc


def pilot_covariance_direct(pdp, n_subcarriers, delta_sub):
    """Channel autocorrelation at the K / delta_sub pilot subcarriers by its
    definition, R[i, j] = rho_f((i - j) delta_sub), each lag a direct sum."""
    lam = n_subcarriers // delta_sub
    rho = np.array([rho_f_direct(d * delta_sub, pdp.taps, n_subcarriers)
                    for d in range(1 - lam, lam)])
    return rho[np.arange(lam)[:, None] - np.arange(lam)[None, :] + lam - 1]


def lmmse_mse_direct(R, gamma):
    """Per-pilot LMMSE error variance tr(R - R (R + I/g)^-1 R) / n."""
    n = R.shape[0]
    A = R @ np.linalg.inv(R + np.eye(n) / gamma)
    return float(np.real(np.trace(R - A @ R)) / n)


# ---------------------------------------------------------------------------
# Hand-expanded closed-form MSE per resource-element class
# ---------------------------------------------------------------------------
# Each class's MSE averaged over one pilot window of delta_sym symbols (the
# pilot symbol and the delta_sym - 1 symbols that reuse it), with the sums
# over subcarrier offsets kd = 1..delta-1 and reuse lags dt = 1..delta_sym-1
# expanded by hand (white pilot errors of variance phi).
# Degenerate geometries fall back to the class that remains.

def _re_rho_f(pdp, n_subcarriers, lags):
    return np.array(
        [freq_correlation(int(l), pdp, n_subcarriers).real for l in np.atleast_1d(lags)]
    )


def _interp_constant(delta, re_rho_delta, phi):
    """(5d-1)/(3d) + ((d+1)/(3d)) Re rho_f(d) + ((2d-1)/(3d)) phi."""
    d = float(delta)
    return ((5 * d - 1) / (3 * d) + (d + 1) / (3 * d) * re_rho_delta
            + (2 * d - 1) / (3 * d) * phi)


def _interp_cross(pdp, n_subcarriers, delta):
    """Per-offset cross term ((d-kd)/d) Re rho_f(kd) + (kd/d) Re rho_f(d-kd)."""
    kd = np.arange(1, delta, dtype=float)
    rho_kd = _re_rho_f(pdp, n_subcarriers, kd)
    rho_rev = _re_rho_f(pdp, n_subcarriers, delta - kd)
    return (delta - kd) / delta * rho_kd + kd / delta * rho_rev


def phi_linear(pdp, n_subcarriers, delta, phi):
    """Interpolated subcarriers on a pilot symbol."""
    if delta == 1:
        return 0.0
    rho_delta = float(_re_rho_f(pdp, n_subcarriers, delta)[0])
    cross = _interp_cross(pdp, n_subcarriers, delta)
    return float(_interp_constant(delta, rho_delta, phi) - 2.0 / (delta - 1) * cross.sum())


def phi_edge(pdp, n_subcarriers, delta, phi):
    """Subcarriers extrapolated past the last pilot, on a pilot symbol:
    weights a = -kd/d on the second-to-last pilot, b = (d+kd)/d on the last."""
    return phi_edge_region_b(pdp, 0.0, n_subcarriers, delta, 1, phi)


def phi_region_a(doppler, delta_sym, phi):
    """Pilot subcarriers on the symbols reusing the pilot symbol's estimates."""
    if delta_sym == 1:
        return float(phi)
    rho_t = time_correlation(np.arange(1, delta_sym), doppler)
    return float(2.0 + phi - 2.0 / (delta_sym - 1) * rho_t.sum())


def phi_region_b(pdp, doppler, n_subcarriers, delta, delta_sym, phi):
    """Interpolated subcarriers on reuse symbols."""
    if delta_sym == 1:
        return phi_linear(pdp, n_subcarriers, delta, phi)
    if delta == 1:
        return phi_region_a(doppler, delta_sym, phi)
    rho_delta = float(_re_rho_f(pdp, n_subcarriers, delta)[0])
    cross = _interp_cross(pdp, n_subcarriers, delta)
    rho_t = time_correlation(np.arange(1, delta_sym), doppler)
    double_sum = float(np.outer(rho_t, cross).sum())
    return float(_interp_constant(delta, rho_delta, phi)
                 - 2.0 / ((delta_sym - 1) * (delta - 1)) * double_sum)


def phi_edge_region_b(pdp, doppler, n_subcarriers, delta, delta_sym, phi):
    """Extrapolated subcarriers on reuse symbols; delta_sym = 1 leaves the
    pilot symbol alone (lag 0). The pilot-to-pilot term carries no time
    correlation, both pilots living on the same symbol."""
    if delta == 1:
        return phi_region_a(doppler, delta_sym, phi)
    kd = np.arange(1, delta, dtype=float)
    a = -kd / delta
    b = (delta + kd) / delta
    rho_delta = float(_re_rho_f(pdp, n_subcarriers, delta)[0])
    rho_kd = _re_rho_f(pdp, n_subcarriers, kd)
    rho_dk = _re_rho_f(pdp, n_subcarriers, delta + kd)
    lags = np.arange(1, delta_sym) if delta_sym > 1 else np.zeros(1)
    rho_t = time_correlation(lags, doppler)
    per = (1.0 + a * a + b * b + 2 * a * b * rho_delta + (a * a + b * b) * phi
           - 2.0 * rho_t[:, None] * (a * rho_dk + b * rho_kd))
    return float(per.mean())


# ---------------------------------------------------------------------------
# Gauss-Hermite tensor quadrature for the differential equivalent channel
# ---------------------------------------------------------------------------

def _diff_params(gamma, rho):
    sig2 = (1 + gamma) / (2 * gamma)
    eta = rho / 2
    kappa = (1 + gamma) ** 2 - (gamma * rho) ** 2
    c = gamma ** 2 * rho / kappa
    return sig2, eta, c


@lru_cache(maxsize=8)
def gh_diff_iv(gamma, rho, order, nodes=40):
    """I and V of the differential information density by 4-D tensor GH.

    The received pair conditioned on a zero phase difference is a linear map
    of four independent standard normals, so the expectation is a 4-D
    Gaussian integral: nodes**4 points, chunked along the first axis.
    """
    sig2, eta, c = _diff_params(gamma, rho)
    a = math.sqrt(sig2)
    b1 = eta / a
    b2 = math.sqrt(sig2 - b1 ** 2)
    t, w = hermgauss(nodes)
    u = np.sqrt(2.0) * t
    wn = w / np.sqrt(np.pi)
    ang = 2 * np.pi * np.arange(order) / order
    rot = np.exp(-1j * ang)

    m1 = 0.0
    m2 = 0.0
    for i1 in range(nodes):
        U2, U3, U4 = np.meshgrid(u, u, u, indexing="ij")
        x1 = a * u[i1]
        x2 = b1 * u[i1] + b2 * U2
        y1 = a * U3
        y2 = b1 * U3 + b2 * U4
        z1 = x1 + 1j * y1
        z2 = x2 + 1j * y2
        F = np.abs(z1[None, ...] + z2[None, ...] * rot[:, None, None, None]) ** 2
        ex = c * (F - F[0])
        mx = ex.max(axis=0)
        lse = mx + np.log(np.exp(ex - mx).sum(axis=0))
        idens = np.log2(order) - lse / np.log(2.0)
        W = (wn[i1] * wn[:, None, None] * wn[None, :, None] * wn[None, None, :])
        m1 += np.sum(W * idens)
        m2 += np.sum(W * idens ** 2)
    return float(m1), float(m2 - m1 ** 2)


@lru_cache(maxsize=8)
def quad_bpsk_iv(gamma_hat, n_laguerre=60, n_hermite=60):
    """I and V for coherent BPSK with known channel, by GL x GH quadrature.

    For BPSK the information density collapses to a function of the channel
    power q ~ Exp(1) and one real Gaussian: with s = 4*gamma_hat*q,
    i = 1 - log2(1 + exp(-s - sqrt(2 s) xi)).
    """
    q, wq = laggauss(n_laguerre)
    t, wt = hermgauss(n_hermite)
    xi = np.sqrt(2.0) * t
    wxi = wt / np.sqrt(np.pi)
    s = 4.0 * gamma_hat * q
    ex = -s[:, None] - np.sqrt(2.0 * s)[:, None] * xi[None, :]
    idens = 1.0 - np.log2(1.0 + np.exp(ex))
    W = wq[:, None] * wxi[None, :]
    m1 = np.sum(W * idens)
    return float(m1), float(np.sum(W * (idens - m1) ** 2))


# ---------------------------------------------------------------------------
# The per-use law kernel as first written: complex arithmetic, candidates on
# the trailing axis, the full 20 x 20 Gauss-Hermite plane for the pair
# channel. The package's kernel must reproduce its laws to rounding.
# ---------------------------------------------------------------------------

def _density_from_exponents_direct(ex):
    """log2 M - log2 sum_m exp(ex[..., m]), log-sum-exp guarded, in bits."""
    mx = ex.max(axis=-1)
    lse = mx + np.log(np.exp(ex - mx[..., None]).sum(axis=-1))
    return np.log2(ex.shape[-1]) - lse / np.log(2.0)


def diff_law_direct(params, n_nodes):
    """Per-use law of the differential channel over the full CN plane.

    With z1 rotated real, |z1|^2 = s q (s = 2 sigma^2) and
    z2 = (rho/s) z1 + e, e ~ CN(0, s - rho^2/s), so that
    p = conj(z1) z2 = rho q + sqrt(s q) e.
    """
    s = 2.0 * params.sigma2
    scale = np.sqrt(s * (s - params.rho ** 2 / s))
    w, ww = fbl._cn_rule()
    q, wq = fbl._exp_rule(params.gamma, n_nodes)
    p = params.rho * q[:, None] + (scale * np.sqrt(q))[:, None] * w
    order = params.order
    phases = np.exp(-2j * np.pi * np.arange(order) / order)
    # c*(F_m - F_0) = 2c (Re(p e^{-j dphi_m}) - Re(p))
    ex = 2.0 * params.quad_coeff * (np.real(p[..., None] * phases) - np.real(p)[..., None])
    return fbl.PerUseLaw(_density_from_exponents_direct(ex), wq[:, None] * ww)


def coherent_law_direct(gamma_hat, constellation, n_nodes):
    """Per-use law of the coherent fading channel over the 2-D plane, in the
    (q node, Gauss-Hermite node, class) layout.

    With h rotated real, |h|^2 = q and conj(w) h = sqrt(q) conj(w); the
    inputs enter through their symmetry classes. One q node at a time, so
    that 256-QAM stays within ~0.1 GB.
    """
    pts = constellation.points
    reps, probs = fbl._input_classes(constellation)
    w, ww = fbl._cn_rule()
    d = reps[:, None] - pts[None, :]  # (classes, order)
    q, wq = fbl._exp_rule(gamma_hat, n_nodes)
    dens = np.empty((q.size, w.size, reps.size))
    for k in range(q.size):
        hw = np.sqrt(q[k]) * np.conj(w)[:, None]
        ex = -gamma_hat * q[k] * np.abs(d) ** 2 - 2.0 * np.sqrt(gamma_hat) * np.real(
            hw[..., None] * d
        )
        dens[k] = _density_from_exponents_direct(ex)
    return fbl.PerUseLaw(dens.reshape(q.size, -1), wq[:, None] * (ww[:, None] * probs).ravel())


def coherent_law_longdouble(gamma_hat, constellation, n_nodes):
    """The atoms of coherent_law_direct evaluated in long double from the
    same float64 nodes and points, in the same layout: the 2-D kernel with
    its rounding taken out, a reference for the float64 kernels' own."""
    ld = np.longdouble
    pts = constellation.points
    reps, _ = fbl._input_classes(constellation)
    w, _ = fbl._cn_rule()
    q, _ = fbl._exp_rule(gamma_hat, n_nodes)
    d = reps[:, None] - pts[None, :]  # (classes, order)
    dr, di = d.real.astype(ld), d.imag.astype(ld)
    d2 = dr * dr + di * di
    wr, wi = w.real.astype(ld)[:, None, None], w.imag.astype(ld)[:, None, None]
    g = ld(gamma_hat)
    dens = np.empty((q.size, w.size, reps.size), dtype=ld)
    for k, qk in enumerate(q.astype(ld)):
        ex = -g * qk * d2 - 2 * np.sqrt(g * qk) * (wr * dr + wi * di)
        mx = ex.max(axis=-1)
        lse = mx + np.log(np.exp(ex - mx[..., None]).sum(axis=-1))
        dens[k] = np.log2(ld(pts.size)) - lse / np.log(ld(2))
    return dens.reshape(q.size, -1)


# ---------------------------------------------------------------------------
# The lattice kernel as first written: the N-fold law over its whole span
# [N lo, N hi], one linear convolution by FFT. The package's windowed kernel
# must reproduce its IS and DT to the FFT's roundoff.
# ---------------------------------------------------------------------------

def lattice_bounds_direct(d, w, n_uses, n_info_bits, step):
    """(IS objective max, log2 beta*, DT) of the N-fold law of (d, w)
    binned at `step`, convolved over the whole span. IS is not clipped."""
    lo = step * np.floor(d.min() / step)
    u = (d - lo) / step
    k = np.floor(u).astype(np.intp)
    frac = u - k
    size = int(k.max()) + 2
    pmf = np.bincount(k, w * (1.0 - frac), size) + np.bincount(k + 1, w * frac, size)
    n_out = n_uses * (size - 1) + 1
    n_fft = bounds._fast_size(n_out)
    pmf = np.fft.irfft(bounds._power(np.fft.rfft(pmf, n_fft), n_uses), n_fft)[:n_out]
    t = n_uses * lo + step * np.arange(n_out)
    with np.errstate(over="ignore"):
        objective = np.cumsum(pmf) - np.exp2(t - n_info_bits)
    best = int(np.argmax(objective))
    dt = float(pmf @ np.exp2(-np.maximum(t - bounds._dt_threshold(n_info_bits), 0.0)))
    return float(objective[best]), float(t[best]), dt


# ---------------------------------------------------------------------------
# The Monte Carlo references as first written: every channel grid of a chunk
# at once, laid out (realization, K, T), reduced by the closed form's
# boolean-mask class means.
# The package's blocked code draws the same streams and must reproduce these
# to rounding (the samplers bit for bit).
# ---------------------------------------------------------------------------

def sample_channel_grids_direct(pdp, doppler, n_subcarriers, n_symbols, n_grids, seed):
    """channel.sample_channel_grids with the tap draw inline."""
    n_taps = pdp.n_taps
    if n_subcarriers <= n_taps:
        raise ValueError("need more subcarriers than channel taps (K > L)")
    if n_symbols < 1:
        raise ValueError("need at least one OFDM symbol")
    rng = as_rng(seed)
    sqrt_cov = _jakes_sqrt(_fd_ts(doppler), n_symbols)  # (T, r)
    r = sqrt_cov.shape[1]
    g = rng.standard_normal((n_grids, n_taps, r)) + 1j * rng.standard_normal(
        (n_grids, n_taps, r)
    )
    g *= np.sqrt(0.5)  # unit-variance complex Gaussians
    taps = g @ sqrt_cov.T  # (n, L, T), covariance J across symbols
    taps *= np.sqrt(pdp.taps)[None, :, None]
    H = np.fft.fft(taps, n=n_subcarriers, axis=1)  # zero-padded DFT over delay
    return H, taps


def measure_mse_direct(pdp, doppler, grid, gamma, n_realizations, seed,
                       error_model="matched"):
    """chanest.measure_mse over whole chunks of chanest._MSE_CHUNK grids."""
    if error_model not in ("matched", "estimator"):
        raise ValueError("error_model must be 'matched' or 'estimator'")
    if n_realizations < 2:
        raise ValueError("n_realizations must be >= 2 for a standard error")
    pattern = grid.pattern
    K, T = grid.n_subcarriers, grid.n_symbols
    delta = pattern.delta_sub
    pilots = list(pattern.pilot_symbols)
    phi = chanest.phi_lmmse(pdp, K, delta, gamma)
    rng = as_rng(seed)

    cmap = class_map(grid, PA)
    pilot_k = np.flatnonzero(cmap[:, pilots[0] - 1] == ReClass.PILOT)
    lam = pilot_k.size
    source = source_pilot_symbols(grid)

    per_class = {ReClass.PILOT: []}
    grid_avg = []
    done = 0
    while done < n_realizations:
        n = min(chanest._MSE_CHUNK, n_realizations - done)
        H, _ = sample_channel_grids_direct(pdp, doppler, K, T, n, rng)
        err_l = []
        est_by_sym = {}
        for tp in pilots:
            h_p = H[:, pilot_k, tp - 1]  # (n, lam)
            noise = (
                rng.standard_normal((n, lam)) + 1j * rng.standard_normal((n, lam))
            ) * np.sqrt(0.5 / gamma)
            h_lmmse = chanest.lmmse_estimate(h_p + noise, pdp, delta, gamma)
            err_l.append(np.abs(h_lmmse - h_p) ** 2)
            if error_model == "matched":
                e = (
                    rng.standard_normal((n, lam)) + 1j * rng.standard_normal((n, lam))
                ) * np.sqrt(phi / 2.0)
                est_by_sym[tp] = h_p + e
            else:
                est_by_sym[tp] = h_lmmse
        per_class[ReClass.PILOT].append(np.mean(np.concatenate(err_l, axis=1), axis=1))

        full_by_sym = {tp: chanest.interpolate_linear(est_by_sym[tp], delta) for tp in pilots}
        sq = np.empty((n, K, T))
        for t, tp in enumerate(source):
            sq[:, :, t] = np.abs(full_by_sym[tp] - H[:, :, t]) ** 2
        for c, v in chanest._window_class_means(sq, grid).items():
            per_class.setdefault(c, []).append(v)
        grid_avg.append(sq.mean(axis=(1, 2)))
        done += n

    def reduce(x):
        return float(x.mean()), float(x.std(ddof=1) / np.sqrt(x.size))

    means = {c: np.concatenate(v) for c, v in per_class.items()}
    fields = {}
    for c, name in chanest._PHI_FIELD.items():
        fields[name], fields[name + "_se"] = reduce(means[c]) if c in means else (np.nan, np.nan)
    fields["sigma_e2"], fields["sigma_e2_se"] = reduce(chanest.average_mse(grid, means))
    fields["sigma_e2_grid"], fields["sigma_e2_grid_se"] = reduce(np.concatenate(grid_avg))
    return chanest.MseMeasurement(**fields, n_realizations=n_realizations,
                                  error_model=error_model)


def sample_coherent_density_direct(gamma_hat, constellation, n, rng, chunk=1 << 18):
    """fbl.sample_coherent_density evaluating each chunk's (M, chunk)
    exponents at once."""
    pts = constellation.points
    order = pts.size
    out = np.empty(n)
    done = 0
    while done < n:
        m = min(chunk, n - done)
        h = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * np.sqrt(0.5)
        w = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * np.sqrt(0.5)
        j = rng.integers(0, order, size=m)
        d = pts[j] - pts[:, None]  # (order, m)
        w_h = w * np.exp(-1j * np.angle(h))
        out[done : done + m] = fbl._coherent_density(gamma_hat, np.abs(h) ** 2, w_h, d)
        done += m
    return out
