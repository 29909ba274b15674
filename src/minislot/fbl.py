"""Finite-blocklength machinery: information densities, capacity/dispersion
estimates, and the normal-approximation BLER for all three schemes.

Differential detection sees an equivalent memoryless channel on the pair of
neighboring received samples (z1, z2): jointly circular Gaussian, zero mean,
per-sample power (1+gamma)/gamma, and cross-correlation rho * exp(-j dphi)
where dphi is the transmitted phase difference and rho the channel
correlation between the two positions (frequency-adjacent for FDDi,
time-adjacent for TDDi). With sigma^2 = (1+gamma)/(2*gamma) per real
component, eta = rho/2, and kappa = (1+gamma)^2 - gamma^2 rho^2, the
transition density is

  p(z | dphi) = gamma^2/(pi^2 kappa)
                * exp(-(2 sigma^2 gamma^2/kappa) (|z1|^2 + |z2|^2))
                * exp(c * F(dphi)),     c = gamma^2 rho / kappa,

with quadratic form F(dphi) = |z1 + z2 exp(-j dphi)|^2. The per-use
information density against the uniform M-PSK input then only needs the
differences c*(F(dphi_m) - F(dphi_0)), which collapse to a function of
p = conj(z1) * z2:

  c*(F_m - F_0) = 2 c (Re(p exp(-j dphi_m)) - Re(p)).

The coherent path conditions on a known fading coefficient h and effective
SNR gamma_hat: with w ~ CN(0,1) and a uniformly drawn input x_j, the density
ratio against the output mixture gives

  i = log2 M - log2 sum_i exp(|w|^2 - |w + sqrt(gamma_hat) h (x_j - x_i)|^2).

scheme_fbl takes (I, V) from deterministic tensor quadrature of these
densities: each channel is rotated so that one Rayleigh factor is real (z1
for the pair, h for the coherent link), leaving its power q ~ Exp(1),
integrated by Gauss-Legendre in ln q plus an exact node at q = 0, times a
2-D Gauss-Hermite rule over one CN(0, 1) variable w, of which the pair
channel keeps the half plane Im w > 0 (conj(w) maps candidate m to M - m).
Each density reduces one real array with the M candidates on its first
axis. Square QAM is the exception: its coherent exponent splits into a
real-axis and an imaginary-axis term, so its density is the sum of two
sqrt(M)-PAM densities, and one table of the PAM density at the real
Gauss-Hermite nodes gives all its atoms without the M candidates ever
meeting the 2-D plane. The weighted nodes form a discrete per-use law
(PerUseLaw): (I, V) are its moments, and minislot.bounds reads the IS/DT
bounds off it. equivalent_channel is the one map from a scheme at an
operating point to that law, and EquivalentChannel.iv() the one path to
its (I, V). Where Monte Carlo carries a standard error, the quadrature
carries the difference between its 48- and 24-node q rules, which is no
bound (IvEstimate). The samplers and the Monte Carlo estimators stay as
the reference of both.

Everything is evaluated in bits with log-sum-exp guarding. The normal
approximation is available as epsilon and as ln epsilon, which stays finite
where epsilon underflows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss
from scipy.special import erfc, log_ndtr

from ._util import as_rng
from .bounds import lattice_bounds
from .channel import freq_correlation, time_correlation
from .chanest import channel_estimation_mse, effective_snr
from .grid import (
    FDDI,
    PA,
    TDDI,
    Constellation,
    MiniSlotGrid,
    data_symbol_count,
    default_constellation,
)

__all__ = [
    "ModelFidelityWarning",
    "InfeasiblePayloadError",
    "DiffChannelParams",
    "IvEstimate",
    "PerUseLaw",
    "EquivalentChannel",
    "FblResult",
    "awgn_capacity_dispersion",
    "normal_approx_bler",
    "normal_approx_log_bler",
    "diff_transition_logpdf",
    "sample_diff_density",
    "sample_coherent_density",
    "diff_capacity_dispersion",
    "coherent_capacity_dispersion",
    "fddi_correlation",
    "tddi_correlation",
    "equivalent_channel",
    "feasible_blocklength",
    "channel_fbl",
    "scheme_fbl",
]

LN2 = np.log(2.0)


class ModelFidelityWarning(UserWarning):
    """The analysis is evaluated outside its comfort zone.

    Raised e.g. when the adjacent-subcarrier correlation has a substantial
    imaginary part that the real-valued equivalent-channel model drops.
    """


class InfeasiblePayloadError(ValueError):
    """Payload requires more than log2(M) bits per available data symbol."""


@dataclass(frozen=True)
class DiffChannelParams:
    """Equivalent differential channel: SNR, neighbor correlation, PSK order."""

    gamma: float
    rho: float
    order: int

    def __post_init__(self):
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if abs(self.rho) > 1.0:
            raise ValueError("|rho| <= 1 required for a valid covariance")
        if self.order < 2 or (self.order & (self.order - 1)) != 0:
            raise ValueError("PSK order must be a power of 2")

    @property
    def sigma2(self) -> float:
        """Per-real-component variance (1+gamma)/(2 gamma)."""
        return (1.0 + self.gamma) / (2.0 * self.gamma)

    @property
    def eta(self) -> float:
        """Real-pair cross-covariance rho/2."""
        return self.rho / 2.0

    @property
    def kappa(self) -> float:
        """(1+gamma)^2 - gamma^2 rho^2; positive for |rho| <= 1."""
        g = self.gamma
        return (1.0 + g) ** 2 - (g * self.rho) ** 2

    @property
    def quad_coeff(self) -> float:
        """c = gamma^2 rho / kappa, the weight on the quadratic form."""
        return self.gamma ** 2 * self.rho / self.kappa


@dataclass(frozen=True)
class IvEstimate:
    """(I, V) with an error scale; part of the result contract.

    From Monte Carlo, the errors are standard errors and n_samples counts
    draws. From quadrature, the errors are |Q_NODES - Q_NODES_COARSE| q-rule
    differences and n_samples counts density evaluations of the production
    rule. That difference is no bound on the rule's error: it never refines
    the Gauss-Hermite axis, and at high SNR it mostly carries the coarse q
    rule's lost mass (see ROADMAP.md, "One q rule with a certified error").
    """

    i: float
    v: float
    i_stderr: float
    v_stderr: float
    n_samples: int


@dataclass(frozen=True)
class FblResult:
    """Scheme-level finite-blocklength outcome at one operating point.

    i_stderr and v_stderr are IvEstimate's q-rule differences, no bound on
    the quadrature's error; bounds, when asked for, holds the (IS, DT)
    BoundEstimates of the same law.
    """

    scheme: str
    i: float
    v: float
    n: int
    r: float
    epsilon: float
    log_epsilon: float  # ln epsilon: ranks operating points where epsilon underflows
    i_stderr: float
    v_stderr: float
    sigma_e2: float | None = None
    gamma_hat: float | None = None
    bounds: tuple | None = None


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def awgn_capacity_dispersion(gamma: float):
    """Gaussian-input AWGN capacity and dispersion (bits, bits^2)."""
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    c = np.log2(1.0 + gamma)
    v = gamma * (2.0 + gamma) / (1.0 + gamma) ** 2
    return float(c), float(v)


def _na_argument(i: float, v: float, n: int, r: float) -> float:
    """Q-function argument sqrt(N/V) (I - R + log2(N)/(2N)); +-inf for V = 0."""
    if n < 2:
        raise ValueError("blocklength must be >= 2")
    if v < 0.0:
        raise ValueError("dispersion must be nonnegative")
    margin = i - r + np.log2(n) / (2.0 * n)
    if v == 0.0:
        return np.inf if margin > 0.0 else -np.inf
    return np.sqrt(n / v) * margin


def normal_approx_bler(i: float, v: float, n: int, r: float) -> float:
    """Normal-approximation BLER Q(sqrt(N/V) (I - R + log2(N)/(2N))).

    V = 0 degenerates to a step function: zero error below the corrected
    capacity, certain error above it. The value underflows to 0 once the
    argument passes about 38; compare log BLERs there.
    """
    return float(0.5 * erfc(_na_argument(i, v, n, r) / np.sqrt(2.0)))


def normal_approx_log_bler(i: float, v: float, n: int, r: float) -> float:
    """Natural log of normal_approx_bler, finite far past its underflow."""
    return float(log_ndtr(-_na_argument(i, v, n, r)))


# ---------------------------------------------------------------------------
# Differential equivalent channel
# ---------------------------------------------------------------------------

def diff_transition_logpdf(z, delta_phi: float, params: DiffChannelParams) -> float:
    """Natural log of the pair transition density p(z | delta_phi).

    z is the 4-vector (Re z1, Im z1, Re z2, Im z2) or a complex pair.
    """
    z = np.asarray(z)
    if z.shape == (4,) and not np.iscomplexobj(z):
        z1 = z[0] + 1j * z[1]
        z2 = z[2] + 1j * z[3]
    elif z.shape == (2,):
        z1, z2 = z[0], z[1]
    else:
        raise ValueError("z must be a real 4-vector or a complex pair")
    g = params.gamma
    kappa = params.kappa
    norm = np.log(g ** 2 / (np.pi ** 2 * kappa))
    quad = -(2.0 * params.sigma2 * g ** 2 / kappa) * (abs(z1) ** 2 + abs(z2) ** 2)
    cross = (2.0 * g ** 2 * params.rho / kappa) * np.real(
        np.conj(z1) * z2 * np.exp(-1j * delta_phi)
    )
    return float(norm + quad + cross)


def _sample_pair_product(params: DiffChannelParams, n: int, rng) -> np.ndarray:
    """Draw p = conj(z1) z2 under delta_phi = 0.

    (Re z1, Re z2) and (Im z1, Im z2) are independent bivariate normals with
    covariance [[sigma^2, eta], [eta, sigma^2]]; the Cholesky factor is
    applied inline.
    """
    s2 = params.sigma2
    eta = params.eta
    a = np.sqrt(s2)
    b1 = eta / a
    b2 = np.sqrt(s2 - b1 * b1)
    u = rng.standard_normal((4, n))
    z1 = a * u[0] + 1j * a * u[2]
    z2 = (b1 * u[0] + b2 * u[1]) + 1j * (b1 * u[2] + b2 * u[3])
    return np.conj(z1) * z2


def _density_from_exponents(ex: np.ndarray) -> np.ndarray:
    """log2 M - log2 sum_m exp(ex[m]) in bits, log-sum-exp guarded, for the
    M candidates on the first axis of ex. Each step is elementwise over whole
    planes ex[m], in place, so ex (overwritten) is the one large array."""
    mx = ex.max(axis=0)
    ex -= mx
    np.exp(ex, out=ex)
    return np.log2(ex.shape[0]) - (mx + np.log(ex.sum(axis=0))) / LN2


def _diff_density(re: np.ndarray, im: np.ndarray, params: DiffChannelParams) -> np.ndarray:
    """Differential density at p = conj(z1) z2 = re + j im (any shape), with
    the sine term added plane by plane so that ex stays the one large array:
    c (F_m - F_0) = 2c (Re(p e^{-j dphi_m}) - Re p)
                  = 2c ((cos dphi_m - 1) Re p + sin dphi_m Im p).
    """
    dphi = 2.0 * np.pi * np.arange(params.order) / params.order
    two_c = 2.0 * params.quad_coeff
    ex = np.multiply.outer(two_c * (np.cos(dphi) - 1.0), re)
    for ex_m, sin_m in zip(ex, two_c * np.sin(dphi)):
        ex_m += sin_m * im
    return _density_from_exponents(ex)


def _coherent_density(gamma_hat: float, q, w, d) -> np.ndarray:
    """Coherent density at fading power q = |h|^2 and noise w in the frame
    where h is real, from -gamma_hat q |D|^2 - 2 sqrt(gamma_hat q) Re(conj(w) D)
    with D = x_j - x_i, candidates x_i on the first axis of d (all broadcast).
    Real w and d give the density of one PAM axis of square QAM."""
    ex = d.real * w.real
    ex += d.imag * w.imag
    ex = ex * (-2.0 * np.sqrt(gamma_hat * q))
    ex += (-gamma_hat * np.abs(d) ** 2) * q
    return _density_from_exponents(ex)


def sample_diff_density(
    params: DiffChannelParams, n: int, rng, chunk: int = 1 << 18,
) -> np.ndarray:
    """n i.i.d. per-use information densities of the differential channel.

    i = log2 M - log2 sum_m exp(c (F(dphi_m) - F(dphi_0))) with the
    transmitted difference fixed to dphi_0 = 0 (PSK symmetry makes the
    density's law input-independent). Draws are made `chunk` at a time, so
    n <= chunk consumes the same stream as one draw of n.
    """
    out = np.empty(n)
    done = 0
    while done < n:
        m = min(chunk, n - done)
        p = _sample_pair_product(params, m, rng)
        out[done : done + m] = _diff_density(p.real, p.imag, params)
        done += m
    return out


# draws evaluated at a time by sample_coherent_density: its (M, block)
# temporaries then stay in cache, where a whole chunk's would not
_COHERENT_BLOCK = 4096


def sample_coherent_density(
    gamma_hat: float, constellation: Constellation, n: int, rng,
    chunk: int = 1 << 18,
) -> np.ndarray:
    """n i.i.d. per-use densities of the coherent fading channel.

    Conditions on h ~ CN(0,1) (perfectly known), w ~ CN(0,1), and a uniform
    input; the mixture term for candidate x_i only needs
    |w|^2 - |w + sqrt(g) h (x_j - x_i)|^2
      = -g |h|^2 |D|^2 - 2 sqrt(g) |h| Re(conj(w e^{-j arg h}) D),
    D = x_j - x_i.

    Draws are made `chunk` at a time, so n <= chunk consumes the same stream
    as one draw of n. The density of each chunk is evaluated _COHERENT_BLOCK
    draws at a time; its arithmetic is elementwise per draw, so the block
    changes the working set, not the output. w e^{-j arg h} is still formed
    per chunk: numpy reuses a product's temporary operand in place when it
    exceeds 256 KiB, which swaps the operands of the complex product and
    moves some of its roundings, so a per-block product would move the
    output in the last bit.
    """
    if gamma_hat <= 0.0:
        raise ValueError("gamma_hat must be positive")
    pts = constellation.points
    order = pts.size
    out = np.empty(n)
    done = 0
    while done < n:
        m = min(chunk, n - done)
        h = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * np.sqrt(0.5)
        w = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * np.sqrt(0.5)
        j = rng.integers(0, order, size=m)
        w_h = w * np.exp(-1j * np.angle(h))
        q = np.abs(h) ** 2
        for lo in range(0, m, _COHERENT_BLOCK):
            sl = slice(lo, lo + _COHERENT_BLOCK)
            d = pts[j[sl]] - pts[:, None]  # (order, block)
            out[done + lo : done + lo + d.shape[1]] = _coherent_density(
                gamma_hat, q[sl], w_h[sl], d)
        done += m
    return out


# ---------------------------------------------------------------------------
# Deterministic (I, V) by tensor quadrature
# ---------------------------------------------------------------------------

# Both channels are rotated so that one Rayleigh factor is real: the density
# is then a function of q ~ Exp(1), the power of that factor, and of one
# CN(0, 1) variable, integrated by a q rule times a 2-D Gauss-Hermite rule.
Q_NODES = 48
Q_NODES_COARSE = 24  # the error scale is |Q_NODES rule - this rule|, no bound
GH_NODES = 20
Q_MAX = 45.0  # P(q > 45) = e^-45


@lru_cache(maxsize=None)
def _legendre(n_nodes: int):
    return leggauss(n_nodes)


@lru_cache(maxsize=None)
def _cn_rule():
    """Nodes and weights of E[f(w)], w ~ CN(0, 1): GH_NODES^2 points."""
    t, wt = hermgauss(GH_NODES)
    nodes = (t[:, None] + 1j * t[None, :]).ravel()
    weights = (wt[:, None] * wt[None, :]).ravel() / np.pi
    return nodes, weights


def _exp_rule(gamma: float, n_nodes: int):
    """Nodes and weights of E[f(q)], q ~ Exp(1).

    Gauss-Legendre in ln q on [ln q_min, ln Q_MAX], q_min = 1e-4/max(gamma, 1):
    plain Gauss-Laguerre misses the change of the density near q ~ 1/gamma
    once gamma passes about 15 dB. A node at q = 0, where every density here
    is exactly 0, carries P(q < q_min); leaving that mass out would bias V by
    about q_min I^2.
    """
    q_min = 1e-4 / max(gamma, 1.0)
    t, w = _legendre(n_nodes)
    lo, hi = np.log(q_min), np.log(Q_MAX)
    q = np.exp(0.5 * (hi - lo) * t + 0.5 * (hi + lo))
    wq = 0.5 * (hi - lo) * w * q * np.exp(-q)
    return np.concatenate(([0.0], q)), np.concatenate(([-np.expm1(-q_min)], wq))


@dataclass(frozen=True)
class PerUseLaw:
    """Discrete law of the per-use information density (bits).

    The atoms are the quadrature nodes: densities[k, j] is the density at q
    node k and at Gauss-Hermite node (times input class) j, and
    weights[k, j] its probability. The weights sum to 1 up to the q rule's
    truncation.
    """

    densities: np.ndarray
    weights: np.ndarray

    def moments(self):
        """(I, V): the mean and variance of the law."""
        i = float(np.sum(self.weights * self.densities))
        return i, float(np.sum(self.weights * (self.densities - i) ** 2))


def _quadrature_iv(law):
    """(I, V) of law(Q_NODES), with |law(Q_NODES) - law(Q_NODES_COARSE)|
    as the error scale, and the Q_NODES law itself for the bounds."""
    fine = law(Q_NODES)
    i, v = fine.moments()
    i_coarse, v_coarse = law(Q_NODES_COARSE).moments()
    iv = IvEstimate(i=i, v=v, i_stderr=abs(i - i_coarse), v_stderr=abs(v - v_coarse),
                    n_samples=fine.densities.size)
    return iv, fine


def _diff_law(params: DiffChannelParams, n_nodes: int) -> PerUseLaw:
    """Per-use law of the differential channel.

    With z1 rotated real, |z1|^2 = s q (s = 2 sigma^2) and
    z2 = (rho/s) z1 + e, e ~ CN(0, s - rho^2/s), so that
    p = conj(z1) z2 = rho q + sqrt(s q) e. Conjugating e conjugates p, which
    maps candidate m to M - m and leaves the density as it was; so the rule
    keeps the Gauss-Hermite half plane Im e > 0 with doubled weights.
    """
    s = 2.0 * params.sigma2
    scale = np.sqrt(s * (s - params.rho ** 2 / s))
    w, ww = _cn_rule()
    upper = w.imag > 0.0
    w, ww = w[upper], 2.0 * ww[upper]
    q, wq = _exp_rule(params.gamma, n_nodes)
    root = (scale * np.sqrt(q))[:, None]
    dens = _diff_density(params.rho * q[:, None] + root * w.real, root * w.imag, params)
    return PerUseLaw(dens, wq[:, None] * ww)


def _input_classes(constellation: Constellation):
    """One input per symmetry class of the alphabet, with its probability.

    w is circular and its law is conjugation-invariant, so the density's law
    is the same for inputs that a symmetry of the alphabet maps onto each
    other: every PSK point is a rotation of the first, and square QAM falls
    into D4 classes of 4 (diagonal) or 8 points, represented in the sector
    0 < Re x <= Im x. The QAM representatives' real and imaginary parts
    are exact PAM levels of the alphabet, which the factorised law indexes.
    """
    pts = constellation.points
    if constellation.kind == "psk":
        return pts[:1], np.ones(1)
    if constellation.kind == "qam":
        tol = 1e-12
        rep = (pts.real > 0.0) & (pts.imag >= pts.real - tol)
        diagonal = np.abs(pts.imag - pts.real) <= tol
        return pts[rep], np.where(diagonal[rep], 4.0, 8.0) / pts.size
    return pts, np.full(pts.size, 1.0 / pts.size)


def _coherent_law(gamma_hat: float, constellation: Constellation, n_nodes: int) -> PerUseLaw:
    """Per-use law of the coherent fading channel.

    With h rotated real, |h|^2 = q and conj(w) h = sqrt(q) conj(w); the
    inputs enter through their symmetry classes. For square QAM the
    exponent splits into a real-axis and an imaginary-axis term,
    -g q D_r^2 - 2 sqrt(g q) w_r D_r and the same in (w_i, D_i), so the sum
    over the M = side^2 candidates is a product of two sums over the side
    PAM levels: the density is i_PAM(w_r, a) + i_PAM(w_i, b) for the input
    a + jb, and one table of the PAM density at the real Gauss-Hermite
    nodes gives every atom. PSK rows do not factor that way, so PSK and
    generic alphabets sum their M candidates over the 2-D plane.
    """
    if gamma_hat <= 0.0:
        raise ValueError("gamma_hat must be positive")
    pts = constellation.points
    reps, probs = _input_classes(constellation)
    w, ww = _cn_rule()
    q, wq = _exp_rule(gamma_hat, n_nodes)
    if constellation.kind == "qam":
        levels = np.unique(pts.real)  # the imaginary parts are the same floats
        t = w.real[::GH_NODES]  # the 1-D Gauss-Hermite nodes
        tab = _coherent_density(gamma_hat, q[:, None, None], t,
                                (levels - levels[:, None])[:, None, :, None])  # (q, level, t)
        ia, ib = np.searchsorted(levels, reps.real), np.searchsorted(levels, reps.imag)
        # written into a C-ordered array, so that the reshape below is a view
        dens = np.empty((q.size, reps.size, t.size, t.size))  # (q, class, Re w, Im w)
        np.add(tab[:, ia, :, None], tab[:, ib, None, :], out=dens)
    else:
        d = reps - pts[:, None]  # (order, classes)
        dens = _coherent_density(gamma_hat, q[:, None, None], w, d[:, None, :, None])
    return PerUseLaw(dens.reshape(q.size, -1), wq[:, None] * (probs[:, None] * ww).ravel())


def _iv_from_samples(samples: np.ndarray) -> IvEstimate:
    n = samples.size
    i = float(samples.mean())
    centered = samples - i
    v = float(centered @ centered / (n - 1))
    i_se = np.sqrt(v / n)
    m4 = float(np.mean(centered ** 4))
    v_se = np.sqrt(max(m4 - v * v, 0.0) / n)
    return IvEstimate(i=i, v=v, i_stderr=float(i_se), v_stderr=float(v_se), n_samples=n)


def diff_capacity_dispersion(
    params: DiffChannelParams, n_samples: int, seed
) -> IvEstimate:
    """Monte Carlo capacity/dispersion of the differential channel."""
    if n_samples < 10_000:
        raise ValueError("need at least 1e4 samples for a usable estimate")
    rng = as_rng(seed)
    return _iv_from_samples(sample_diff_density(params, n_samples, rng))


def coherent_capacity_dispersion(
    gamma_hat: float, constellation: Constellation, n_samples: int, seed
) -> IvEstimate:
    """Monte Carlo capacity/dispersion of the coherent fading channel."""
    if n_samples < 10_000:
        raise ValueError("need at least 1e4 samples for a usable estimate")
    rng = as_rng(seed)
    return _iv_from_samples(
        sample_coherent_density(gamma_hat, constellation, n_samples, rng)
    )


# ---------------------------------------------------------------------------
# Scheme-level wiring
# ---------------------------------------------------------------------------

IM_RHO_TOLERANCE = 0.05


def fddi_correlation(pdp, n_subcarriers: int) -> float:
    """Adjacent-subcarrier correlation used by the FDDi equivalent channel.

    The full correlation is complex for asymmetric delay profiles; the
    equivalent-channel covariance needs a real value, so the real part is
    used and a substantial dropped imaginary part triggers a
    ModelFidelityWarning.
    """
    rho = freq_correlation(1, pdp, n_subcarriers)
    if abs(rho.imag) > IM_RHO_TOLERANCE:
        warnings.warn(
            f"|Im rho_f(1)| = {abs(rho.imag):.4f} > {IM_RHO_TOLERANCE}: the "
            "real-valued differential channel model drops a non-negligible "
            "phase component; FDDi results are approximate here",
            ModelFidelityWarning,
            stacklevel=2,
        )
    return float(rho.real)


def tddi_correlation(doppler) -> float:
    """Adjacent-symbol correlation for TDDi: the Jakes value at lag 1."""
    return float(time_correlation(1, doppler))


@dataclass(frozen=True)
class EquivalentChannel:
    """The per-use channel one scheme's decoder sees at one operating point.

    Differential schemes carry their pair channel in `diff`; the
    pilot-assisted scheme carries the coherent channel at the effective SNR
    gamma_hat, with the estimation MSE sigma_e2 it came from.
    """

    scheme: str
    diff: DiffChannelParams | None = None
    gamma_hat: float | None = None
    constellation: Constellation | None = None
    sigma_e2: float | None = None

    def law(self, n_nodes: int = Q_NODES) -> PerUseLaw:
        """Per-use law on the n_nodes q rule."""
        if self.diff is not None:
            return _diff_law(self.diff, n_nodes)
        return _coherent_law(self.gamma_hat, self.constellation, n_nodes)

    def iv(self) -> IvEstimate:
        """(I, V) of law(), with the q-rule difference as error scale."""
        return _quadrature_iv(self.law)[0]

    @property
    def key(self):
        """What decides law(): the pair channel, or gamma_hat with the kind
        and order of the alphabet (which fix psk and qam points)."""
        if self.diff is not None:
            return self.scheme, self.diff
        return self.scheme, self.gamma_hat, self.constellation.kind, self.constellation.order


def equivalent_channel(
    scheme: str,
    grid: MiniSlotGrid,
    pdp,
    doppler,
    gamma: float,
    order: int,
    constellation: Constellation | None = None,
) -> EquivalentChannel:
    """Map a scheme at one operating point to its equivalent channel.

    Differential schemes map to the pair channel with their neighbor
    correlation; the pilot-assisted scheme runs the estimation MSE
    analysis and converts it to an effective SNR for the coherent channel.
    """
    if scheme == PA:
        sigma_e2 = channel_estimation_mse(pdp, doppler, grid, gamma).sigma_e2
        return EquivalentChannel(
            scheme=PA,
            gamma_hat=effective_snr(sigma_e2, 1.0 / gamma),
            constellation=(constellation if constellation is not None
                           else default_constellation(scheme, order)),
            sigma_e2=sigma_e2,
        )
    if scheme in (FDDI, TDDI):
        rho = (
            fddi_correlation(pdp, grid.n_subcarriers)
            if scheme == FDDI
            else tddi_correlation(doppler)
        )
        return EquivalentChannel(scheme, DiffChannelParams(gamma=gamma, rho=rho, order=order))
    raise ValueError(f"unknown scheme {scheme!r}")


def feasible_blocklength(grid: MiniSlotGrid, scheme: str, n_info_bits: int, order: int) -> int:
    """The scheme's data-symbol count N; InfeasiblePayloadError when B bits
    need more than log2(M) bits per symbol."""
    n = data_symbol_count(grid, scheme)
    r = n_info_bits / n
    if r > np.log2(order):
        raise InfeasiblePayloadError(
            f"{scheme}: B={n_info_bits} over N={n} needs {r:.3f} bits/symbol "
            f"> log2(M)={np.log2(order):.3f}"
        )
    return n


def channel_fbl(
    channel: EquivalentChannel, n: int, n_info_bits: int, bounds: bool = False,
) -> FblResult:
    """Normal-approximation BLER of one equivalent channel over N uses, a
    function of the channel alone (R = B/N); with bounds, also lattice_bounds
    of the Q_NODES law (I, V) came from, which is then dropped."""
    iv, law = _quadrature_iv(channel.law)
    r = n_info_bits / n
    return FblResult(
        scheme=channel.scheme, i=iv.i, v=iv.v, n=n, r=float(r),
        epsilon=normal_approx_bler(iv.i, iv.v, n, r),
        log_epsilon=normal_approx_log_bler(iv.i, iv.v, n, r),
        i_stderr=iv.i_stderr, v_stderr=iv.v_stderr,
        sigma_e2=channel.sigma_e2, gamma_hat=channel.gamma_hat,
        bounds=lattice_bounds(law.densities, law.weights, n, n_info_bits) if bounds else None,
    )


def scheme_fbl(scheme: str, grid: MiniSlotGrid, pdp, doppler, gamma: float, n_info_bits: int,
               order: int, constellation: Constellation | None = None) -> FblResult:
    """Normal-approximation BLER of one scheme at one operating point: the
    channel_fbl of its equivalent_channel over its feasible_blocklength."""
    n = feasible_blocklength(grid, scheme, n_info_bits, order)
    channel = equivalent_channel(scheme, grid, pdp, doppler, gamma, order, constellation)
    return channel_fbl(channel, n, n_info_bits)
