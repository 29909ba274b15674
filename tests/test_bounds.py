"""Converse/achievability bounds on block error probability: the
deterministic lattice bounds and their Monte Carlo reference."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import binom

import oracles
from minislot.bounds import (
    FFT_ROUNDOFF,
    LATTICE_FLOOR,
    LATTICE_STEP,
    block_density_samples,
    dt_upper_bound,
    is_lower_bound,
    lattice_bounds,
    _dt_threshold,
    _fast_size,
    _lattice_bounds,
    _TILTS,
    _window,
)
from minislot.channel import DopplerSpec, exponential_pdp
from minislot.fbl import (
    DiffChannelParams,
    EquivalentChannel,
    equivalent_channel,
    sample_coherent_density,
    sample_diff_density,
)
from minislot.grid import FDDI, PA, TDDI, MiniSlotGrid, psk, standard_pattern


def _counting_sampler(n, rng):
    # deterministic ramp; ignores the rng on purpose
    return np.arange(n, dtype=float)


def test_block_density_reshape_and_sum():
    got = block_density_samples(_counting_sampler, 3, 2, seed=0)
    np.testing.assert_array_equal(got, [0 + 1 + 2, 3 + 4 + 5])


def test_block_density_deterministic():
    sampler = lambda n, rng: rng.standard_normal(n)
    a = block_density_samples(sampler, 7, 500, seed=42)
    b = block_density_samples(sampler, 7, 500, seed=42)
    np.testing.assert_array_equal(a, b)
    c = block_density_samples(sampler, 7, 500, seed=43)
    assert not np.array_equal(a, c)


def test_is_bound_hand_case():
    # blocks with densities 1, 2, 3 bits against B = 10 info bits:
    # objective k/n - 2^(s_k - B) peaks at the largest sample,
    # 3/3 - 2^-7 = 0.9921875, with an exact empirical cdf of 1 there.
    est = is_lower_bound(np.array([1.0, 2.0, 3.0]), 10)
    assert est.kind == "IS"
    assert est.value == 1.0 - 2.0 ** (3 - 10)
    assert est.log2_beta_star == 3.0
    assert est.stderr == 0.0  # cdf hit 1 at the optimum
    assert est.n_samples == 3


def test_is_bound_clamps_at_zero():
    # all mass far above the 2^-B knee: objective negative everywhere
    est = is_lower_bound(np.array([1.0, 1.5]), 1)
    assert est.value == 0.0


def test_is_bound_matches_brute_force_search():
    rng = np.random.default_rng(3)
    s = np.sort(rng.normal(20.0, 4.0, size=4000))
    n = s.size
    best_val, best_log2beta = 0.0, None
    for k in range(n):
        val = (k + 1) / n - 2.0 ** (s[k] - 18)
        if val > best_val:
            best_val, best_log2beta = val, s[k]
    est = is_lower_bound(s, 18)
    assert est.value == pytest.approx(best_val, abs=1e-15)
    assert est.log2_beta_star == best_log2beta


def test_dt_threshold_values():
    assert _dt_threshold(1) == -1.0
    want = 11 + np.log2(1 - 2.0 ** -12)
    assert _dt_threshold(12) == pytest.approx(want, abs=1e-14)
    # gigantic B: the 2^-B correction underflows cleanly to zero
    assert _dt_threshold(20_000) == 19_999.0


def test_dt_bound_hand_case():
    # B = 1: threshold log2(1/2) = -1; samples -2, 0, 3 give
    # exceedances 0, 1, 4 bits -> mean(1, 1/2, 1/16)
    s = np.array([-2.0, 0.0, 3.0])
    est = dt_upper_bound(s, 1)
    assert est.kind == "DT"
    assert est.value == pytest.approx((1 + 0.5 + 0.0625) / 3, abs=1e-15)
    assert est.log2_beta_star is None
    terms = np.array([1.0, 0.5, 0.0625])
    assert est.stderr == pytest.approx(terms.std(ddof=1) / np.sqrt(3), rel=1e-12)


def test_bounds_monotone_in_payload():
    """Every extra info bit makes decoding harder: both bounds are
    nondecreasing in B on the same density samples."""
    rng = np.random.default_rng(4)
    s = rng.normal(30.0, 6.0, size=20_000)
    is_vals = [
        is_lower_bound(s, b).value
        for b in (20, 25, 30, 35)
    ]
    dt_vals = [
        dt_upper_bound(s, b).value
        for b in (20, 25, 30, 35)
    ]
    assert all(b2 >= b1 for b1, b2 in zip(is_vals, is_vals[1:]))
    assert all(b2 >= b1 for b1, b2 in zip(dt_vals, dt_vals[1:]))
    assert all(lo <= hi for lo, hi in zip(is_vals, dt_vals))


def test_bounds_sandwich_on_differential_channel():
    params = DiffChannelParams(gamma=1.585, rho=0.98, order=4)
    sampler = lambda n, rng: sample_diff_density(params, n, rng)
    blocks = block_density_samples(sampler, 24, 100_000, seed=13)
    lo = is_lower_bound(blocks, 18)
    hi = dt_upper_bound(blocks, 18)
    assert 0.0 < lo.value
    assert lo.value <= hi.value <= 1.0
    assert hi.stderr > 0.0


def test_bound_input_validation():
    s = np.zeros(10)
    with pytest.raises(ValueError):
        block_density_samples(_counting_sampler, 0, 5, seed=0)
    with pytest.raises(ValueError):
        block_density_samples(_counting_sampler, 5, 0, seed=0)
    with pytest.raises(ValueError):
        is_lower_bound(s, 0)
    with pytest.raises(ValueError):
        dt_upper_bound(s, 0)
    for densities, weights, n_uses, b in (
        ([0.0, 1.0], [0.5], 4, 4),  # one weight per density
        ([0.0, 1.0], [1.5, -0.5], 4, 4),
        ([0.0, 1.0], [0.0, 0.0], 4, 4),
        ([0.0, 1.0], [0.5, 0.5], 0, 4),
        ([0.0, 1.0], [0.5, 0.5], 4, 0),
    ):
        with pytest.raises(ValueError):
            lattice_bounds(densities, weights, n_uses, b)


def _two_atom_block_law(n_uses, low, high, p_high):
    """Exact law of i_N when each use is `high` w.p. p_high, else `low`:
    support ascending in the binomial count of high uses, the binomial pmf
    taken in log arithmetic."""
    j = np.arange(n_uses + 1)
    return low * (n_uses - j) + high * j, np.exp(binom.logpmf(j, n_uses, p_high))


@pytest.mark.parametrize("n_uses, b", ((20, 8), (20, 12), (30, 10), (2000, 850)))
def test_lattice_bounds_two_atom_law_is_binomial(n_uses, b):
    """Atoms on the lattice bin exactly, so the FFT law of i_N is the
    binomial law and IS and DT take their exact values. At N = 2000 the
    window lies inside the span (see the next test)."""
    t, pmf = _two_atom_block_law(n_uses, -2.0, 1.5, 0.7)
    with np.errstate(over="ignore"):
        exact_is = max(0.0, float(np.max(np.cumsum(pmf) - np.exp2(t - b))))
    exact_dt = float(pmf @ np.exp2(-np.maximum(t - _dt_threshold(b), 0.0)))
    lo, hi = lattice_bounds([-2.0, 1.5], [0.3, 0.7], n_uses, b)
    assert 0.1 < exact_is < exact_dt < 1.0
    assert (lo.kind, hi.kind) == ("IS", "DT")
    assert abs(lo.value - exact_is) <= FFT_ROUNDOFF <= lo.stderr <= 2 * FFT_ROUNDOFF
    assert abs(hi.value - exact_dt) <= FFT_ROUNDOFF <= hi.stderr <= 2 * FFT_ROUNDOFF
    assert lo.log2_beta_star in t
    assert lo.n_samples == hi.n_samples == 2


def test_lattice_bounds_tail_below_floor_is_conservative():
    """A use below -20 bits leaves IS's CDF and counts as an error in DT;
    the error scale covers the mass so moved."""
    p_in = (1 - 1e-3) ** 10
    lo, _ = lattice_bounds([-30.0, 1.0], [1e-3, 1 - 1e-3], 10, 12)
    assert lo.value == pytest.approx(p_in - 0.25, abs=1e-12)
    assert lo.value + lo.stderr >= 1.0 - 0.25
    _, hi = lattice_bounds([-30.0, 1.0], [1e-3, 1 - 1e-3], 10, 4)
    want = p_in * 2.0 ** -(10 - _dt_threshold(4)) + (1 - p_in)
    assert hi.value == pytest.approx(want, abs=1e-12)
    assert hi.stderr >= 1 - p_in


def test_two_atom_window_lies_inside_the_span_at_large_n():
    """At N = 2000 the two-atom law's window lies strictly inside its span
    and reaches past the FFT length, so the binomial case above reads the
    N-fold law at an offset m0 > 0, wrapped mod that length."""
    pmf = np.zeros(352)  # the kernel's binning: -2.0 and 1.5 sit on bins 0 and 350
    pmf[[0, 350]] = 0.3, 0.7
    m0, m1 = _window(pmf, 2000)
    assert 0 < m0 < m1 < 2000 * 350
    assert m1 >= _fast_size(m1 - m0 + 1)


def test_window_holds_one_tilt_matrix():
    """_window's Chernoff bounds exponentiate one (tilts x bins) array in
    place: over 2e4 bins (4.2 MB of tilts) the traced peak stays within 1.5
    times that array, where an out-of-place exp needs three of them."""
    pmf = np.random.default_rng(3).random(20_000)
    tilt_bytes = 2 * _TILTS.size * pmf.size * 8
    tracemalloc.start()
    try:
        m0, m1 = _window(pmf, 126)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * tilt_bytes, peak
    assert 0 <= m0 < m1 <= 126 * (pmf.size - 1)


def test_lattice_bounds_single_atom_far_above_payload():
    """One atom is a zero-variance law with an empty lattice bin, and at
    N = 1000 its window sits 1990 bits above B, where every IS objective
    overflows to -inf: IS reads 0 and DT the floor, with finite error
    scales and no floating-point warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = lattice_bounds([2.0], [1.0], 1000, 10)
    assert lo.value == 0.0
    assert hi.value == FFT_ROUNDOFF
    assert all(math.isfinite(x) for x in (lo.stderr, hi.stderr, lo.log2_beta_star))


def test_lattice_bounds_floor_and_clip():
    """Far below the payload's threshold, IS clips at 0 and DT (exactly
    2^-191 here) reads the round-off floor; neither leaves [0, 1]."""
    lo, hi = lattice_bounds([2.0], [1.0], 100, 10)
    assert lo.value == 0.0
    assert hi.value == FFT_ROUNDOFF
    _, hi = lattice_bounds([-30.0, 1.0], [1e-3, 1 - 1e-3], 10, 12)
    assert hi.value == 1.0


DIFF_CHANNEL = EquivalentChannel(FDDI, diff=DiffChannelParams(gamma=1.585, rho=0.98, order=4))
PA_CHANNEL = EquivalentChannel(PA, gamma_hat=1.585, constellation=psk(4))


def test_lattice_bounds_monotone_in_payload():
    law = DIFF_CHANNEL.law()
    pairs = [lattice_bounds(law.densities, law.weights, 24, b) for b in (10, 14, 18, 22, 26)]
    is_vals = [lo.value for lo, _ in pairs]
    dt_vals = [hi.value for _, hi in pairs]
    assert all(b2 > b1 for b1, b2 in zip(is_vals, is_vals[1:]))
    assert all(b2 > b1 for b1, b2 in zip(dt_vals, dt_vals[1:]))
    assert all(lo <= hi for lo, hi in zip(is_vals, dt_vals))


@pytest.mark.parametrize("channel, sampler, b", [
    (DIFF_CHANNEL, lambda n, rng: sample_diff_density(DIFF_CHANNEL.diff, n, rng), 18),
    (PA_CHANNEL, lambda n, rng: sample_coherent_density(1.585, psk(4), n, rng), 24),
], ids=("differential", "coherent"))
def test_lattice_bounds_agree_with_monte_carlo(channel, sampler, b):
    """The quadrature law's bounds against 2e5 sampled blocks of the
    channel: within 3 standard errors plus the reported error scale."""
    law = channel.law()
    lo, hi = lattice_bounds(law.densities, law.weights, 24, b)
    blocks = block_density_samples(sampler, 24, 200_000, seed=21)
    mc_lo = is_lower_bound(blocks, b)
    mc_hi = dt_upper_bound(blocks, b)
    assert 1e-3 < lo.value < hi.value < 0.9
    assert abs(lo.value - mc_lo.value) <= 3 * mc_lo.stderr + lo.stderr, (lo, mc_lo)
    assert abs(hi.value - mc_hi.value) <= 3 * mc_hi.stderr + hi.stderr, (hi, mc_hi)


def _inside_law(scheme, order, gamma_db):
    """The scheme's quadrature law on the default grid (K = 64, T = 2,
    fdTs 0.05), normalized, atoms below LATTICE_FLOOR dropped, with its I."""
    grid = MiniSlotGrid(64, 2, standard_pattern(2, False, 2))
    law = equivalent_channel(scheme, grid, exponential_pdp(5, 1.0), DopplerSpec(0.05),
                             10.0 ** (gamma_db / 10.0), order).law()
    d, w = law.densities.ravel(), law.weights.ravel() / law.weights.sum()
    inside = d >= LATTICE_FLOOR
    return d[inside], w[inside], float(w @ d)


def _assert_kernel_matches_oracle(d, w, n_uses, b, where):
    for step in (LATTICE_STEP, 2.0 * LATTICE_STEP):
        got = _lattice_bounds(d, w, n_uses, b, step)
        want = oracles.lattice_bounds_direct(d, w, n_uses, b, step)
        assert abs(got[0] - max(want[0], 0.0)) <= FFT_ROUNDOFF, (where, step, got, want)
        assert abs(got[2] - want[2]) <= FFT_ROUNDOFF, (where, step, got, want)


@pytest.mark.parametrize("scheme", (PA, FDDI, TDDI))
def test_windowed_kernel_matches_full_span_oracle(scheme):
    """The windowed N-fold law gives the full-span kernel's IS and DT to
    the FFT's roundoff, at both lattice steps, over orders 2-16, -5 to
    30 dB, N = 24 and 126, and payloads from trivial to near N I."""
    for order in (2, 4, 16):
        for gamma_db in (-5.0, 10.0, 30.0):
            d, w, info = _inside_law(scheme, order, gamma_db)
            for n_uses in (24, 126):
                for b in sorted({8, 256, max(1, round(0.9 * n_uses * info))}):
                    _assert_kernel_matches_oracle(d, w, n_uses, b, (order, gamma_db, n_uses, b))


@pytest.mark.parametrize("scheme, order, gamma_db", ((FDDI, 16, 10.0), (PA, 4, 0.0)))
def test_windowed_kernel_matches_full_span_oracle_at_large_n(scheme, order, gamma_db):
    """The same agreement at N = 1785 (K = 256, T = 7), with the payload
    at 0.9 N I where both bounds are far from 0 and 1."""
    d, w, info = _inside_law(scheme, order, gamma_db)
    _assert_kernel_matches_oracle(d, w, 1785, round(0.9 * 1785 * info), None)


def test_lattice_bounds_memory_stays_with_the_window():
    """At FDDi's N = 7161 (K = 1024, T = 7) the full span holds 1.7e7 bins
    and the full-span kernel needs hundreds of MB; the window keeps the
    traced peak under 50 MB."""
    law = DIFF_CHANNEL.law()
    tracemalloc.start()
    try:
        lo, hi = lattice_bounds(law.densities, law.weights, 7161, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6, peak
    assert 0.0 < lo.value < hi.value < 1.0
