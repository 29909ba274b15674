"""Channel statistics: correlation functions and grid sampling."""

import numpy as np
import pytest

from minislot.channel import (
    DopplerSpec,
    PowerDelayProfile,
    exponential_pdp,
    freq_correlation,
    sample_channel_grids,
    time_correlation,
)

import oracles
from oracles import j0_series, rho_f_direct


def test_exponential_pdp_is_normalized_geometric():
    pdp = exponential_pdp(5, decay=1.0)
    assert pdp.n_taps == 5
    assert pdp.taps.sum() == pytest.approx(1.0, abs=1e-15)
    # successive ratios all equal e^-1
    ratios = pdp.taps[1:] / pdp.taps[:-1]
    assert np.allclose(ratios, np.exp(-1.0), rtol=1e-14)
    # closed form: taps[l] = e^{-l} (1-e^-1)/(1-e^-5)
    expect = np.exp(-np.arange(5)) * (1 - np.exp(-1)) / (1 - np.exp(-5))
    assert np.allclose(pdp.taps, expect, rtol=1e-14)


def test_exponential_pdp_zero_decay_is_uniform():
    pdp = exponential_pdp(4, decay=0.0)
    assert np.allclose(pdp.taps, 0.25)


def test_pdp_validation():
    with pytest.raises(ValueError):
        PowerDelayProfile(np.array([0.5, 0.6]))  # not normalized
    with pytest.raises(ValueError):
        PowerDelayProfile(np.array([1.5, -0.5]))  # negative power
    with pytest.raises(ValueError):
        exponential_pdp(0)
    with pytest.raises(ValueError):
        DopplerSpec(-0.01)


def test_time_correlation_matches_bessel_series():
    doppler = DopplerSpec(0.1)
    for dt in range(0, 8):
        got = time_correlation(dt, doppler)
        want = j0_series(2 * np.pi * 0.1 * dt)
        assert got == pytest.approx(want, abs=1e-12)
    assert time_correlation(0, doppler) == 1.0
    assert time_correlation(3, DopplerSpec(0.0)) == 1.0
    # accepts a bare float too
    assert time_correlation(2, 0.1) == pytest.approx(
        time_correlation(2, doppler), abs=0
    )


@pytest.mark.parametrize("fd_ts", (np.nan, np.inf, -0.01))
@pytest.mark.parametrize("wrap", (float, DopplerSpec), ids=("float", "DopplerSpec"))
def test_time_correlation_rejects_bad_fd_ts(fd_ts, wrap):
    """A float and a DopplerSpec meet the one validation rule."""
    with pytest.raises(ValueError, match=r"^fdTs must be finite and >= 0$"):
        time_correlation(1, wrap(fd_ts))


def test_time_correlation_vectorizes():
    dts = np.arange(7)
    vals = time_correlation(dts, DopplerSpec(0.05))
    assert vals.shape == (7,)
    assert np.all(np.abs(vals) <= 1.0 + 1e-15)


def test_freq_correlation_matches_direct_sum():
    pdp = exponential_pdp(5, 1.0)
    for dk in [-7, -3, -1, 0, 1, 2, 5, 31, 64]:
        got = freq_correlation(dk, pdp, 64)
        want = rho_f_direct(dk, pdp.taps, 64)
        assert got == pytest.approx(want, abs=1e-14)


def test_freq_correlation_basic_properties():
    # Hermitian symmetry, unit value at zero lag, magnitude <= 1, K-periodic
    rng = np.random.default_rng(42)
    for _ in range(20):
        n_taps = int(rng.integers(1, 9))
        decay = float(rng.uniform(0.0, 3.0))
        K = int(rng.choice([16, 64, 256]))
        dk = int(rng.integers(-K, K))
        pdp = exponential_pdp(n_taps, decay)
        r = freq_correlation(dk, pdp, K)
        assert abs(r) <= 1.0 + 1e-12
        assert freq_correlation(0, pdp, K) == pytest.approx(1.0, abs=1e-15)
        assert r == pytest.approx(np.conj(freq_correlation(-dk, pdp, K)), abs=1e-12)
        assert r == pytest.approx(freq_correlation(dk + K, pdp, K), abs=1e-12)


def test_freq_correlation_single_tap_is_flat():
    pdp = PowerDelayProfile(np.array([1.0]))
    for dk in range(5):
        assert freq_correlation(dk, pdp, 64) == pytest.approx(1.0, abs=1e-15)


def test_sample_grid_shapes_and_determinism():
    pdp = exponential_pdp(5, 1.0)
    H, taps = sample_channel_grids(pdp, DopplerSpec(0.05), 64, 4, 10, seed=3)
    assert H.shape == (10, 64, 4)
    assert taps.shape == (10, 5, 4)
    H2, taps2 = sample_channel_grids(pdp, DopplerSpec(0.05), 64, 4, 10, seed=3)
    assert np.array_equal(H, H2)
    assert np.array_equal(taps, taps2)
    H1, _ = sample_channel_grids(pdp, DopplerSpec(0.05), 64, 4, 1, seed=3)
    H1b, _ = sample_channel_grids(pdp, DopplerSpec(0.05), 64, 4, 1, seed=3)
    assert np.array_equal(H1, H1b)


def test_sample_grid_rejects_too_few_subcarriers():
    pdp = exponential_pdp(5, 1.0)
    with pytest.raises(ValueError):
        sample_channel_grids(pdp, DopplerSpec(0.0), 5, 2, 1, seed=0)


def test_static_channel_is_exactly_constant_in_time():
    # fdTs = 0 must give bit-identical columns, not merely close ones
    pdp = exponential_pdp(5, 1.0)
    H, taps = sample_channel_grids(pdp, DopplerSpec(0.0), 64, 7, 5, seed=1)
    for t in range(1, 7):
        assert np.array_equal(H[:, :, t], H[:, :, 0])
        assert np.array_equal(taps[:, :, t], taps[:, :, 0])


def test_h_is_dft_of_taps():
    pdp = exponential_pdp(4, 1.0)
    H, taps = sample_channel_grids(pdp, DopplerSpec(0.1), 32, 2, 1, seed=9)
    k = np.arange(32)[:, None]
    l = np.arange(4)[None, :]
    F = np.exp(-2j * np.pi * k * l / 32)
    assert np.allclose(H[0], F @ taps[0], atol=1e-12)


def test_sample_statistics_match_model():
    """Empirical second moments vs the analytic correlation functions."""
    pdp = exponential_pdp(5, 1.0)
    doppler = DopplerSpec(0.08)
    K, T, n = 64, 4, 40_000
    H, _ = sample_channel_grids(pdp, doppler, K, T, n, seed=17)
    # unit power per resource element
    pw = np.mean(np.abs(H) ** 2)
    assert pw == pytest.approx(1.0, abs=4 / np.sqrt(n))
    # time correlation at lag 2 on one subcarrier
    r_t = np.mean(H[:, 5, 0] * np.conj(H[:, 5, 2]))
    assert r_t.real == pytest.approx(time_correlation(2, doppler), abs=5 / np.sqrt(n))
    # frequency correlation: E[H_k1 H_k2^*] = rho_f(k1 - k2)
    r_f = np.mean(H[:, 10, 1] * np.conj(H[:, 13, 1]))
    want = freq_correlation(-3, pdp, K)
    assert abs(r_f - want) < 5 / np.sqrt(n)
    # joint lag factors into time * frequency parts
    r_tf = np.mean(H[:, 4, 0] * np.conj(H[:, 6, 3]))
    want_tf = time_correlation(-3, doppler) * freq_correlation(-2, pdp, K)
    assert abs(r_tf - want_tf) < 5 / np.sqrt(n)


def test_taps_are_mutually_independent():
    pdp = exponential_pdp(3, 0.0)
    _, taps = sample_channel_grids(pdp, DopplerSpec(0.05), 8, 2, 50_000, seed=23)
    c01 = np.mean(taps[:, 0, 0] * np.conj(taps[:, 1, 0]))
    c02 = np.mean(taps[:, 0, 1] * np.conj(taps[:, 2, 1]))
    assert abs(c01) < 5 / np.sqrt(50_000)
    assert abs(c02) < 5 / np.sqrt(50_000)


def test_sample_channel_grids_match_the_direct_draw():
    """The tap draw, split out so that measure_mse takes the same stream,
    leaves sample_channel_grids bit for bit what it was."""
    for n_taps, fd, K, T, n, seed in (
        (5, 0.0, 64, 7, 9, 1), (5, 0.05, 64, 4, 100, 2), (12, 0.2, 16, 2, 3, 3),
        (40, 0.01, 256, 7, 20, 4), (1, 0.1, 8, 1, 5, 5),
    ):
        pdp = exponential_pdp(n_taps, 0.3)
        H, taps = sample_channel_grids(pdp, DopplerSpec(fd), K, T, n, seed=seed)
        H0, taps0 = oracles.sample_channel_grids_direct(pdp, DopplerSpec(fd), K, T, n, seed)
        assert np.array_equal(taps, taps0) and np.array_equal(H, H0), (n_taps, fd, K, T)
