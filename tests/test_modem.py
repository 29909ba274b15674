"""Differential encoding/detection and the OFDM chain equivalence."""

import numpy as np
import pytest

from minislot.channel import DopplerSpec, exponential_pdp, sample_channel_grids
from minislot.grid import FDDI, PA, TDDI, psk, qam
from minislot.modem import (
    DegenerateEstimateError,
    coherent_detect,
    differential_detect,
    differential_encode,
    fast_rx,
    ofdm_time_domain_chain,
)


def one_grid(pdp, fd_ts, n_subcarriers, n_symbols, seed):
    """(H, taps) of one channel realization on a K x T grid."""
    H, taps = sample_channel_grids(pdp, DopplerSpec(fd_ts), n_subcarriers, n_symbols, 1, seed)
    return H[0], taps[0]


def random_psk_indices(rng, order, shape):
    return rng.integers(0, order, size=shape)


def test_differential_encode_fddi():
    v = np.array([[1j], [-1.0], [1j]])  # phases pi/2, pi, pi/2 down one symbol
    d = differential_encode(v, FDDI)
    assert d.shape == (4, 1)
    assert d[0, 0] == 1.0 + 0j
    assert np.allclose(d[:, 0], [1, 1j, -1j, 1.0])


def test_differential_encode_tddi():
    v = np.array([[1j, 1j, -1.0]])
    d = differential_encode(v, TDDI)
    assert d.shape == (1, 4)
    assert np.allclose(d[0], [1, 1j, -1, 1.0])


def test_differential_encode_rejects_non_psk():
    with pytest.raises(ValueError):
        differential_encode(np.full((3, 2), 0.5 + 0j), FDDI)
    with pytest.raises(ValueError):
        differential_encode(np.ones((3, 2), dtype=complex), PA)


def test_encode_detect_roundtrip_noiseless():
    """Through a flat unit channel, detection must invert encoding exactly."""
    rng = np.random.default_rng(5)
    for scheme, shape in ((FDDI, (63, 4)), (TDDI, (64, 3))):
        for order in (2, 4, 8, 16):
            idx = random_psk_indices(rng, order, shape)
            v = np.exp(2j * np.pi * idx / order)
            d = differential_encode(v, scheme)
            dec = differential_detect(d, scheme, order)
            assert dec.hard.shape == shape
            assert np.array_equal(dec.hard, idx)


def test_roundtrip_through_common_phase_rotation():
    """A common channel phase cancels in the difference statistic."""
    rng = np.random.default_rng(6)
    idx = random_psk_indices(rng, 4, (63, 2))
    v = np.exp(2j * np.pi * idx / 4)
    d = differential_encode(v, FDDI)
    rotated = d * np.exp(1j * 1.234)
    dec = differential_detect(rotated, FDDI, 4)
    assert np.array_equal(dec.hard, idx)


def test_detect_statistic_definition():
    z = np.array([[1.0 + 0j, 2.0], [3.0j, -1.0]])
    a = differential_detect(z, FDDI, 4).a
    assert a.shape == (1, 2)
    assert a[0, 0] == 3.0j * np.conj(1.0)
    assert a[0, 1] == -1.0 * np.conj(2.0)
    a_t = differential_detect(z, TDDI, 4).a
    assert a_t.shape == (2, 1)
    assert a_t[0, 0] == 2.0 * np.conj(1.0)


def test_detect_zero_statistic_takes_lowest_index():
    z = np.array([[0.0 + 0j], [1.0 + 0j]])
    dec = differential_detect(z, FDDI, 8)
    assert dec.a[0, 0] == 0
    assert dec.hard[0, 0] == 0


def test_coherent_detect_perfect_channel():
    rng = np.random.default_rng(7)
    for constellation in (psk(4), qam(16)):
        idx = rng.integers(0, constellation.order, size=(64, 2))
        d = constellation.points[idx]
        h = (rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2)))
        got = coherent_detect(h * d, h, constellation)
        assert np.array_equal(got, idx)


def test_coherent_detect_zero_estimate_raises():
    h = np.ones((4, 1), dtype=complex)
    h[2, 0] = 0.0
    with pytest.raises(DegenerateEstimateError):
        coherent_detect(np.ones((4, 1), dtype=complex), h, psk(4))


def test_coherent_detect_shape_mismatch():
    with pytest.raises(ValueError):
        coherent_detect(np.ones((4, 1)), np.ones((4, 2)), psk(4))


def test_fast_rx_noiseless_is_elementwise_product():
    pdp = exponential_pdp(5, 1.0)
    H, _ = one_grid(pdp, 0.05, 64, 2, seed=1)
    d = np.exp(2j * np.pi * np.random.default_rng(2).random((64, 2)))
    rx = fast_rx(d, H, 0.0, seed=99)
    assert np.array_equal(rx.z, H * d)


def test_chain_matches_fast_rx_noiseless():
    pdp = exponential_pdp(5, 1.0)
    for K in (64, 256):
        H, taps = one_grid(pdp, 0.1, K, 2, seed=3)
        d = np.exp(2j * np.pi * np.random.default_rng(4).random((K, 2)))
        za = ofdm_time_domain_chain(d, taps, 0.0, seed=0).z
        zb = fast_rx(d, H, 0.0, seed=0).z
        scale = np.max(np.abs(zb))
        assert np.max(np.abs(za - zb)) / scale < 1e-12


def test_chain_matches_fast_rx_with_shared_noise():
    """Same seed must give the same realization through both paths."""
    pdp = exponential_pdp(5, 1.0)
    H, taps = one_grid(pdp, 0.05, 64, 4, seed=5)
    d = np.exp(2j * np.pi * np.random.default_rng(6).random((64, 4)))
    za = ofdm_time_domain_chain(d, taps, 0.3, seed=77).z
    zb = fast_rx(d, H, 0.3, seed=77).z
    scale = np.max(np.abs(zb))
    assert np.max(np.abs(za - zb)) / scale < 1e-9


def test_chain_rejects_bad_geometry():
    pdp = exponential_pdp(5, 1.0)
    _, taps = one_grid(pdp, 0.0, 64, 2, seed=0)
    with pytest.raises(ValueError):
        ofdm_time_domain_chain(np.ones((60, 2), dtype=complex), taps, 0.0, 0)
    # K=4 is a power of two but not larger than L=5
    with pytest.raises(ValueError):
        ofdm_time_domain_chain(np.ones((4, 2), dtype=complex), taps, 0.0, 0)


def test_noise_power_calibration():
    """Injected noise variance matches the request on both paths."""
    pdp = exponential_pdp(5, 1.0)
    H, taps = one_grid(pdp, 0.0, 64, 2, seed=8)
    d = np.ones((64, 2), dtype=complex)
    var = 0.37
    acc_fast, acc_chain, n = 0.0, 0.0, 200
    for s in range(n):
        w_f = fast_rx(d, H, var, seed=s).z - H * d
        w_c = ofdm_time_domain_chain(d, taps, var, seed=s).z - H * d
        acc_fast += np.mean(np.abs(w_f) ** 2)
        acc_chain += np.mean(np.abs(w_c) ** 2)
    se = var / np.sqrt(n * 128)
    assert acc_fast / n == pytest.approx(var, abs=5 * se)
    assert acc_chain / n == pytest.approx(var, abs=5 * se)


def test_end_to_end_differential_low_error_at_high_snr():
    """Whole pipeline: encode, channel, detect; symbol errors stay rare."""
    rng = np.random.default_rng(9)
    pdp = exponential_pdp(5, 1.0)
    errors = 0
    total = 0
    for trial in range(50):
        H, _ = one_grid(pdp, 0.01, 64, 2, seed=100 + trial)
        idx = rng.integers(0, 4, size=(63, 2))
        v = np.exp(2j * np.pi * idx / 4)
        d = differential_encode(v, FDDI)
        rx = fast_rx(d, H, 10 ** (-30 / 10), seed=200 + trial)
        dec = differential_detect(rx.z, FDDI, 4)
        errors += np.count_nonzero(dec.hard != idx)
        total += idx.size
    assert errors / total < 0.01
