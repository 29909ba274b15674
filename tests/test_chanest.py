"""Channel estimation: LMMSE filtering, interpolation, closed-form MSE."""

import dataclasses
import itertools
import time
import tracemalloc

import numpy as np
import pytest

from minislot._util import db_to_lin
from minislot.channel import DopplerSpec, PowerDelayProfile, exponential_pdp
from minislot.chanest import (
    EstimationCollapseError,
    average_mse,
    channel_estimation_mse,
    effective_snr,
    interpolate_linear,
    lmmse_estimate,
    measure_mse,
    mse_map,
    phi_lmmse,
    pilot_spectrum,
    _PHI_FIELD,
    _window_weights,
)
from minislot.grid import PA, MiniSlotGrid, PilotPattern, ReClass, class_map, standard_pattern

import oracles
from oracles import lmmse_mse_direct, pilot_covariance_direct


def test_pilot_covariance_structure():
    pdp = exponential_pdp(5, 1.0)
    R = pilot_covariance_direct(pdp, 64, 2)
    psi = pilot_spectrum(pdp, 64, 2)
    assert R.shape == (32, 32)
    assert np.allclose(np.diag(R), 1.0)
    assert np.allclose(R, R.conj().T)
    # Toeplitz: constant along diagonals
    assert np.allclose(R[1:, 1:], R[:-1, :-1])
    assert np.all(psi >= 0.0)
    assert psi.sum() == pytest.approx(32.0, rel=1e-10)


def test_pilot_spectrum_matches_eigensolve():
    """psi, lambda_p times the tap powers aliased modulo lambda_p, is the
    spectrum of the circulant R, also where L > lambda_p folds taps; the
    per-bin gain on psi is the filter R (R + I/gamma)^{-1}, entry by entry
    (x = I, the unit vectors, so the oracle's own inversion error at
    lambda_p = 256 is not summed over a random x)."""
    for (n_taps, decay), K, delta in itertools.product(
        ((5, 1.0), (40, 0.1)), (16, 64, 256), (1, 2, 4, 8)
    ):
        pdp = exponential_pdp(n_taps, decay)
        R = pilot_covariance_direct(pdp, K, delta)
        psi = pilot_spectrum(pdp, K, delta)
        want = np.linalg.eigvalsh(R)
        assert np.max(np.abs(np.sort(psi) - want)) <= 1e-12, (n_taps, K, delta)
        lam = K // delta
        x = np.eye(lam)
        for gamma in (0.5, 4.0, 100.0):
            A = R @ np.linalg.inv(R + np.eye(lam) / gamma)
            got = lmmse_estimate(x, pdp, delta, gamma)
            assert np.max(np.abs(got - x @ A.T)) <= 1e-12, (n_taps, K, delta, gamma)


def test_pilot_covariance_rejects_bad_spacing():
    with pytest.raises(ValueError):
        pilot_spectrum(exponential_pdp(5, 1.0), 64, 3)


def test_phi_lmmse_matches_direct_trace():
    pdp = exponential_pdp(5, 1.0)
    for gamma in (0.5, 1.0, 10.0, 100.0):
        for delta in (1, 2, 4):
            want = lmmse_mse_direct(pilot_covariance_direct(pdp, 64, delta), gamma)
            assert phi_lmmse(pdp, 64, delta, gamma) == pytest.approx(want, rel=1e-10)


def test_phi_lmmse_flat_channel_closed_form():
    """Single tap: all pilots see the same h, MSE = 1/(gamma*lambda_p + 1)."""
    pdp = PowerDelayProfile(np.array([1.0]))
    for gamma in (0.25, 1.0, 4.0):
        assert phi_lmmse(pdp, 64, 2, gamma) == pytest.approx(
            1.0 / (gamma * 32 + 1.0), rel=1e-9
        )


def test_lmmse_estimate_batching_and_shrinkage():
    pdp = exponential_pdp(5, 1.0)
    rng = np.random.default_rng(3)
    ls = rng.standard_normal((7, 32)) + 1j * rng.standard_normal((7, 32))
    batch = lmmse_estimate(ls, pdp, 2, gamma=2.0)
    single = np.stack([lmmse_estimate(ls[i], pdp, 2, gamma=2.0) for i in range(7)])
    assert np.allclose(batch, single, atol=1e-14)
    # the filter is a contraction toward the channel subspace
    assert np.linalg.norm(batch) < np.linalg.norm(ls)


def test_interpolate_linear_exact_on_affine_input():
    """Two-point interpolation and extrapolation reproduce a line exactly."""
    delta = 4
    lam = 8
    k = np.arange(lam * delta)
    line = (0.3 - 0.01j) * k + (1.2 + 0.5j)
    out = interpolate_linear(line[::delta], delta)
    assert np.allclose(out, line, atol=1e-12)


def test_interpolate_linear_delta_one_is_identity():
    h = np.arange(6, dtype=complex)
    out = interpolate_linear(h, 1)
    assert np.array_equal(out, h)
    assert out is not h  # a copy, not a view


def test_interpolate_linear_batched():
    rng = np.random.default_rng(4)
    h = rng.standard_normal((5, 3, 16)) + 1j * rng.standard_normal((5, 3, 16))
    out = interpolate_linear(h, 2)
    assert out.shape == (5, 3, 32)
    one = interpolate_linear(h[2, 1], 2)
    assert np.allclose(out[2, 1], one, atol=1e-15)


def test_interpolate_linear_needs_two_pilots():
    with pytest.raises(ValueError):
        interpolate_linear(np.ones(1, dtype=complex), 4)


def test_mse_map_class_means_match_hand_formulas():
    """Every MseBreakdown component, a mean of the per-element map over one
    class of the first pilot window, equals the hand-expanded class formula
    given the same phi; pdp (40, 0.1) folds taps past lambda_p."""
    for (n_taps, decay), K, T, high_mobility, delta, fd, gamma in itertools.product(
        ((5, 1.0), (40, 0.1)), (8, 16, 64, 256), (2, 4, 7), (False, True),
        (1, 2, 4, 8), (0.0, 0.05, 0.2), (0.5, 4.0, 100.0),
    ):
        if n_taps >= K or K // delta < 2:
            continue
        pdp, doppler = exponential_pdp(n_taps, decay), DopplerSpec(fd)
        grid = MiniSlotGrid(K, T, standard_pattern(T, high_mobility, delta))
        # the first window runs up to the next pilot symbol, or to the end
        d_sym = (*grid.pattern.pilot_symbols, T + 1)[1] - 1
        br = channel_estimation_mse(pdp, doppler, grid, gamma)
        phi = br.phi_lmmse
        hand = {
            ReClass.PILOT: phi,
            ReClass.LINEAR_DATA: oracles.phi_linear(pdp, K, delta, phi),
            ReClass.EDGE_DATA: oracles.phi_edge(pdp, K, delta, phi),
            ReClass.REGION_A: oracles.phi_region_a(doppler, d_sym, phi),
            ReClass.REGION_B: oracles.phi_region_b(pdp, doppler, K, delta, d_sym, phi),
            ReClass.EDGE_REGION_B: oracles.phi_edge_region_b(
                pdp, doppler, K, delta, d_sym, phi),
        }
        got = {
            ReClass.LINEAR_DATA: br.phi_linear, ReClass.EDGE_DATA: br.phi_edge,
            ReClass.REGION_A: br.phi_a, ReClass.REGION_B: br.phi_b,
            ReClass.EDGE_REGION_B: br.phi_edge_b,
        }
        window = class_map(grid, PA)[:, :d_sym]
        case = (n_taps, K, T, high_mobility, delta, fd, gamma)
        for c, value in got.items():
            if np.any(window == c):
                assert value == pytest.approx(hand[c], abs=1e-14), (case, c)
            else:
                assert np.isnan(value), (case, c)
        assert br.sigma_e2 == pytest.approx(average_mse(grid, hand), abs=1e-14), case


def test_phi_components_no_doppler_degeneracies():
    """At fdTs = 0, time reuse is free: A collapses to the pilot MSE and B
    to the interpolation MSE."""
    pdp = exponential_pdp(5, 1.0)
    grid = MiniSlotGrid(64, 4, standard_pattern(4, False, 2))
    br = channel_estimation_mse(pdp, DopplerSpec(0.0), grid, 4.0)
    assert br.phi_a == pytest.approx(br.phi_lmmse, abs=1e-12)
    assert br.phi_b == pytest.approx(br.phi_linear, abs=1e-12)


def test_phi_components_structural_reductions():
    pdp = exponential_pdp(5, 1.0)
    doppler = DopplerSpec(0.1)
    # no reuse symbols: both symbols carry pilots, so their columns are
    # equal and regions A and B are absent
    grid = MiniSlotGrid(64, 2, PilotPattern((1, 2), 2))
    br = channel_estimation_mse(pdp, doppler, grid, 4.0)
    mse = mse_map(pdp, doppler, grid, br.phi_lmmse)
    assert np.array_equal(mse[:, 1], mse[:, 0])
    assert np.isnan(br.phi_a) and np.isnan(br.phi_b)
    # no interpolated subcarriers (delta_sub = 1): every subcarrier is a
    # pilot, region B collapses into region A, interpolated classes absent
    grid = MiniSlotGrid(64, 4, standard_pattern(4, False, 1))
    br = channel_estimation_mse(pdp, doppler, grid, 4.0)
    mse = mse_map(pdp, doppler, grid, br.phi_lmmse)
    assert np.all(mse[:, 0] == br.phi_lmmse)
    assert np.allclose(mse[:, 1:].mean(), br.phi_a, rtol=0, atol=1e-14)
    assert np.isnan(br.phi_linear) and np.isnan(br.phi_b)


def test_phi_linear_floor_is_channel_deficiency():
    """As SNR grows the interpolation MSE drops to a positive floor set by
    the channel's frequency selectivity alone; a flat channel has none."""
    pdp = exponential_pdp(5, 1.0)
    grid = MiniSlotGrid(64, 2, standard_pattern(2, False, 2))
    doppler = DopplerSpec(0.0)
    vals = [channel_estimation_mse(pdp, doppler, grid, g).phi_linear
            for g in (1.0, 10.0, 100.0, 1e6)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    linear = class_map(grid, PA) == ReClass.LINEAR_DATA
    floor = mse_map(pdp, doppler, grid, 0.0)[linear].mean()
    assert floor > 0.0
    assert vals[-1] == pytest.approx(floor, abs=1e-4)
    flat = PowerDelayProfile(np.array([1.0]))
    assert mse_map(flat, doppler, grid, 0.0)[linear].mean() == pytest.approx(0.0, abs=1e-12)


def test_average_mse_weighting():
    phi = {
        ReClass.PILOT: 1.0, ReClass.LINEAR_DATA: 2.0, ReClass.EDGE_DATA: 10.0,
        ReClass.REGION_A: 3.0, ReClass.REGION_B: 4.0, ReClass.EDGE_REGION_B: 20.0,
    }
    grid = MiniSlotGrid(8, 2, PilotPattern((1,), 2))
    # lam=4, edge folded into linear and edge B into B: (4*1 + 4*2 + 4*3 + 4*4) / 16
    assert average_mse(grid, phi) == pytest.approx(2.5)
    # delta_sub = 1 has no interpolated bins: their nan parts are skipped
    grid1 = MiniSlotGrid(8, 2, PilotPattern((1,), 1))
    absent = {**phi, ReClass.LINEAR_DATA: np.nan, ReClass.REGION_B: np.nan}
    assert average_mse(grid1, absent) == pytest.approx((8 * 1 + 8 * 3) / 16)
    # two pilot windows: the first, symbols 1..4, carries the weights
    grid7 = MiniSlotGrid(8, 7, standard_pattern(7, True, 2))
    assert average_mse(grid7, phi) == pytest.approx(
        (4 * 1 + 4 * 2 + 12 * 3 + 12 * 4) / 32
    )


def test_channel_estimation_mse_is_consistent():
    """sigma_e2 is the first-window formula, bit for bit: lam pilots and
    K - lam interpolated bins (edge included) on the pilot symbol, the same
    split on the d_sym - 1 reuse symbols, over K * d_sym."""
    pdp = exponential_pdp(5, 1.0)
    K = 64
    for T, high_mobility, delta_sub, d_sym in (
        (4, False, 2, 4), (7, True, 2, 4), (4, False, 1, 4), (4, False, 4, 4),
    ):
        grid = MiniSlotGrid(K, T, standard_pattern(T, high_mobility, delta_sub))
        br = channel_estimation_mse(pdp, DopplerSpec(0.05), grid, gamma=4.0)
        lam = K // delta_sub
        terms = (
            (lam, br.phi_lmmse),
            (K - lam, br.phi_linear),
            (lam * (d_sym - 1), br.phi_a),
            ((K - lam) * (d_sym - 1), br.phi_b),
        )
        # delta_sub = 1 has no interpolated bins: their terms drop out
        sigma = sum(n * phi for n, phi in terms if n) / (K * d_sym)
        assert br.sigma_e2 == sigma, (T, high_mobility, delta_sub)
        assert 0.0 < br.sigma_e2 < 1.0
        assert 0.0 < br.sigma_e2_grid < 1.0


def test_mse_increases_with_doppler_and_decreases_with_snr():
    pdp = exponential_pdp(5, 1.0)
    grid = MiniSlotGrid(64, 4, standard_pattern(4, False, 2))
    sig = [
        channel_estimation_mse(pdp, DopplerSpec(fd), grid, 4.0).sigma_e2
        for fd in (0.0, 0.02, 0.05, 0.1, 0.2)
    ]
    assert all(b > a for a, b in zip(sig, sig[1:]))
    sig_g = [
        channel_estimation_mse(pdp, DopplerSpec(0.05), grid, g).sigma_e2
        for g in (0.5, 1.0, 4.0, 16.0)
    ]
    assert all(b < a for a, b in zip(sig_g, sig_g[1:]))


def test_effective_snr():
    assert effective_snr(0.0, 0.25) == 4.0  # exact, power-of-two variance
    assert effective_snr(0.0, 0.1) == pytest.approx(10.0, rel=1e-15)
    # estimation error always costs SNR
    assert effective_snr(0.1, 0.25) < 4.0
    with pytest.raises(EstimationCollapseError):
        effective_snr(1.0, 0.25)
    with pytest.raises(ValueError):
        effective_snr(0.1, 0.0)
    with pytest.raises(ValueError):
        effective_snr(-0.1, 0.25)


def test_measured_lmmse_matches_closed_form():
    """The pilot-class MSE has no modeling gap: honest Monte Carlo must sit
    on the closed form for both error models."""
    pdp = exponential_pdp(5, 1.0)
    grid = MiniSlotGrid(64, 4, standard_pattern(4, False, 2))
    want = phi_lmmse(pdp, 64, 2, 2.0)
    for model in ("matched", "estimator"):
        m = measure_mse(
            pdp, DopplerSpec(0.05), grid, 2.0, 20_000, seed=11, error_model=model
        )
        assert m.phi_lmmse == pytest.approx(want, abs=4 * m.phi_lmmse_se)
        assert m.error_model == model


def test_measured_matched_classes_match_formulas():
    """The white-error Monte Carlo sits on the closed forms: class means and
    sigma_e2 on the first pilot window, also where two windows exist (T = 7,
    high mobility), and the whole-grid average."""
    pdp = exponential_pdp(5, 1.0)
    for T, high_mobility, fd, gamma in (
        (4, False, 0.05, 2.0),
        (7, True, 0.05, db_to_lin(6.0)),
        (7, True, 0.1, db_to_lin(6.0)),
    ):
        grid = MiniSlotGrid(64, T, standard_pattern(T, high_mobility, 2))
        doppler = DopplerSpec(fd)
        br = channel_estimation_mse(pdp, doppler, grid, gamma)
        m = measure_mse(pdp, doppler, grid, gamma, 20_000, seed=13)
        # the true grid average matches the map's mean over all K*T elements
        assert m.sigma_e2_grid == pytest.approx(
            br.sigma_e2_grid, abs=4 * m.sigma_e2_grid_se
        ), (T, fd)
        assert m.phi_linear == pytest.approx(br.phi_linear, abs=4 * m.phi_linear_se)
        assert m.phi_a == pytest.approx(br.phi_a, abs=4 * m.phi_a_se)
        assert m.phi_b == pytest.approx(br.phi_b, abs=4 * m.phi_b_se)
        assert m.phi_edge == pytest.approx(br.phi_edge, abs=4 * m.phi_edge_se)
        assert m.phi_edge_b == pytest.approx(br.phi_edge_b, abs=4 * m.phi_edge_b_se)
        assert m.sigma_e2 == pytest.approx(br.sigma_e2, abs=4 * m.sigma_e2_se)


def test_estimator_model_interpolation_penalty_is_real():
    """Honest LMMSE errors are correlated across pilots, which the white
    error model misses; the honest interpolation MSE is visibly larger at
    low SNR. This pins the documented modeling gap, direction included."""
    pdp = exponential_pdp(5, 1.0)
    grid = MiniSlotGrid(64, 2, standard_pattern(2, False, 2))
    matched = measure_mse(pdp, DopplerSpec(0.01), grid, 1.0, 20_000, seed=17)
    honest = measure_mse(
        pdp, DopplerSpec(0.01), grid, 1.0, 20_000, seed=17, error_model="estimator"
    )
    gap_se = np.hypot(matched.phi_linear_se, honest.phi_linear_se)
    assert honest.phi_linear - matched.phi_linear > 5 * gap_se


def test_measure_mse_rejects_unknown_model():
    pdp = exponential_pdp(5, 1.0)
    grid = MiniSlotGrid(64, 2, standard_pattern(2, False, 2))
    with pytest.raises(ValueError):
        measure_mse(pdp, DopplerSpec(0.0), grid, 1.0, 100, seed=0, error_model="x")


def test_measure_mse_rejects_too_few_realizations():
    """A standard error needs two realizations."""
    pdp = exponential_pdp(5, 1.0)
    grid = MiniSlotGrid(64, 2, standard_pattern(2, False, 2))
    for n in (1, 0, -5):
        with pytest.raises(ValueError, match="n_realizations"):
            measure_mse(pdp, DopplerSpec(0.0), grid, 1.0, n, seed=0)


def _assert_same_fields(got, want, rel, case):
    """Every field of two MseMeasurements agrees within rel, nan where the
    reference is nan."""
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, float) and np.isnan(b):
            assert np.isnan(a), (case, f.name)
        elif isinstance(b, float):
            assert a == pytest.approx(b, rel=rel, abs=0.0), (case, f.name, a, b)
        else:
            assert a == b, (case, f.name)


def test_window_weights_are_the_closed_form_class_means():
    """measure_mse's weight matrix, applied to the closed-form map as one
    matrix product, gives channel_estimation_mse's class means and grid
    mean to the product's sequential rounding."""
    for (n_taps, decay), K, T, high_mobility, delta, fd in itertools.product(
        ((5, 1.0), (40, 0.1)), (16, 64, 256), (2, 4, 7), (False, True),
        (1, 2, 4, 8), (0.0, 0.05, 0.2),
    ):
        if n_taps >= K or K // delta < 2:
            continue
        pdp, doppler = exponential_pdp(n_taps, decay), DopplerSpec(fd)
        grid = MiniSlotGrid(K, T, standard_pattern(T, high_mobility, delta))
        case = (n_taps, K, T, high_mobility, delta, fd)
        br = channel_estimation_mse(pdp, doppler, grid, 4.0)
        classes, weights = _window_weights(grid)
        *means, grid_mean = mse_map(pdp, doppler, grid, br.phi_lmmse).T.ravel() @ weights.T
        want = {c: getattr(br, f) for c, f in _PHI_FIELD.items() if c != ReClass.PILOT}
        assert {c for c, v in want.items() if not np.isnan(v)} == set(classes), case
        for c, v in zip(classes, means):
            assert v == pytest.approx(want[c], rel=1e-13, abs=0.0), (case, c)
        assert grid_mean == pytest.approx(br.sigma_e2_grid, rel=1e-13, abs=0.0), case


def test_measure_mse_matches_the_direct_reference():
    """The blocked measure_mse draws the direct reference's streams and
    reduces them to the same fields, over every layout the blocks see."""
    pdp = exponential_pdp(5, 1.0)
    for model, (T, high_mobility), fd, delta, K, n in itertools.product(
        ("matched", "estimator"), itertools.product((2, 4, 7), (False, True)),
        (0.0, 0.05), (1, 2, 4), (64, 256), (2, 3),
    ):
        grid = MiniSlotGrid(K, T, standard_pattern(T, high_mobility, delta))
        case = (model, T, high_mobility, fd, delta, K, n)
        got = measure_mse(pdp, fd, grid, 4.0, n, seed=31, error_model=model)
        want = oracles.measure_mse_direct(pdp, fd, grid, 4.0, n, seed=31, error_model=model)
        _assert_same_fields(got, want, 1e-12, case)


@pytest.mark.parametrize("n", [10_001, 25_000])
@pytest.mark.parametrize("K, T, high_mobility, fd, delta, model", [
    (64, 7, True, 0.05, 2, "matched"),
    (256, 4, False, 0.0, 4, "estimator"),
])
def test_measure_mse_matches_the_direct_reference_across_chunks(
        K, T, high_mobility, fd, delta, model, n):
    """Past one chunk of draws, and across many blocks, the fields still
    match the direct reference."""
    pdp = exponential_pdp(5, 1.0)
    grid = MiniSlotGrid(K, T, standard_pattern(T, high_mobility, delta))
    got = measure_mse(pdp, fd, grid, 4.0, n, seed=37, error_model=model)
    want = oracles.measure_mse_direct(pdp, fd, grid, 4.0, n, seed=37, error_model=model)
    _assert_same_fields(got, want, 1e-12, (K, T, high_mobility, fd, delta, model, n))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_measure_mse_working_set_is_bounded():
    """Blocks keep measure_mse's memory to its draws: 1e4 realizations of a
    T = 7 high-mobility grid peak below 60 MB (the whole-chunk grid took
    185 MB)."""
    pdp = exponential_pdp(5, 1.0)
    grid = MiniSlotGrid(64, 7, standard_pattern(7, True, 2))
    peak = _traced_peak(lambda: measure_mse(pdp, 0.05, grid, 4.0, 10_000, seed=41))
    assert peak <= 60e6, peak


def test_measure_mse_scales_to_wide_grids():
    """At K = 1024, T = 7 and every subcarrier a pilot, the blocked
    measure_mse is no slower than the direct reference and peaks at no more
    than half its memory."""
    pdp = exponential_pdp(5, 1.0)
    grid = MiniSlotGrid(1024, 7, standard_pattern(7, True, 1))

    def run(fn):
        return lambda: fn(pdp, 0.05, grid, 4.0, 2000, seed=43)

    blocked, direct = run(measure_mse), run(oracles.measure_mse_direct)
    times = {blocked: [], direct: []}
    for _ in range(2):
        for fn in times:
            t0 = time.perf_counter()
            fn()
            times[fn].append(time.perf_counter() - t0)
    assert min(times[blocked]) <= min(times[direct]), times
    assert _traced_peak(blocked) <= 0.5 * _traced_peak(direct)
