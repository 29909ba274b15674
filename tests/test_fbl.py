"""Information densities, capacity/dispersion, normal approximation."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import norm

from minislot._util import db_to_lin
from minislot.bounds import FFT_ROUNDOFF, lattice_bounds
from minislot.channel import DopplerSpec, PowerDelayProfile, exponential_pdp
from minislot.fbl import (
    GH_NODES,
    Q_NODES,
    Q_NODES_COARSE,
    DiffChannelParams,
    EquivalentChannel,
    InfeasiblePayloadError,
    ModelFidelityWarning,
    PerUseLaw,
    _iv_from_samples,
    awgn_capacity_dispersion,
    coherent_capacity_dispersion,
    diff_capacity_dispersion,
    diff_transition_logpdf,
    equivalent_channel,
    fddi_correlation,
    normal_approx_bler,
    normal_approx_log_bler,
    sample_coherent_density,
    sample_diff_density,
    scheme_fbl,
    tddi_correlation,
)
from minislot.grid import (
    FDDI, PA, TDDI, Constellation, MiniSlotGrid, default_constellation, psk, qam,
    standard_pattern,
)

import oracles


def test_awgn_capacity_dispersion_spot_values():
    assert awgn_capacity_dispersion(1.0) == (1.0, 0.75)
    assert awgn_capacity_dispersion(0.0) == (0.0, 0.0)
    c, v = awgn_capacity_dispersion(3.0)
    assert c == 2.0
    assert v == pytest.approx(15.0 / 16.0, abs=1e-15)
    # dispersion rises toward 1 monotonically
    vs = [awgn_capacity_dispersion(g)[1] for g in (0.1, 1.0, 10.0, 100.0)]
    assert all(b > a for a, b in zip(vs, vs[1:]))
    assert vs[-1] < 1.0


def test_normal_approx_matches_gaussian_tail():
    i, v, n, r = 0.9, 0.6, 128, 0.75
    arg = np.sqrt(n / v) * (i - r + np.log2(n) / (2 * n))
    assert normal_approx_bler(i, v, n, r) == pytest.approx(
        norm.sf(arg), rel=1e-12
    )


def test_normal_approx_monotone_and_degenerate():
    eps = [normal_approx_bler(1.0, 0.75, 96, r) for r in np.linspace(0.1, 2.0, 25)]
    assert all(b >= a for a, b in zip(eps, eps[1:]))
    assert 0.0 < eps[0] < eps[-1] <= 1.0
    # V = 0: sharp threshold at the corrected capacity
    assert normal_approx_bler(1.0, 0.0, 128, 0.9) == 0.0
    assert normal_approx_bler(1.0, 0.0, 128, 1.1) == 1.0
    with pytest.raises(ValueError):
        normal_approx_bler(1.0, 0.75, 1, 0.5)
    with pytest.raises(ValueError):
        normal_approx_bler(1.0, -0.1, 128, 0.5)


def test_normal_approx_log_bler_survives_underflow():
    for r in (0.3, 0.75, 0.95):
        assert normal_approx_log_bler(0.9, 0.6, 128, r) == pytest.approx(
            np.log(normal_approx_bler(0.9, 0.6, 128, r)), rel=1e-12
        )
    # Q argument ~ 170: epsilon underflows to 0, ln epsilon stays exact
    arg = np.sqrt(128 / 0.01) * (2.0 - 0.5 + np.log2(128) / 256)
    assert normal_approx_bler(2.0, 0.01, 128, 0.5) == 0.0
    assert normal_approx_log_bler(2.0, 0.01, 128, 0.5) == pytest.approx(
        norm.logsf(arg), rel=1e-12
    )
    # V = 0 keeps the step function
    assert normal_approx_log_bler(1.0, 0.0, 128, 0.9) == -np.inf
    assert normal_approx_log_bler(1.0, 0.0, 128, 1.1) == 0.0


def test_diff_params_validation_and_properties():
    p = DiffChannelParams(gamma=10.0, rho=0.9, order=4)
    assert p.sigma2 == pytest.approx(11.0 / 20.0)
    assert p.kappa == pytest.approx(121.0 - 81.0)
    assert p.quad_coeff == pytest.approx(100.0 * 0.9 / 40.0)
    with pytest.raises(ValueError):
        DiffChannelParams(gamma=0.0, rho=0.5, order=4)
    with pytest.raises(ValueError):
        DiffChannelParams(gamma=1.0, rho=1.2, order=4)
    with pytest.raises(ValueError):
        DiffChannelParams(gamma=1.0, rho=0.5, order=3)
    # kappa stays positive across the whole valid rho range
    for rho in (-1.0, -0.3, 0.0, 0.7, 1.0):
        assert DiffChannelParams(gamma=50.0, rho=rho, order=2).kappa > 0.0


def test_transition_logpdf_input_forms():
    params = DiffChannelParams(gamma=2.0, rho=0.8, order=4)
    z4 = np.array([0.3, -0.2, 1.1, 0.4])
    zc = np.array([0.3 - 0.2j, 1.1 + 0.4j])
    a = diff_transition_logpdf(z4, 0.7, params)
    b = diff_transition_logpdf(zc, 0.7, params)
    assert a == pytest.approx(b, abs=1e-14)
    with pytest.raises(ValueError):
        diff_transition_logpdf(np.zeros(3), 0.0, params)


def test_transition_logpdf_normalizes():
    """Integrate the density over a dense 4-D Gauss-Hermite grid built on
    its own Gaussian envelope; the total must be 1."""
    params = DiffChannelParams(gamma=1.5, rho=0.6, order=4)
    from numpy.polynomial.hermite import hermgauss

    nodes, weights = hermgauss(40)
    # envelope variance s2 per real component; density ~ N(0, s2 I) * tilt
    s2 = params.sigma2
    x = np.sqrt(2.0 * s2) * nodes
    w = weights / np.sqrt(np.pi)
    X1, X2, X3, X4 = np.meshgrid(x, x, x, x, indexing="ij")
    W = w[:, None, None, None] * w[None, :, None, None] * \
        w[None, None, :, None] * w[None, None, None, :]
    z1 = X1 + 1j * X3
    z2 = X2 + 1j * X4
    g = params.gamma
    logpdf = (
        np.log(g ** 2 / (np.pi ** 2 * params.kappa))
        - (2.0 * s2 * g ** 2 / params.kappa) * (np.abs(z1) ** 2 + np.abs(z2) ** 2)
        + (2.0 * g ** 2 * params.rho / params.kappa) * np.real(np.conj(z1) * z2)
    )
    envelope = (
        -(np.abs(z1) ** 2 + np.abs(z2) ** 2) / (2.0 * s2)
        - 2.0 * np.log(2.0 * np.pi * s2)
    )
    total = np.sum(W * np.exp(logpdf - envelope))
    assert total == pytest.approx(1.0, abs=2e-4)


def test_sampled_density_consistent_with_logpdf():
    """The sampler's collapsed exponent must equal the raw log-density
    ratios at the same points."""
    params = DiffChannelParams(gamma=3.0, rho=0.85, order=8)
    rng = np.random.default_rng(2)
    # redo the sampler's own draw to get matching z pairs
    s2, eta = params.sigma2, params.eta
    a = np.sqrt(s2)
    b1, b2 = eta / a, np.sqrt(s2 - (eta / a) ** 2)
    u = rng.standard_normal((4, 40))
    z1 = a * u[0] + 1j * a * u[2]
    z2 = (b1 * u[0] + b2 * u[1]) + 1j * (b1 * u[2] + b2 * u[3])
    i_direct = np.empty(40)
    for n in range(40):
        base = diff_transition_logpdf((z1[n], z2[n]), 0.0, params)
        ratios = [
            diff_transition_logpdf((z1[n], z2[n]), 2 * np.pi * m / 8, params) - base
            for m in range(8)
        ]
        i_direct[n] = 3.0 - np.log2(np.sum(np.exp(ratios)))
    i_sampler = sample_diff_density(params, 40, np.random.default_rng(2))
    assert np.allclose(i_sampler, i_direct, atol=1e-10)


def test_diff_density_zero_correlation_is_exactly_zero():
    """rho = 0 decouples the pair; the channel carries nothing, so the
    density is identically zero, not merely zero-mean."""
    params = DiffChannelParams(gamma=10.0, rho=0.0, order=4)
    samples = sample_diff_density(params, 1000, np.random.default_rng(0))
    assert np.all(samples == 0.0)
    est = diff_capacity_dispersion(params, 10_000, seed=1)
    assert est.i == 0.0 and est.v == 0.0
    assert est.i_stderr == 0.0 and est.v_stderr == 0.0


def test_diff_density_bounded_by_log2m():
    params = DiffChannelParams(gamma=100.0, rho=0.999, order=4)
    s = sample_diff_density(params, 50_000, np.random.default_rng(3))
    assert np.all(s <= 2.0 + 1e-12)
    assert s.mean() > 1.5  # high SNR, high correlation: close to saturation


def test_diff_density_sign_symmetric_in_rho():
    pos = diff_capacity_dispersion(
        DiffChannelParams(gamma=4.0, rho=0.7, order=4), 200_000, seed=5
    )
    neg = diff_capacity_dispersion(
        DiffChannelParams(gamma=4.0, rho=-0.7, order=4), 200_000, seed=6
    )
    tol = 3 * np.hypot(pos.i_stderr, neg.i_stderr)
    assert pos.i == pytest.approx(neg.i, abs=tol)


def test_diff_iv_monotone_in_gamma_and_rho():
    """More SNR or more neighbor coherence means more information."""
    seeds = 11
    i_gamma = [
        diff_capacity_dispersion(
            DiffChannelParams(gamma=g, rho=0.95, order=4), 100_000, seed=seeds
        ).i
        for g in (0.5, 2.0, 8.0, 32.0)
    ]
    assert all(b > a for a, b in zip(i_gamma, i_gamma[1:]))
    i_rho = [
        diff_capacity_dispersion(
            DiffChannelParams(gamma=8.0, rho=r, order=4), 100_000, seed=seeds
        ).i
        for r in (0.2, 0.6, 0.9, 0.99)
    ]
    assert all(b > a for a, b in zip(i_rho, i_rho[1:]))


def test_diff_iv_matches_quadrature_oracle():
    point = oracles.DIFF_POINT
    params = DiffChannelParams(**point)
    # the oracle itself must still be what it was frozen at
    i60, v60 = oracles.gh_diff_iv(point["gamma"], point["rho"], point["order"], 60)
    assert i60 == pytest.approx(oracles.DIFF_GH60[0], abs=1e-9)
    assert v60 == pytest.approx(oracles.DIFF_GH60[1], abs=1e-9)
    est = diff_capacity_dispersion(params, 200_000, seed=7)
    tol_i = 3 * est.i_stderr + oracles.DIFF_GH_DELTA[0]
    tol_v = 3 * est.v_stderr + oracles.DIFF_GH_DELTA[1]
    assert est.i == pytest.approx(i60, abs=tol_i)
    assert est.v == pytest.approx(v60, abs=tol_v)


def test_coherent_density_bounded_and_saturates():
    s = sample_coherent_density(1000.0, psk(4), 100_000, np.random.default_rng(8))
    assert np.all(s <= 2.0 + 1e-12)
    assert s.mean() >= 1.99
    # 16-QAM tops out at 4 bits
    s16 = sample_coherent_density(10.0, qam(16), 50_000, np.random.default_rng(9))
    assert np.all(s16 <= 4.0 + 1e-12)


def test_coherent_density_chunking_invariant():
    rng_a = np.random.default_rng(10)
    rng_b = np.random.default_rng(10)
    a = sample_coherent_density(2.0, psk(4), 5000, rng_a, chunk=512)
    b = sample_coherent_density(2.0, psk(4), 5000, rng_b, chunk=512)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("constellation", [qam(4), qam(16), qam(64), psk(8)],
                         ids=["QPSK", "16QAM", "64QAM", "8PSK"])
def test_coherent_density_blocks_match_the_direct_sampler(constellation):
    """Evaluating each chunk a block at a time changes the working set, not
    the output: bit for bit the sampler that evaluates whole chunks, across
    block and chunk boundaries and on one chunk of many blocks."""
    for n, chunk in ((12_293, 5000), (40_000, 1 << 18)):
        a = sample_coherent_density(3.0, constellation, n, np.random.default_rng(21), chunk)
        b = oracles.sample_coherent_density_direct(
            3.0, constellation, n, np.random.default_rng(21), chunk)
        assert np.array_equal(a, b), (constellation.points.size, n, chunk)


def test_diff_density_chunks_continue_one_stream():
    """Chunked draws are the draws of the chunks in turn; n <= chunk is one
    draw of n, so streams up to 2^18 draws match the unchunked sampler."""
    params = DiffChannelParams(gamma=2.0, rho=0.9, order=8)
    a = sample_diff_density(params, 1000, np.random.default_rng(5), chunk=300)
    rng = np.random.default_rng(5)
    b = np.concatenate([sample_diff_density(params, m, rng) for m in (300, 300, 300, 100)])
    assert np.array_equal(a, b)


def test_coherent_iv_matches_quadrature_oracle():
    gh = oracles.quad_bpsk_iv(oracles.BPSK_POINT["gamma_hat"])
    assert gh[0] == pytest.approx(oracles.BPSK_QUAD[0], abs=1e-12)
    assert gh[1] == pytest.approx(oracles.BPSK_QUAD[1], abs=1e-12)
    est = coherent_capacity_dispersion(1.0, psk(2), 200_000, seed=12)
    tol_i = 3 * est.i_stderr + oracles.BPSK_QUAD_DELTA[0]
    tol_v = 3 * est.v_stderr + oracles.BPSK_QUAD_DELTA[1]
    assert est.i == pytest.approx(gh[0], abs=tol_i)
    assert est.v == pytest.approx(gh[1], abs=tol_v)


def test_quadrature_matches_frozen_oracles():
    """The production rule lands inside each oracle's own refinement delta."""
    diff = EquivalentChannel(FDDI, diff=DiffChannelParams(**oracles.DIFF_POINT)).iv()
    assert abs(diff.i - oracles.DIFF_GH60[0]) <= oracles.DIFF_GH_DELTA[0]
    assert abs(diff.v - oracles.DIFF_GH60[1]) <= oracles.DIFF_GH_DELTA[1]
    bpsk = EquivalentChannel(PA, gamma_hat=oracles.BPSK_POINT["gamma_hat"],
                             constellation=psk(2)).iv()
    assert abs(bpsk.i - oracles.BPSK_QUAD[0]) <= oracles.BPSK_QUAD_DELTA[0]
    assert abs(bpsk.v - oracles.BPSK_QUAD[1]) <= oracles.BPSK_QUAD_DELTA[1]


MC_GAMMAS_DB = (-5.0, 0.0, 10.0, 20.0, 30.0)


def _monte_carlo_iv(sampler, seed, n=1_000_000, chunks=4):
    """1e6-draw (I, V) with standard errors, drawn in chunks to bound memory."""
    rng = np.random.default_rng(seed)
    return _iv_from_samples(
        np.concatenate([sampler(n // chunks, rng) for _ in range(chunks)])
    )


def _disagreements(quad, mc, where):
    """Quadrature vs Monte Carlo: 3 standard errors plus the rule's own
    truncation estimate."""
    out = []
    for name, q, m, se, trunc in (
        ("I", quad.i, mc.i, mc.i_stderr, quad.i_stderr),
        ("V", quad.v, mc.v, mc.v_stderr, quad.v_stderr),
    ):
        if abs(q - m) > 3 * se + trunc:
            out.append(f"{where} {name}: quad={q:.6f} mc={m:.6f} se={se:.1e}")
    return out


@pytest.mark.parametrize("order", (2, 4, 16))
def test_diff_quadrature_agrees_with_monte_carlo(order):
    failures = []
    points = itertools.product(MC_GAMMAS_DB, (0.0, 0.9, 0.999))
    for k, (gamma_db, rho) in enumerate(points):
        params = DiffChannelParams(gamma=db_to_lin(gamma_db), rho=rho, order=order)
        mc = _monte_carlo_iv(
            lambda n, rng: sample_diff_density(params, n, rng), seed=100 * order + k
        )
        failures += _disagreements(
            EquivalentChannel(FDDI, diff=params).iv(), mc,
            f"M={order} {gamma_db:g}dB rho={rho}"
        )
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("constellation", (psk(2), qam(4), qam(16)),
                         ids=("BPSK", "QPSK", "16QAM"))
def test_coherent_quadrature_agrees_with_monte_carlo(constellation):
    failures = []
    for k, gamma_db in enumerate(MC_GAMMAS_DB):
        gamma_hat = db_to_lin(gamma_db)
        mc = _monte_carlo_iv(
            lambda n, rng: sample_coherent_density(gamma_hat, constellation, n, rng),
            seed=1000 + 10 * constellation.order + k,
        )
        failures += _disagreements(
            EquivalentChannel(PA, gamma_hat=gamma_hat, constellation=constellation).iv(), mc,
            f"{constellation.kind}{constellation.order} {gamma_db:g}dB",
        )
    assert not failures, "\n".join(failures)


def test_quadrature_symmetry_reduction_matches_all_inputs():
    """One input per symmetry class gives the average over every input.

    The tensor Gauss-Hermite grid is itself D4-symmetric, so for square QAM
    and QPSK the two agree to rounding; 8-PSK's 45-degree rotation is no
    symmetry of the grid, so there they agree to the rule's accuracy.
    """
    for const, tol in ((qam(4), 1e-12), (qam(16), 1e-12), (psk(8), 2e-5)):
        full = Constellation(kind="generic", order=const.order, points=const.points)
        for gamma_hat in (0.5, 3.0, 30.0):
            a = EquivalentChannel(PA, gamma_hat=gamma_hat, constellation=const).iv()
            b = EquivalentChannel(PA, gamma_hat=gamma_hat, constellation=full).iv()
            assert a.i == pytest.approx(b.i, abs=tol), (const.kind, const.order, gamma_hat)
            assert a.v == pytest.approx(b.v, abs=tol), (const.kind, const.order, gamma_hat)


@pytest.mark.parametrize("channel, frozen, before", [
    (EquivalentChannel(FDDI, diff=DiffChannelParams(gamma=db_to_lin(2.0), rho=0.9949735, order=4)),
     (0.5716512163871671, 1.0392778436398313),
     (0.5716512163871671, 1.0392778436398311)),
    (EquivalentChannel(PA, gamma_hat=10.0, constellation=qam(16)),
     (2.593518140089126, 2.429667071009109),
     (2.593518140089126, 2.429667071009109)),
], ids=("differential", "16QAM"))
def test_iv_are_the_moments_of_the_per_use_law(channel, frozen, before):
    """(I, V) are the moments of the law the bounds read, bit for bit the
    values of the real-arithmetic kernel (frozen), and within rounding of
    the complex kernel's values (before)."""
    law = channel.law()
    assert law.moments() == frozen
    assert max(abs(a - b) for a, b in zip(law.moments(), before)) <= 1e-15
    iv = channel.iv()
    assert (iv.i, iv.v) == frozen
    assert law.densities.shape == law.weights.shape
    assert law.weights.min() >= 0.0
    assert law.weights.sum() == pytest.approx(1.0, abs=1e-12)


LAW_GAMMAS_DB = (-10.0, 0.0, 4.0, 10.0, 20.0, 30.0, 60.0, 300.0)
LAW_ORDERS = (2, 4, 8, 16, 64)
LAW_RHOS = (0.0, 0.5, 0.99, 0.999999, -0.9)


def _law_channels(gamma_db, order):
    """The pair channel at each of LAW_RHOS, and the coherent channel with
    PA's default alphabet and with PSK."""
    gamma = db_to_lin(gamma_db)
    channels = [EquivalentChannel(FDDI, diff=DiffChannelParams(gamma=gamma, rho=rho, order=order))
                for rho in LAW_RHOS]
    return channels + [EquivalentChannel(PA, gamma_hat=gamma, constellation=c)
                       for c in (default_constellation(PA, order), psk(order))]


def _direct_law(channel, n_nodes):
    if channel.diff is not None:
        return oracles.diff_law_direct(channel.diff, n_nodes)
    return oracles.coherent_law_direct(channel.gamma_hat, channel.constellation, n_nodes)


@pytest.mark.parametrize("order", LAW_ORDERS)
def test_law_kernel_reproduces_the_direct_kernel(order):
    """The real-arithmetic, candidate-first kernel (on the half plane for
    the pair channel) gives the direct kernel's laws: finite atoms, the
    q rule's mass, the same (I, V) to rounding, and the same lattice bounds
    to the FFT's roundoff at N = 126, B = 64 (orders up to 16, up to
    30 dB). The mass is the rule's own: 1 within 1e-12 up to 20 dB at
    Q_NODES, short of 1 by 1.7e-5 at 300 dB."""
    for gamma_db in LAW_GAMMAS_DB:
        for channel in _law_channels(gamma_db, order):
            for n_nodes in (Q_NODES, Q_NODES_COARSE):
                where = (gamma_db, channel.key, n_nodes)
                law, direct = channel.law(n_nodes), _direct_law(channel, n_nodes)
                assert np.isfinite(law.densities).all() and np.isfinite(law.weights).all(), where
                assert abs(law.weights.sum() - direct.weights.sum()) <= 1e-12, where
                if n_nodes == Q_NODES and gamma_db <= 20.0:
                    assert abs(law.weights.sum() - 1.0) <= 1e-12, where
                moved = np.subtract(law.moments(), direct.moments())
                assert np.abs(moved).max() <= 1e-13, where
                if n_nodes != Q_NODES or order > 16 or gamma_db > 30.0:
                    continue
                for got, want in zip(lattice_bounds(law.densities, law.weights, 126, 64),
                                     lattice_bounds(direct.densities, direct.weights, 126, 64)):
                    assert abs(got.value - want.value) <= FFT_ROUNDOFF, (where, got.kind)
                    assert abs(got.stderr - want.stderr) <= FFT_ROUNDOFF, (where, got.kind)


def _class_first(atoms, n_nodes):
    """The direct kernel's (q, Gauss-Hermite node, class) layout in the
    package's (q, class, node) layout."""
    return atoms.reshape(n_nodes + 1, GH_NODES ** 2, -1).transpose(0, 2, 1).reshape(n_nodes + 1, -1)


@pytest.mark.parametrize("order", (4, 16, 64, 256))
def test_factorised_qam_law_matches_the_direct_kernel(order):
    """Square QAM's law from one PAM table (the density is the sum of a
    real-axis and an imaginary-axis PAM density) is the 2-D kernel's law
    atom by atom: the same weights bit for bit, atoms within 2e-13 (1.8e-13
    at worst, 256-QAM), moments within 1e-13."""
    for gamma_db in LAW_GAMMAS_DB:
        for n_nodes in (Q_NODES, Q_NODES_COARSE):
            where = (gamma_db, n_nodes)
            channel = EquivalentChannel(PA, gamma_hat=db_to_lin(gamma_db), constellation=qam(order))
            law, direct = channel.law(n_nodes), _direct_law(channel, n_nodes)
            assert np.array_equal(law.weights, _class_first(direct.weights, n_nodes)), where
            assert np.abs(law.densities - _class_first(direct.densities, n_nodes)).max() <= 2e-13, where
            assert np.abs(np.subtract(law.moments(), direct.moments())).max() <= 1e-13, where


@pytest.mark.parametrize("order, gammas_db, nodes", [
    (4, LAW_GAMMAS_DB, (Q_NODES, Q_NODES_COARSE)),
    (16, LAW_GAMMAS_DB, (Q_NODES, Q_NODES_COARSE)),
    (64, (10.0, 20.0), (Q_NODES,)),
], ids=("QPSK", "16QAM", "64QAM"))
def test_factorised_qam_law_matches_the_long_double_kernel(order, gammas_db, nodes):
    """Against the 2-D kernel in long double the factorised atoms are off
    by at most 1e-13 (8.5e-14 measured, 64-QAM at 20 dB, where the float64
    2-D kernel is off by 1.2e-13). 64-QAM runs at its worst points only:
    long double costs ~1.5 s per law there."""
    for gamma_db in gammas_db:
        for n_nodes in nodes:
            gamma = db_to_lin(gamma_db)
            law = EquivalentChannel(PA, gamma_hat=gamma, constellation=qam(order)).law(n_nodes)
            exact = _class_first(oracles.coherent_law_longdouble(gamma, qam(order), n_nodes), n_nodes)
            assert np.abs(law.densities - exact).max() <= 1e-13, (gamma_db, n_nodes)


def test_factorised_qam_law_agrees_with_monte_carlo():
    """sample_coherent_density sums the 64 candidates on the 2-D plane; its
    (I, V) at 10 dB agree with the factorised quadrature's within 3
    standard errors (4e5 draws)."""
    gamma_hat = db_to_lin(10.0)
    mc = _monte_carlo_iv(lambda n, rng: sample_coherent_density(gamma_hat, qam(64), n, rng),
                         seed=1640, n=400_000, chunks=8)
    quad = EquivalentChannel(PA, gamma_hat=gamma_hat, constellation=qam(64)).iv()
    assert abs(quad.i - mc.i) <= 3 * mc.i_stderr, (quad, mc)
    assert abs(quad.v - mc.v) <= 3 * mc.v_stderr, (quad, mc)


def test_pair_law_is_symmetric_under_conjugate_noise():
    """The identity the half-plane rule rests on: on the direct kernel's
    full Gauss-Hermite plane, the pair channel's density at conj(w) is its
    density at w, and the half plane with doubled weights has the full
    plane's (I, V). Atoms agree to the rounding of the direct kernel's
    exponents, which reach 9e4 at 64-PSK, rho = 0.999999, 30 dB (5e-12
    apart there)."""
    for gamma_db, order, rho in itertools.product(LAW_GAMMAS_DB, LAW_ORDERS, LAW_RHOS):
        where = (gamma_db, order, rho)
        full = oracles.diff_law_direct(
            DiffChannelParams(gamma=db_to_lin(gamma_db), rho=rho, order=order), Q_NODES)
        dens = full.densities.reshape(-1, GH_NODES, GH_NODES)  # (q, Re w, Im w)
        assert np.abs(dens - dens[..., ::-1]).max() <= 1e-11, where
        upper = slice(GH_NODES // 2, None)  # Im w > 0
        half = PerUseLaw(dens[..., upper],
                         2.0 * full.weights.reshape(dens.shape)[..., upper])
        assert np.abs(np.subtract(half.moments(), full.moments())).max() <= 1e-13, where


@pytest.mark.parametrize("channel", [
    EquivalentChannel(PA, gamma_hat=10.0, constellation=qam(64)),
    EquivalentChannel(FDDI, diff=DiffChannelParams(gamma=10.0, rho=0.99, order=64)),
], ids=("PA-64QAM", "FDDi-64PSK"))
def test_law_allocates_about_one_exponent_array(channel):
    """Building a law holds one candidate-sized array of exponents at a
    time: the traced peak stays within 1.5 times order x atoms doubles.
    Square QAM's law holds no candidate-sized array at all: its peak is
    the atoms and the weights (2.1 x atoms doubles measured)."""
    channel.law()  # the cached quadrature rules are not the law's cost
    tracemalloc.start()
    try:
        law = channel.law()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    order = channel.diff.order if channel.diff is not None else channel.constellation.order
    assert peak <= 1.5 * order * law.densities.size * 8
    if channel.diff is None:
        assert peak <= 2.5 * law.densities.size * 8, peak


def test_scheme_fbl_reads_its_equivalent_channel():
    pdp = exponential_pdp(5, 1.0)
    grid = make_grid()
    for scheme in (PA, FDDI, TDDI):
        channel = equivalent_channel(scheme, grid, pdp, DopplerSpec(0.05), 2.0, 4)
        res = scheme_fbl(scheme, grid, pdp, DopplerSpec(0.05), 2.0, 64, 4)
        iv = channel.iv()
        assert (res.i, res.v, res.i_stderr) == (iv.i, iv.v, iv.i_stderr)
        assert (res.sigma_e2, res.gamma_hat) == (channel.sigma_e2, channel.gamma_hat)
    with pytest.raises(ValueError):
        equivalent_channel("DPSK", grid, pdp, DopplerSpec(0.05), 2.0, 4)


def test_iv_estimators_reject_tiny_sample_counts():
    with pytest.raises(ValueError):
        diff_capacity_dispersion(
            DiffChannelParams(gamma=1.0, rho=0.5, order=4), 9_999, seed=0
        )
    with pytest.raises(ValueError):
        coherent_capacity_dispersion(1.0, psk(4), 5_000, seed=0)


def test_fddi_correlation_warning_behavior():
    # long asymmetric profile: noticeable imaginary part -> warn
    pdp = exponential_pdp(5, 1.0)
    with pytest.warns(ModelFidelityWarning):
        rho = fddi_correlation(pdp, 64)
    assert 0.0 < rho < 1.0
    # symmetric single tap: exactly real, no warning
    flat = PowerDelayProfile(np.array([1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fddi_correlation(flat, 64) == pytest.approx(1.0, abs=1e-15)


def test_tddi_correlation_is_jakes_lag_one():
    assert tddi_correlation(DopplerSpec(0.0)) == 1.0
    got = tddi_correlation(DopplerSpec(0.1))
    assert got == pytest.approx(oracles.j0_series(2 * np.pi * 0.1), abs=1e-12)


def make_grid(T=2, K=64, delta_sub=2, high=False):
    return MiniSlotGrid(K, T, standard_pattern(T, high, delta_sub))


def test_scheme_fbl_differential_paths():
    pdp = exponential_pdp(5, 1.0)
    grid = make_grid()
    res = scheme_fbl(FDDI, grid, pdp, DopplerSpec(0.05), 2.0, 64, 4)
    assert res.scheme == FDDI
    assert res.n == 126 and res.r == pytest.approx(64 / 126)
    assert res.sigma_e2 is None and res.gamma_hat is None
    assert 0.0 <= res.epsilon <= 1.0
    # FDDi never looks at the Doppler value: bit-identical across fdTs
    res2 = scheme_fbl(FDDI, grid, pdp, DopplerSpec(0.2), 2.0, 64, 4)
    assert res2.epsilon == res.epsilon and res2.i == res.i


def test_scheme_fbl_tddi_uses_time_correlation():
    pdp = exponential_pdp(5, 1.0)
    grid = make_grid()
    slow = scheme_fbl(TDDI, grid, pdp, DopplerSpec(0.01), 2.0, 32, 4)
    fast = scheme_fbl(TDDI, grid, pdp, DopplerSpec(0.2), 2.0, 32, 4)
    assert slow.n == 64
    assert slow.i > fast.i  # Doppler decorrelates adjacent symbols
    assert slow.epsilon < fast.epsilon


def test_scheme_fbl_pa_estimation_penalty():
    pdp = exponential_pdp(5, 1.0)
    grid = make_grid()
    res = scheme_fbl(PA, grid, pdp, DopplerSpec(0.01), 2.0, 64, 4)
    assert res.n == 96
    assert 0.0 < res.sigma_e2 < 1.0
    assert 0.0 < res.gamma_hat < 2.0  # estimation can only cost SNR here
    worse = scheme_fbl(PA, grid, pdp, DopplerSpec(0.1), 2.0, 64, 4)
    assert worse.sigma_e2 > res.sigma_e2
    assert worse.gamma_hat < res.gamma_hat


def test_scheme_fbl_infeasible_payload_raises_before_sampling():
    pdp = exponential_pdp(5, 1.0)
    grid = make_grid()
    with pytest.raises(InfeasiblePayloadError):
        # TDDi: N = 64, QPSK carries at most 128 bits
        scheme_fbl(TDDI, grid, pdp, DopplerSpec(0.01), 2.0, 129, 4)
    # boundary payload is fine
    res = scheme_fbl(TDDI, grid, pdp, DopplerSpec(0.01), 2.0, 128, 4)
    assert res.r == pytest.approx(2.0)

