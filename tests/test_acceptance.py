"""Acceptance gate: one test per shipped claim, run at the stated scale.

These are the slow, end-to-end checks; the per-module suites cover the
fast invariants. Expect a few minutes of total runtime. Each test prints
enough of its operating point on failure to rerun the case by hand.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minislot
from minislot._util import db_to_lin, lin_to_db
from minislot.bounds import (
    block_density_samples,
    dt_upper_bound,
    is_lower_bound,
    lattice_bounds,
)
from minislot.channel import (
    DopplerSpec,
    exponential_pdp,
    sample_channel_grids,
)
from minislot.chanest import (
    channel_estimation_mse,
    effective_snr,
    measure_mse,
)
from minislot.fbl import (
    DiffChannelParams,
    awgn_capacity_dispersion,
    coherent_capacity_dispersion,
    diff_capacity_dispersion,
    equivalent_channel,
    fddi_correlation,
    normal_approx_bler,
    sample_coherent_density,
    sample_diff_density,
    scheme_fbl,
    tddi_correlation,
)
from minislot.grid import (
    FDDI,
    PA,
    TDDI,
    MiniSlotGrid,
    data_symbol_count,
    default_constellation,
    psk,
    standard_pattern,
)
from minislot.modem import fast_rx, ofdm_time_domain_chain

import oracles

PDP = exponential_pdp(5, 1.0)
GRID_T2 = MiniSlotGrid(64, 2, standard_pattern(2, False, 2))


def _density_sampler(scheme, gamma, fd, order=4, gamma_hat=None):
    """Per-use information density sampler for the scheme's equivalent
    channel, matching what the closed-form I/V describe."""
    if scheme == PA:
        const = default_constellation(PA, order)
        return lambda n, rng: sample_coherent_density(gamma_hat, const, n, rng)
    rho = (
        fddi_correlation(PDP, GRID_T2.n_subcarriers)
        if scheme == FDDI
        else tddi_correlation(DopplerSpec(fd))
    )
    params = DiffChannelParams(gamma=gamma, rho=rho, order=order)
    return lambda n, rng: sample_diff_density(params, n, rng)


def test_criterion_1_bound_sandwich():
    """Normal approximation sits between the IS lower and DT upper bounds
    (two sigma slack) for every scheme at 0/2/4 dB, payload tuned so the
    predicted BLER lands in [1e-3, 1e-1]. The deterministic bounds that
    `sweep --bounds` reports hold IS <= NA <= DT at the same points and
    agree with the Monte Carlo bounds within 3 standard errors plus their
    own error scale."""
    failures = []
    for scheme_idx, scheme in enumerate((PA, FDDI, TDDI)):
        for gamma_idx, gamma_db in enumerate((0.0, 2.0, 4.0)):
            gamma = db_to_lin(gamma_db)
            seed_bounds = 500 + 10 * scheme_idx + gamma_idx
            res = scheme_fbl(
                scheme, GRID_T2, PDP, DopplerSpec(0.01), gamma, 1, 4,
            )
            n = res.n
            # integer payload whose predicted BLER is nearest 1e-2
            bs = np.arange(1, 2 * n)
            eps_na = np.array(
                [normal_approx_bler(res.i, res.v, n, b / n) for b in bs]
            )
            pick = int(np.argmin(np.abs(np.log10(eps_na + 1e-300) + 2.0)))
            b, eps = int(bs[pick]), float(eps_na[pick])
            assert 1e-3 <= eps <= 1e-1, (scheme, gamma_db, b, eps)
            sampler = _density_sampler(scheme, gamma, 0.01,
                                       gamma_hat=res.gamma_hat)
            blocks = block_density_samples(sampler, n, 1_000_000, seed_bounds)
            lo = is_lower_bound(blocks, b)
            hi = dt_upper_bound(blocks, b)
            ok = (lo.value - 2 * lo.stderr <= eps <= hi.value + 2 * hi.stderr)
            line = (
                f"{scheme} {gamma_db:g}dB B={b}: "
                f"IS={lo.value:.3e}(se {lo.stderr:.1e}) "
                f"NA={eps:.3e} DT={hi.value:.3e}(se {hi.stderr:.1e})"
            )
            print(("PASS " if ok else "FAIL ") + line)
            if not ok:
                failures.append(line)
            law = equivalent_channel(
                scheme, GRID_T2, PDP, DopplerSpec(0.01), gamma, 4).law()
            det_lo, det_hi = lattice_bounds(law.densities, law.weights, n, b)
            det_ok = (
                det_lo.value <= eps <= det_hi.value
                and abs(det_lo.value - lo.value) <= 3 * lo.stderr + det_lo.stderr
                and abs(det_hi.value - hi.value) <= 3 * hi.stderr + det_hi.stderr
            )
            det_line = (
                f"{scheme} {gamma_db:g}dB B={b}: lattice "
                f"IS={det_lo.value:.4e}(err {det_lo.stderr:.1e}) "
                f"DT={det_hi.value:.4e}(err {det_hi.stderr:.1e})"
            )
            print(("PASS " if det_ok else "FAIL ") + det_line)
            if not det_ok:
                failures.append(det_line)
    assert not failures, "\n".join(failures)


def test_criterion_2_fddi_doppler_invariance():
    """FDDi BLER is exactly constant in Doppler: same floats to the last
    bit across a 200x spread of fdTs."""
    fds = (0.001, 0.01, 0.05, 0.1, 0.2)
    results = [
        scheme_fbl(FDDI, GRID_T2, PDP, DopplerSpec(fd), db_to_lin(2.0),
                   64, 4)
        for fd in fds
    ]
    base = results[0]
    for fd, res in zip(fds, results):
        ok = (res.epsilon == base.epsilon and res.i == base.i
              and res.v == base.v)
        print(f"{'PASS' if ok else 'FAIL'} fdTs={fd:g}: eps={res.epsilon!r}")
        assert ok, (fd, res.epsilon, base.epsilon)


CROSS_BAND = (1e-4, 1e-1)


def _pa_vs_fddi(gamma_db, fd):
    gamma = db_to_lin(gamma_db)
    pa = scheme_fbl(PA, GRID_T2, PDP, DopplerSpec(fd), gamma, 64, 4)
    fddi = scheme_fbl(FDDI, GRID_T2, PDP, DopplerSpec(fd), gamma, 64, 4)
    return pa.epsilon, fddi.epsilon


def _in_band(eps):
    return CROSS_BAND[0] <= eps <= CROSS_BAND[1]


def test_criterion_3a_pa_wins_at_low_doppler():
    """At fdTs = 0.01 there is an SNR where both schemes run in the
    [1e-4, 1e-1] BLER band and the pilot-assisted scheme is ahead."""
    hits = []
    for gamma_db in (2.4, 2.6, 2.8):
        pa, fddi = _pa_vs_fddi(gamma_db, 0.01)
        line = f"gamma={gamma_db}dB PA={pa:.3e} FDDi={fddi:.3e}"
        if _in_band(pa) and _in_band(fddi) and pa < fddi:
            hits.append(line)
        print(line)
    assert hits, "no SNR with both schemes in band and PA ahead at fdTs=0.01"


def test_criterion_3b_fddi_wins_at_high_doppler_in_band():
    """At fdTs = 0.1 look for an SNR where both schemes are in the
    [1e-4, 1e-1] band and the ordering has flipped to FDDi ahead.

    At this geometry the flip exists (criterion 3c finds it) but happens
    only after the FDDi curve has already left the band floor of 1e-4,
    so the strict in-band requirement is expected to fail; the scan below
    documents the closest miss.
    """
    lines = []
    hit = None
    for gamma_db in np.arange(3.0, 6.05, 0.2):
        pa, fddi = _pa_vs_fddi(float(gamma_db), 0.1)
        status = []
        if not _in_band(pa):
            status.append("PA out of band")
        if not _in_band(fddi):
            status.append("FDDi out of band")
        if pa <= fddi:
            status.append("ordering not flipped")
        line = (f"gamma={gamma_db:.1f}dB PA={pa:.3e} FDDi={fddi:.3e} "
                f"{'OK' if not status else '; '.join(status)}")
        lines.append(line)
        print(line)
        if not status:
            hit = line
            break
    assert hit, (
        "no SNR at fdTs=0.1 with both schemes in [1e-4, 1e-1] and "
        "PA behind FDDi; scan:\n" + "\n".join(lines)
    )


def test_criterion_3c_crossover_point_inside_window():
    """doppler_crossover localizes the ordering flip strictly inside
    (0.01, 0.1) at an SNR where the flip is well resolved."""
    from minislot.cli import Scenario, doppler_crossover

    sc = Scenario.from_json({
        "schemes": ["PA", "FDDi"],
        "fdTs": [round(0.01 * k, 2) for k in range(1, 11)],
        "gammaDb": 5.4,
        "B": 64,
        "nSamples": 1_000_000,
        "seed": 1,
    })
    rep = doppler_crossover(sc)
    print(f"crossover at fdTs={rep['crossover']} flips={rep['flips']}")
    assert rep["crossover"] is not None
    assert not rep["ambiguous"]
    assert 0.01 < rep["crossover"] < 0.1


def test_criterion_4_low_doppler_snr_gap():
    """SNR needed for BLER 1e-3 at fdTs = 0.01: the pilot-assisted scheme
    needs less than FDDi, by something in the 0.5 to 4 dB range."""

    def snr_for_target(scheme, target=1e-3):
        lo, hi = 0.0, 10.0
        for _ in range(20):
            mid = 0.5 * (lo + hi)
            res = scheme_fbl(scheme, GRID_T2, PDP, DopplerSpec(0.01),
                             db_to_lin(mid), 64, 4)
            if res.epsilon > target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    snr_pa = snr_for_target(PA)
    snr_fddi = snr_for_target(FDDI)
    gap = snr_fddi - snr_pa
    print(f"SNR@1e-3: PA={snr_pa:.2f}dB FDDi={snr_fddi:.2f}dB gap={gap:.2f}dB")
    assert snr_pa < snr_fddi
    assert 0.5 <= gap <= 4.0


def test_criterion_5_mse_closed_forms_match_monte_carlo():
    """Every per-class estimation MSE formula and the aggregate agree with
    empirical averages over 1e5 channel draws within 3 standard errors."""
    grid = MiniSlotGrid(64, 4, standard_pattern(4, False, 2))
    failures = []
    for fd in (0.01, 0.1):
        doppler = DopplerSpec(fd)
        for gamma_db in (0.0, 10.0):
            gamma = db_to_lin(gamma_db)
            bd = channel_estimation_mse(PDP, doppler, grid, gamma)
            meas = measure_mse(PDP, doppler, grid, gamma, 100_000,
                               seed=int(fd * 1000) + int(gamma_db),
                               error_model="matched")
            pairs = [
                ("phi_lmmse", bd.phi_lmmse, meas.phi_lmmse, meas.phi_lmmse_se),
                ("phi_linear", bd.phi_linear, meas.phi_linear,
                 meas.phi_linear_se),
                ("phi_a", bd.phi_a, meas.phi_a, meas.phi_a_se),
                ("phi_b", bd.phi_b, meas.phi_b, meas.phi_b_se),
                ("sigma_e2", bd.sigma_e2, meas.sigma_e2, meas.sigma_e2_se),
            ]
            for name, want, got, se in pairs:
                miss = abs(got - want)
                ok = miss <= 3 * se
                line = (f"fd={fd:g} {gamma_db:g}dB {name}: closed={want:.5f} "
                        f"mc={got:.5f} |diff|={miss:.2e} 3se={3 * se:.2e}")
                print(("PASS " if ok else "FAIL ") + line)
                if not ok:
                    failures.append(line)
    assert not failures, "\n".join(failures)


def test_criterion_6_chain_equivalence():
    """Cyclic-prefix time-domain chain equals the per-subcarrier
    multiplicative model to 1e-9 relative, elementwise, shared seeds."""
    rng = np.random.default_rng(5)
    for K in (64, 256):
        H, taps = sample_channel_grids(PDP, DopplerSpec(0.05), K, 4, 1, seed=21)
        d = np.exp(2j * np.pi * rng.random((K, 4)))
        z_time = ofdm_time_domain_chain(d, taps[0], 0.3, seed=77).z
        z_fast = fast_rx(d, H[0], 0.3, seed=77).z
        rel = np.abs(z_time - z_fast) / np.maximum(np.abs(z_fast), 1e-30)
        print(f"K={K}: max relative gap {rel.max():.2e}")
        assert rel.max() <= 1e-9


def test_criterion_7_limit_checks():
    # perfect estimation: effective SNR is the true SNR, bit for bit
    for sw2 in (2.0, 1.0, 0.25, 0.01):
        assert effective_snr(0.0, sw2) == 1.0 / sw2
    # QPSK at 30 dB is within 0.01 bit of saturation
    est = coherent_capacity_dispersion(db_to_lin(30.0), psk(4),
                                       100_000, seed=2)
    print(f"I_coh(30dB, QPSK) = {est.i:.4f}")
    assert est.i >= 1.99
    # zero neighbor correlation carries zero information density
    dif = diff_capacity_dispersion(
        DiffChannelParams(gamma=10.0, rho=0.0, order=4), 100_000, seed=3)
    assert abs(dif.i) <= 3 * dif.i_stderr
    assert abs(dif.v) <= 3 * dif.v_stderr
    # unit-SNR AWGN reference point is exact
    assert awgn_capacity_dispersion(1.0) == (1.0, 0.75)


def test_criterion_8_quadrature_oracle_agreement():
    """Monte Carlo I/V estimators agree with deterministic quadrature at a
    pinned differential point and a pinned coherent point, within three
    combined error bounds (MC standard error plus quadrature refinement
    delta)."""
    p = oracles.DIFF_POINT
    est = diff_capacity_dispersion(
        DiffChannelParams(gamma=p["gamma"], rho=p["rho"], order=p["order"]),
        1_000_000, seed=7)
    tol_i = 3 * (est.i_stderr + oracles.DIFF_GH_DELTA[0])
    tol_v = 3 * (est.v_stderr + oracles.DIFF_GH_DELTA[1])
    print(f"diff: I mc={est.i:.6f} quad={oracles.DIFF_GH60[0]:.6f} "
          f"V mc={est.v:.6f} quad={oracles.DIFF_GH60[1]:.6f}")
    assert abs(est.i - oracles.DIFF_GH60[0]) <= tol_i
    assert abs(est.v - oracles.DIFF_GH60[1]) <= tol_v

    est2 = coherent_capacity_dispersion(
        oracles.BPSK_POINT["gamma_hat"], psk(2), 1_000_000, seed=8)
    tol_i2 = 3 * (est2.i_stderr + oracles.BPSK_QUAD_DELTA[0])
    tol_v2 = 3 * (est2.v_stderr + oracles.BPSK_QUAD_DELTA[1])
    print(f"bpsk: I mc={est2.i:.6f} quad={oracles.BPSK_QUAD[0]:.6f} "
          f"V mc={est2.v:.6f} quad={oracles.BPSK_QUAD[1]:.6f}")
    assert abs(est2.i - oracles.BPSK_QUAD[0]) <= tol_i2
    assert abs(est2.v - oracles.BPSK_QUAD[1]) <= tol_v2


def _cli_env():
    """Environment for CLI subprocesses: the directory holding the imported
    ``minislot`` goes first on PYTHONPATH, so the child runs the package
    under test from any working directory, installed or loaded from
    ``src``; inherited entries follow. ``FBL_SEED`` is dropped so the
    config's seed is the one in effect."""
    env = dict(os.environ)
    env.pop("FBL_SEED", None)
    pkg_root = str(Path(minislot.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _run_cli(args, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "minislot.cli"] + args,
        capture_output=True, cwd=cwd, env=_cli_env(),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_9_cli_byte_reproducibility(tmp_path):
    """Every subcommand produces byte-identical output across two runs
    under a fixed seed."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "fdTs": [0.01, 0.05], "gammaDb": [0.0, 4.0],
        "nSamples": 10_000, "seed": 12,
    }))
    point = tmp_path / "point.json"
    point.write_text(json.dumps({
        "fdTs": 0.01, "gammaDb": 2.0, "nSamples": 10_000, "seed": 12,
    }))
    cross = tmp_path / "cross.json"
    cross.write_text(json.dumps({
        "schemes": ["PA", "FDDi"], "fdTs": [0.01, 0.05, 0.1],
        "gammaDb": 5.4, "nSamples": 10_000, "seed": 12,
    }))

    probe = subprocess.run(
        [sys.executable, "-c", "import minislot; print(minislot.__file__)"],
        capture_output=True, text=True, cwd=tmp_path, env=_cli_env(),
    )
    assert probe.returncode == 0, probe.stderr
    ours = Path(minislot.__file__).resolve()
    theirs = Path(probe.stdout.strip()).resolve()
    assert theirs == ours, (
        f"CLI subprocess imports {theirs}, tests import {ours}")

    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    _run_cli(["sweep", str(cfg), "--bounds", "-o", str(out_a)], tmp_path)
    _run_cli(["sweep", str(cfg), "--bounds", "-o", str(out_b)], tmp_path)
    assert out_a.read_bytes() == out_b.read_bytes()
    print("PASS sweep bytes identical")

    sel_a = _run_cli(["select", str(point)], tmp_path)
    sel_b = _run_cli(["select", str(point)], tmp_path)
    assert sel_a == sel_b and sel_a
    print("PASS select bytes identical")

    cr_a = _run_cli(["crossover", str(cross)], tmp_path)
    cr_b = _run_cli(["crossover", str(cross)], tmp_path)
    assert cr_a == cr_b and cr_a
    print("PASS crossover bytes identical")

    st_a = _run_cli(["selftest"], tmp_path)
    st_b = _run_cli(["selftest"], tmp_path)
    assert st_a == st_b and b"PASS" in st_a
    print("PASS selftest bytes identical")


DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_against_package_under_test(demo, tmp_path):
    """Every demos/ script runs to exit 0 in a subprocess that imports the
    package under test, as criterion 9's CLI children do."""
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True,
        cwd=tmp_path, env=_cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
