"""Workload generators, request execution and output checks.

Every workload is a closed loop with one client: the next request is sent
only after the previous reply arrived. Requests are generated from the
benchmark seed alone; minislot only ever sees the generated scenario
documents (the same JSON the CLI reads) and the arguments listed here.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np

GEOMETRY = {"K": 64, "deltaSub": 2, "pdp": {"L": 5, "decay": 1.0}, "B": 64}
SCHEMES = ["PA", "FDDi", "TDDi"]

NA_FD = [0.005, 0.01, 0.05, 0.1]
NA_GAMMA = [0.0, 2.0, 4.0]
NA_SAMPLES = 1_000_000
BOUNDS_SAMPLES = 100_000
DECIDE_SAMPLES = 100_000
# Order 16 costs about twice order 4 per request, so on decide and crossover
# the order is not drawn at random but cycles with period ORDER16_EVERY: every
# run then holds the same share of order-16 requests and its latency and
# throughput do not hinge on how many the seed happened to draw. One in four
# puts the median inside the order-4 latency mode and p90 inside the order-16
# mode; an even mix would put the median in the gap between them.
ORDER16_EVERY = 4
VERIFY_MSE_REALIZATIONS = 10_000
# The verify pass also sweeps all three schemes at order 16 (16-QAM for PA,
# 16-PSK for FDDi and TDDi) at this point of the na-sweep geometry and checks
# (I, V) against the frozen reference: 16-QAM at 10 dB is where ROADMAP item 3
# expects quadrature to converge slowly.
M16_FD = 0.01
M16_GAMMA = 10.0
M16_SAMPLES = 200_000
VERIFY_CHAIN_GRIDS = 4
VERIFY_NOISE_VAR = 0.1

# Reference tolerance: |x - ref| <= Z_TOL * (ref stderr + row stderr).
Z_TOL = 5.0
SANDWICH_SE = 3.0
MSE_SE = 4.0
CHAIN_TOL = 1e-9


def _master_seed(rng):
    return int(rng.integers(0, 2**31 - 1))


def _doc(**fields):
    doc = dict(GEOMETRY)
    doc.update(fields)
    return doc


def fd_max(n_symbols, high_mobility):
    """Largest fdTs at which pilot reuse over one pilot window stays usable.

    Beyond about 0.35 / (delta_sym - 1) the estimate on the last reuse symbol
    decorrelates and the closed-form sigma_e^2 reaches 1, where minislot
    reports EstimationCollapseError (CLI exit 2) by design rather than a
    ranking. Decision requests stay inside that region.
    """
    delta_sym = 4 if (n_symbols == 7 and high_mobility) else n_symbols
    return min(0.15, float(f"{0.35 / (delta_sym - 1):.4g}"))


def ladder(n_symbols, high_mobility):
    """The ten-step log-spaced fdTs ladder of a crossover request."""
    top = fd_max(n_symbols, high_mobility)
    return [float(f"{x:.4g}") for x in np.geomspace(0.005, top, 10)]


# ---------------------------------------------------------------------------
# Request generators (deterministic in the seed)
# ---------------------------------------------------------------------------

def na_sweep_requests(seed):
    rng = np.random.default_rng([seed, 1])
    while True:
        yield {"kind": "sweep", "bounds": False, "doc": _doc(
            T=2, highMobility=False, fdTs=NA_FD, gammaDb=NA_GAMMA, M=4,
            schemes=SCHEMES, nSamples=NA_SAMPLES, seed=_master_seed(rng))}


def bounds_sweep_requests(seed):
    rng = np.random.default_rng([seed, 2])
    while True:
        yield {"kind": "sweep", "bounds": True, "doc": _doc(
            T=2, highMobility=False, fdTs=0.01, gammaDb=2.0, M=4,
            schemes=SCHEMES, nSamples=BOUNDS_SAMPLES, seed=_master_seed(rng))}


def _operating_point(rng, i):
    """T, high mobility, gammaDb and order of the i-th decision request."""
    order = 16 if i % ORDER16_EVERY == 1 else 4
    n_symbols = int(rng.choice([2, 4, 7]))
    high_mobility = bool(rng.integers(0, 2))
    gamma_db = float(f"{rng.uniform(0.0, 8.0):.4g}")
    return n_symbols, high_mobility, gamma_db, order


def decide_requests(seed):
    rng = np.random.default_rng([seed, 3])
    for i in itertools.count():
        n_symbols, high_mobility, gamma_db, order = _operating_point(rng, i)
        top = fd_max(n_symbols, high_mobility)
        fd = float(f"{math.exp(rng.uniform(math.log(0.005), math.log(top))):.4g}")
        yield {"kind": "select", "doc": _doc(
            T=n_symbols, highMobility=high_mobility, fdTs=fd,
            gammaDb=gamma_db, M=order, schemes=SCHEMES,
            nSamples=DECIDE_SAMPLES, seed=_master_seed(rng))}


def crossover_requests(seed):
    rng = np.random.default_rng([seed, 5])
    for i in itertools.count():
        n_symbols, high_mobility, gamma_db, order = _operating_point(rng, i)
        yield {"kind": "crossover", "doc": _doc(
            T=n_symbols, highMobility=high_mobility,
            fdTs=ladder(n_symbols, high_mobility), gammaDb=gamma_db, M=order,
            schemes=["PA", "FDDi"], nSamples=DECIDE_SAMPLES,
            seed=_master_seed(rng))}


def verify_requests(seed):
    rng = np.random.default_rng([seed, 4])
    while True:
        fd = float(f"{math.exp(rng.uniform(math.log(0.005), math.log(0.1))):.4g}")
        yield {"kind": "verify",
               "doc": _doc(T=4, highMobility=False, fdTs=fd,
                           gammaDb=float(f"{rng.uniform(0.0, 10.0):.4g}")),
               "mse_seed": _master_seed(rng),
               "chain_fd": float(f"{rng.uniform(0.0, 0.1):.4g}"),
               "chain_seed": _master_seed(rng),
               "m16_doc": _doc(T=2, highMobility=False, fdTs=M16_FD, gammaDb=M16_GAMMA,
                               M=16, schemes=SCHEMES, nSamples=M16_SAMPLES,
                               seed=_master_seed(rng))}


def setup_docs(workload, seed):
    """Scenario documents whose grids and PDPs a user's process builds."""
    if workload in ("decide", "crossover"):
        return [_doc(T=t, highMobility=hm) for t in (2, 4, 7) for hm in (False, True)]
    return [next(REQUESTS[workload](seed))["doc"]]


# ---------------------------------------------------------------------------
# Execution: the timed part of a request
# ---------------------------------------------------------------------------

def execute(ms, req):
    """Send one request to minislot through its public functions."""
    kind = req["kind"]
    scenario = ms.cli.Scenario.from_json(req["doc"])
    if kind == "sweep":
        return ms.cli.run_sweep(scenario, include_bounds=req["bounds"])
    if kind == "select":
        return ms.cli.select_scheme(scenario)
    if kind == "crossover":
        return ms.cli.doppler_crossover(scenario)
    if kind == "verify":
        return _verify_pass(ms, req, scenario)
    raise ValueError(f"unknown request kind {kind!r}")


def _verify_pass(ms, req, scenario):
    ok = ms.cli.selftest(verbose=False)
    grid, pdp = scenario.build()
    doppler = ms.channel.DopplerSpec(scenario.fd_ts[0])
    gamma = 10.0 ** (scenario.gamma_db[0] / 10.0)
    meas = ms.chanest.measure_mse(pdp, doppler, grid, gamma,
                                  VERIFY_MSE_REALIZATIONS, req["mse_seed"])
    closed = ms.chanest.channel_estimation_mse(pdp, doppler, grid, gamma)
    K, T = grid.n_subcarriers, grid.n_symbols
    H, taps = ms.channel.sample_channel_grids(
        pdp, ms.channel.DopplerSpec(req["chain_fd"]), K, T, VERIFY_CHAIN_GRIDS,
        req["chain_seed"])
    rng = np.random.default_rng(req["chain_seed"])
    mismatch = []
    for g in range(VERIFY_CHAIN_GRIDS):
        d = np.exp(2j * np.pi * rng.random((K, T)))
        noise_seed = req["chain_seed"] + g
        za = ms.modem.ofdm_time_domain_chain(d, taps[g], VERIFY_NOISE_VAR, noise_seed).z
        zb = ms.modem.fast_rx(d, H[g], VERIFY_NOISE_VAR, noise_seed).z
        mismatch.append(float(np.max(np.abs(za - zb)) / np.max(np.abs(zb))))
    m16 = ms.cli.run_sweep(ms.cli.Scenario.from_json(req["m16_doc"]))
    return {"selftest": ok, "mse": meas.sigma_e2, "mse_se": meas.sigma_e2_se,
            "mse_closed": closed.sigma_e2, "chain_mismatch": mismatch, "m16_csv": m16}


# ---------------------------------------------------------------------------
# Checks: each returns (operations, failure messages)
# ---------------------------------------------------------------------------

def _sweep_rows(doc):
    n = 1
    for key in ("fdTs", "gammaDb"):
        n *= len(doc[key]) if isinstance(doc[key], list) else 1
    return n * len(doc["schemes"])


def expected_ops(req):
    """Operations a request stands for: CSV rows, one decision, or three
    checks plus the order-16 rows of a verification pass."""
    if req["kind"] == "sweep":
        return _sweep_rows(req["doc"])
    return 3 + _sweep_rows(req["m16_doc"]) if req["kind"] == "verify" else 1


def _ref_failures(row, reference, where):
    key = (f"{row['scheme']}|M{int(row['M'])}|{float(row['fdTs']):g}"
           f"|{float(row['gammaDb']):g}")
    ref = reference.get(key)
    if ref is None:
        return [f"{where}: no frozen reference for {key}"]
    n = int(row["nSamples"])
    out = []
    i, v = float(row["I"]), float(row["V"])
    tol_i = Z_TOL * (ref["i_se"] + math.sqrt(ref["v"] / n))
    tol_v = Z_TOL * (ref["v_se"] + ref["v_sd"] / math.sqrt(n))
    if not abs(i - ref["i"]) <= tol_i:
        out.append(f"{where}: I={i:.6g} vs reference {ref['i']:.6g} (tol {tol_i:.2g})")
    if not abs(v - ref["v"]) <= tol_v:
        out.append(f"{where}: V={v:.6g} vs reference {ref['v']:.6g} (tol {tol_v:.2g})")
    return out


def check_sweep(req, text, columns, reference):
    """Per-row checks of a sweep CSV; a row fails if any of its checks fails."""
    return _check_csv(req["doc"], req.get("bounds", False), text, columns, reference)


def _check_csv(doc, with_bounds, text, columns, reference):
    lines = text.splitlines()
    n_rows = _sweep_rows(doc)
    if not lines or lines[0] != ",".join(columns):
        return n_rows, [f"header {lines[:1]} != CSV_COLUMNS"] * n_rows
    rows = list(csv.DictReader(io.StringIO(text)))
    fds = doc["fdTs"] if isinstance(doc["fdTs"], list) else [doc["fdTs"]]
    gammas = doc["gammaDb"] if isinstance(doc["gammaDb"], list) else [doc["gammaDb"]]
    want = [(s, g, f) for s in doc["schemes"] for g in gammas for f in fds]
    if len(rows) != n_rows:
        return n_rows, [f"{len(rows)} rows, expected {n_rows}"] * n_rows
    failures = []
    fddi_first = {}
    for row, (scheme, gamma_db, fd) in zip(rows, want):
        where = f"{scheme} fdTs={fd:g} gammaDb={gamma_db:g}"
        bad = []
        if (row["scheme"], float(row["gammaDb"]), float(row["fdTs"])) != (scheme, gamma_db, fd):
            bad.append(f"{where}: row out of order ({row['scheme']}, {row['fdTs']})")
        try:
            eps = float(row["epsilonNA"])
        except ValueError:
            eps = math.nan
        if not 0.0 <= eps <= 1.0:
            bad.append(f"{where}: epsilonNA={row['epsilonNA']!r} outside [0, 1]")
        if scheme == "FDDi":
            body = {k: v for k, v in row.items() if k != "fdTs"}
            first = fddi_first.setdefault(gamma_db, body)
            if body != first:
                bad.append(f"{where}: FDDi row differs across fdTs")
        if not bad:
            bad += _ref_failures(row, reference, where)
        if with_bounds and not bad:
            bad += _sandwich_failures(row, eps, where)
        if bad:
            failures.append("; ".join(bad))
    return n_rows, failures


def _sandwich_failures(row, eps, where):
    try:
        lo, lo_se = float(row["epsilonIS"]), float(row["epsilonISstderr"])
        hi, hi_se = float(row["epsilonDT"]), float(row["epsilonDTstderr"])
    except ValueError:
        return [f"{where}: bound columns missing"]
    out = []
    if not lo - SANDWICH_SE * lo_se <= eps <= hi + SANDWICH_SE * hi_se:
        out.append(f"{where}: NA={eps:.4g} outside [IS={lo:.4g}, DT={hi:.4g}] +- 3 se")
    if not lo <= hi:
        out.append(f"{where}: IS={lo:.4g} > DT={hi:.4g}")
    return out


def check_select(req, rec):
    requested = req["doc"]["schemes"]
    eps = [e for _, e in rec.ranked]
    bad = []
    if rec.chosen not in requested:
        bad.append(f"chosen {rec.chosen!r} not requested")
    if not rec.ranked or rec.ranked[0][0] != rec.chosen:
        bad.append("chosen scheme is not ranked first")
    if any(b < a for a, b in zip(eps, eps[1:])):
        bad.append(f"ranked not ascending: {eps}")
    if not all(0.0 <= e <= 1.0 for e in eps):
        bad.append(f"epsilon outside [0, 1]: {eps}")
    if sorted([s for s, _ in rec.ranked] + list(rec.excluded)) != sorted(requested):
        bad.append("ranked + excluded != requested schemes")
    return 1, ["; ".join(bad)] if bad else []


def check_crossover(req, rep):
    doc = req["doc"]
    bad = []
    if rep["crossover"] is not None and rep["crossover"] not in doc["fdTs"]:
        bad.append(f"crossover {rep['crossover']} not on the ladder")
    if rep["fdTs"] != doc["fdTs"]:
        bad.append("reply ladder differs from the request")
    for scheme in doc["schemes"]:
        eps = rep["epsilon"].get(scheme, [])
        if len(eps) != len(doc["fdTs"]) or not all(0.0 <= e <= 1.0 for e in eps):
            bad.append(f"{scheme}: epsilon curve malformed")
    if any(f not in doc["fdTs"] for f in rep["flips"]):
        bad.append("flip not on the ladder")
    return 1, ["; ".join(bad)] if bad else []


def check_verify(req, out, columns, reference):
    n_rows, failures = _check_csv(req["m16_doc"], False, out["m16_csv"], columns, reference)
    if out["selftest"] is not True:
        failures.append("selftest returned False")
    miss = abs(out["mse"] - out["mse_closed"])
    if not miss <= MSE_SE * out["mse_se"]:
        failures.append(f"measured sigma_e2={out['mse']:.5g} vs closed form "
                        f"{out['mse_closed']:.5g}: {miss:.2g} > 4 se")
    worst = max(out["chain_mismatch"])
    if not worst < CHAIN_TOL:
        failures.append(f"time-domain chain vs fast_rx mismatch {worst:.2g}")
    return 3 + n_rows, failures


def check(req, reply, columns, reference):
    kind = req["kind"]
    if kind == "sweep":
        return check_sweep(req, reply, columns, reference)
    if kind == "select":
        return check_select(req, reply)
    if kind == "crossover":
        return check_crossover(req, reply)
    return check_verify(req, reply, columns, reference)


REQUESTS = {
    "na-sweep": na_sweep_requests,
    "bounds-sweep": bounds_sweep_requests,
    "decide": decide_requests,
    "crossover": crossover_requests,
    "verify": verify_requests,
}
