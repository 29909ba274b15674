"""Regenerate perfbench/reference.json, the frozen (I, V) the checks compare to.

Run from the repository root:

    python3 perfbench/make_reference.py

Each point draws REF_SAMPLES per-use information densities with minislot's
public samplers, in chunks, from a seed no benchmark run uses, and stores
I, V, their standard errors and the standard deviation of the squared
centred density (which gives a row's nominal V standard error). The output
records the command, seed, sample count and library versions.

Points are keyed "scheme|M<order>|fdTs|gammaDb". They are the order-4 grid of
na-sweep (FDDi does not depend on fdTs, so one FDDi point per gammaDb is drawn
and stored under every fdTs) and one order-16 point per scheme (16-QAM for PA,
16-PSK for FDDi and TDDi) at the point the verify pass sweeps.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import warnings
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import minislot as ms  # noqa: E402
from workloads import M16_FD, M16_GAMMA, NA_FD, NA_GAMMA  # noqa: E402

REF_SEED = 20261017
REF_SAMPLES = 20_000_000
CHUNK = 1_000_000


def moments(draw, n_total, rng):
    """Mean, variance and fourth central moment accumulated over chunks."""
    shift = None
    sums = np.zeros(5)
    done = 0
    while done < n_total:
        m = min(CHUNK, n_total - done)
        x = draw(m, rng)
        if shift is None:
            shift = float(x.mean())
        y = x - shift
        sums += [m, y.sum(), (y * y).sum(), (y ** 3).sum(), (y ** 4).sum()]
        done += m
    n, s1, s2, s3, s4 = sums
    mu = s1 / n
    e2, e3, e4 = s2 / n, s3 / n, s4 / n
    var_pop = e2 - mu * mu
    m4 = e4 - 4 * mu * e3 + 6 * mu * mu * e2 - 3 * mu ** 4
    v = var_pop * n / (n - 1)
    return shift + mu, v, m4


def sampler(scheme, grid, pdp, fd, gamma, order):
    if scheme == ms.PA:
        mse = ms.channel_estimation_mse(pdp, ms.DopplerSpec(fd), grid, gamma)
        gamma_hat = ms.effective_snr(mse.sigma_e2, 1.0 / gamma)
        const = ms.default_constellation(scheme, order)
        return lambda n, rng: ms.sample_coherent_density(gamma_hat, const, n, rng)
    if scheme == ms.FDDI:
        rho = ms.fddi_correlation(pdp, grid.n_subcarriers)
    else:
        rho = ms.tddi_correlation(ms.DopplerSpec(fd))
    params = ms.DiffChannelParams(gamma=gamma, rho=rho, order=order)
    return lambda n, rng: ms.sample_diff_density(params, n, rng)


def point(scheme, grid, pdp, fd, gamma_db, order, rng):
    gamma = 10.0 ** (gamma_db / 10.0)
    i, v, m4 = moments(sampler(scheme, grid, pdp, fd, gamma, order), REF_SAMPLES, rng)
    v_sd = math.sqrt(max(m4 - v * v, 0.0))
    return {
        "i": i, "v": v,
        "i_se": math.sqrt(v / REF_SAMPLES),
        "v_se": v_sd / math.sqrt(REF_SAMPLES),
        "v_sd": v_sd,
    }


def main():
    warnings.simplefilter("ignore", ms.ModelFidelityWarning)
    grid = ms.MiniSlotGrid(64, 2, ms.standard_pattern(2, False, 2))
    pdp = ms.exponential_pdp(5, 1.0)
    points = {}
    for si, scheme in enumerate(ms.SCHEMES):
        for gi, gamma_db in enumerate(NA_GAMMA):
            fddi = None
            for fi, fd in enumerate(NA_FD):
                key = f"{scheme}|M4|{fd:g}|{gamma_db:g}"
                if scheme == ms.FDDI and fddi is not None:
                    points[key] = fddi
                    continue
                rng = np.random.default_rng([REF_SEED, si, gi, fi])
                points[key] = point(scheme, grid, pdp, fd, gamma_db, 4, rng)
                if scheme == ms.FDDI:
                    fddi = points[key]
                print(key, points[key], file=sys.stderr)
        key = f"{scheme}|M16|{M16_FD:g}|{M16_GAMMA:g}"
        rng = np.random.default_rng([REF_SEED, 16, si])
        points[key] = point(scheme, grid, pdp, M16_FD, M16_GAMMA, 16, rng)
        print(key, points[key], file=sys.stderr)
    meta = {
        "command": "python3 perfbench/make_reference.py",
        "seed": REF_SEED,
        "samples_per_point": REF_SAMPLES,
        "geometry": "K=64 T=2 deltaSub=2 highMobility=false pdp L=5 decay=1",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "minislot": ms.__version__,
    }
    out = HERE / "reference.json"
    out.write_text(json.dumps({"meta": meta, "points": points}, indent=1) + "\n")


if __name__ == "__main__":
    main()
