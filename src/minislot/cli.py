"""Batch front end: JSON-configured sweeps, scheme selection, crossover.

A scenario JSON configures the grid, channel, payload and sweep axes:

    {
      "K": 64, "T": 2, "deltaSub": 2, "highMobility": false,
      "pdp": {"L": 5, "decay": 1.0},
      "fdTs": [0.01, 0.1], "gammaDb": [0, 2, 4],
      "B": 64, "M": 4,
      "schemes": ["PA", "FDDi", "TDDi"],
      "nSamples": 1000000, "seed": 0
    }

fdTs and gammaDb accept a scalar or a finite ascending list; M accepts one
order or a per-scheme mapping. CONFIG_FIELDS gives each key its Scenario
field and its flag; flag text is merged into the document, and
Scenario.__post_init__ validates the result, so a bad value fails the same
way (exit 1) from the file, a flag or Python.

Every output is a function of the operating point alone. (I, V) and the
normal approximation come from deterministic quadrature, and `sweep
--bounds` computes the IS/DT bounds from the same quadrature law of the
per-use information density, by FFT convolution on a lattice
(bounds.lattice_bounds); the stderr columns hold that computation's
deterministic error scale. Each distinct equivalent channel is evaluated
once per call: FDDi's never depends on fdTs, so its rows are computed once
per gammaDb. nSamples and the seed are validated and echoed in their own
CSV columns, and reach nothing else. Sweep points run in scenario order, so
output is deterministic byte for byte given the scenario.

Exit codes: 0 success, 1 configuration error (usage errors and an
unwritable output file included), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from ._util import db_to_lin, lin_to_db
from .channel import DopplerSpec, exponential_pdp
from .chanest import EstimationCollapseError
from .fbl import (
    DiffChannelParams, InfeasiblePayloadError, channel_fbl, equivalent_channel,
    feasible_blocklength,
)
from .grid import (
    FDDI, MINI_SLOT_LENGTHS, PA, SCHEMES, TDDI, MiniSlotGrid, data_symbol_count, qam,
    standard_pattern,
)

__all__ = ["ConfigError", "Scenario", "Recommendation",
           "run_sweep", "select_scheme", "doppler_crossover", "selftest", "main"]

CSV_COLUMNS = (
    "scheme", "K", "T", "M", "fdTs", "gammaDb", "N", "R",
    "sigmaE2", "gammaHatDb", "I", "V",
    "epsilonNA", "epsilonIS", "epsilonISstderr", "epsilonDT", "epsilonDTstderr",
    "nSamples", "seed",
)

INFEASIBLE_MARKER = "INFEASIBLE_PAYLOAD"

# deterministic tie-break: lower reference overhead wins
_TIE_ORDER = {FDDI: 0, PA: 1, TDDI: 2}


class ConfigError(ValueError):
    """Scenario or flag validation failed."""


# Largest accepted K, M and |gammaDb|. The --bounds window grows with N (a
# K=1024, T=7 bounds sweep takes 0.08-0.25 s and 65-80 MB, the top end at
# M=64); the pair law's exponent array grows with M (an M=64 select, 64-QAM
# PA against 64-PSK FDDi and TDDi, takes 0.03 s and peaks near 65 MB; square
# QAM's law holds no M-sized array); and 2000 dB overflows the differential
# channel's coefficients, while +-300 dB still evaluates.
K_MAX = 1024
M_MAX = 64
GAMMA_DB_MAX = 300.0
# exp(-decay * (L - 1)) of the weakest tap stays a normal double up to here
_DECAY_SPAN_MAX = 700.0
_INT_MAX = 2**63 - 1


def _integer(value, name: str, lo: int, hi: int = _INT_MAX) -> int:
    """value as an int in [lo, hi]; floats count when integral (1e6)."""
    integral = isinstance(value, (float, np.floating)) and float(value).is_integer()
    v = int(value) if integral else value
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool) and lo <= v <= hi:
        return int(v)
    top = "2**63 - 1" if hi == _INT_MAX else hi
    raise ConfigError(f"{name} must be an integer in [{lo}, {top}], got {value!r}")


def _real(value, name: str) -> float:
    """value as a finite float; booleans and strings are no numbers."""
    number = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if number and abs(value) <= sys.float_info.max:  # False for nan, inf, huge ints
        return float(value)
    raise ConfigError(f"{name} must be finite, got {value!r}")


def _sweep(value, name: str, lo: float, hi: float) -> tuple:
    """A scalar or a strictly ascending list of finite values in [lo, hi]."""
    vals = tuple(value) if isinstance(value, (list, tuple)) else (value,)
    if not vals:
        raise ConfigError(f"{name} sweep must not be empty")
    out = tuple(_real(v, f"{name} values") for v in vals)
    if not all(lo <= v <= hi for v in out):
        raise ConfigError(f"{name} values must lie in [{lo:g}, {hi:g}], got {list(out)}")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ConfigError(f"{name} sweep must be strictly ascending")
    return out


def _order(value, name: str) -> int:
    m = _integer(value, name, 2, M_MAX)
    if m & (m - 1):
        raise ConfigError(f"{name} must be a power of two in [2, {M_MAX}], got {value!r}")
    return m


@dataclass(frozen=True)
class Scenario:
    """One validated run configuration.

    Construction checks every field, whether the values come from JSON,
    from flags or from Python: a value of the wrong type or outside its
    range raises ConfigError with a one-line message. Integral floats such
    as 1e6 count as integers; fdTs and gammaDb become tuples, M becomes a
    scheme -> order map.
    """

    n_subcarriers: int = 64
    n_symbols: int = 2
    delta_sub: int = 2
    high_mobility: bool = False
    pdp_taps: int = 5
    pdp_decay: float = 1.0
    fd_ts: tuple = (0.01,)
    gamma_db: tuple = (2.0,)
    n_info_bits: int = 64
    orders: dict = field(default_factory=lambda: {s: 4 for s in SCHEMES})
    schemes: tuple = SCHEMES
    n_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        k = _integer(self.n_subcarriers, "K", 2, K_MAX)
        put("n_subcarriers", k)
        put("n_symbols", _integer(self.n_symbols, "T", 2, 7))
        if self.n_symbols not in MINI_SLOT_LENGTHS:
            raise ConfigError(f"T must be one of {MINI_SLOT_LENGTHS}, got {self.n_symbols}")
        # at least two pilots per pilot symbol, as linear interpolation needs
        put("delta_sub", _integer(self.delta_sub, "deltaSub", 1, k // 2))
        if k % self.delta_sub:
            raise ConfigError(f"deltaSub must divide K={k}, got {self.delta_sub}")
        if not isinstance(self.high_mobility, bool):
            raise ConfigError(f"highMobility must be true or false, got {self.high_mobility!r}")
        put("pdp_taps", _integer(self.pdp_taps, "pdp.L", 1, k - 1))  # K > L
        put("pdp_decay", _real(self.pdp_decay, "pdp.decay"))
        if self.pdp_decay < 0.0 or self.pdp_decay * (self.pdp_taps - 1) > _DECAY_SPAN_MAX:
            raise ConfigError(
                f"pdp.decay must be >= 0 with decay * (L - 1) <= {_DECAY_SPAN_MAX:g}, "
                f"got {self.pdp_decay!r}"
            )
        put("fd_ts", _sweep(self.fd_ts, "fdTs", 0.0, np.inf))
        put("gamma_db", _sweep(self.gamma_db, "gammaDb", -GAMMA_DB_MAX, GAMMA_DB_MAX))
        put("n_info_bits", _integer(self.n_info_bits, "B", 1))
        if not isinstance(self.schemes, (list, tuple)):
            raise ConfigError(f"schemes must be a list of scheme names, got {self.schemes!r}")
        put("schemes", tuple(self.schemes))
        if not self.schemes:
            raise ConfigError("schemes must name at least one scheme")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}; choose from {SCHEMES}")
        if len(set(self.schemes)) < len(self.schemes):
            raise ConfigError(f"schemes must not repeat, got {list(self.schemes)}")
        if isinstance(self.orders, dict):
            unknown = [s for s in self.orders if s not in SCHEMES]
            if unknown:
                raise ConfigError(f"unknown M keys {unknown}; choose from {SCHEMES}")
            put("orders", {s: _order(m, f"M for {s}") for s, m in self.orders.items()})
            missing = [s for s in self.schemes if s not in self.orders]
            if missing:
                raise ConfigError(f"no modulation order given for {missing}")
        else:
            m = _order(self.orders, "M")
            put("orders", {s: m for s in SCHEMES})
        put("n_samples", _integer(self.n_samples, "nSamples", 10_000))
        put("seed", _integer(self.seed, "seed", 0))

    @classmethod
    def from_json(cls, doc: dict) -> "Scenario":
        """Scenario from a parsed JSON object keyed as in CONFIG_FIELDS."""
        pdp = doc.get("pdp", {})
        if not isinstance(pdp, dict):
            raise ConfigError("pdp must be an object with L and decay")
        flat = [(k, v) for k, v in doc.items() if k != "pdp" and "." not in k]
        flat += [(f"pdp.{k}", v) for k, v in pdp.items()]
        unknown = [k for k, _ in flat if k not in _FIELD_OF]
        unknown += [k for k in doc if "." in k]
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{_FIELD_OF[k]: v for k, v in flat})

    def build(self):
        """Grid and power delay profile for this scenario."""
        pattern = standard_pattern(self.n_symbols, self.high_mobility, self.delta_sub)
        grid = MiniSlotGrid(self.n_subcarriers, self.n_symbols, pattern)
        return grid, exponential_pdp(self.pdp_taps, self.pdp_decay)


def _flag_value(text: str):
    """Flag text as the JSON value it spells; other text stays a string."""
    try:
        return json.loads(text)
    except ValueError:
        return text.strip()


def _flag_list(text: str) -> list:
    return [_flag_value(x) for x in text.split(",") if x.strip()]


def _flag_orders(text: str):
    if "=" not in text:
        return _flag_value(text)
    pairs = (part.partition("=") for part in text.split(","))
    return {k.strip(): _flag_value(v) for k, _, v in pairs}


def _flag_bool(text: str):
    return {"0": False, "1": True}.get(text.strip(), _flag_value(text))


# One row per config field: JSON key ("pdp.L" is member L of the "pdp"
# object), Scenario field, flag, how the flag's text becomes the JSON value,
# and the flag's help. Flags are merged into the document before
# validation, so a bad flag value fails like the same value in the file.
CONFIG_FIELDS = (
    ("K", "n_subcarriers", "--k", _flag_value, "subcarriers"),
    ("T", "n_symbols", "--t", _flag_value, "OFDM symbols: 2, 4 or 7"),
    ("deltaSub", "delta_sub", "--delta-sub", _flag_value, "pilot spacing"),
    ("highMobility", "high_mobility", "--high-mobility", _flag_bool, "0 or 1"),
    ("pdp.L", "pdp_taps", "--taps", _flag_value, "channel taps"),
    ("pdp.decay", "pdp_decay", "--decay", _flag_value, "tap power decay"),
    ("fdTs", "fd_ts", "--fd-ts", _flag_list, "comma-separated ascending list"),
    ("gammaDb", "gamma_db", "--gamma-db", _flag_list, "comma-separated ascending list"),
    ("B", "n_info_bits", "--b", _flag_value, "payload bits"),
    ("M", "orders", "--m", _flag_orders, "one order, or pairs like PA=16,FDDi=4"),
    ("schemes", "schemes", "--schemes", _flag_list, "comma-separated"),
    ("nSamples", "n_samples", "--n-samples", _flag_value, "echoed in its column"),
    ("seed", "seed", "--seed", _flag_value, "echoed in its column"),
)
_FIELD_OF = {key: name for key, name, *_ in CONFIG_FIELDS}


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _emit(text: str, output_path):
    """Write text to output_path, or to stdout when it is None."""
    if output_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(output_path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(
            f"cannot write output file {output_path}: {exc.strerror or exc}") from exc


def _evaluate(scenario: Scenario, grid, pdp, points, include_bounds: bool = False):
    """Yield each (scheme, fdTs, gammaDb) point's FblResult, or its
    InfeasiblePayloadError, in order. Each point builds its own channel, but
    channel_fbl runs once per distinct (channel key, N, B) in the call; a
    repeat copies its numbers and keeps its own sigma_e2 and gamma_hat.
    Nothing outlives the call, and no law outlives its point."""
    done = {}
    for scheme, fd, gamma_db in points:
        order = scenario.orders[scheme]
        try:
            n = feasible_blocklength(grid, scheme, scenario.n_info_bits, order)
        except InfeasiblePayloadError as exc:
            yield exc
            continue
        channel = equivalent_channel(
            scheme, grid, pdp, DopplerSpec(fd), db_to_lin(gamma_db), order)
        key = (channel.key, n, scenario.n_info_bits)
        if key not in done:
            done[key] = channel_fbl(channel, n, scenario.n_info_bits, include_bounds)
        yield replace(done[key], sigma_e2=channel.sigma_e2, gamma_hat=channel.gamma_hat)


def run_sweep(scenario: Scenario, output_path=None, include_bounds: bool = False):
    """Run the full (scheme, fdTs, gammaDb) sweep; returns CSV text.

    One row per combination, schemes outermost; rows with equal channels
    are computed once. Bounds columns stay empty unless include_bounds is
    set; then each row gets the IS and DT bounds that lattice_bounds reads
    off the law its (I, V) came from, with their deterministic error scale
    in the stderr columns. A payload that does not fit a scheme's data
    symbols gets an INFEASIBLE_PAYLOAD marker in epsilonNA and the run goes on.
    """
    grid, pdp = scenario.build()
    points = [(s, fd, g) for s in scenario.schemes
              for g in scenario.gamma_db for fd in scenario.fd_ts]
    rows = _evaluate(scenario, grid, pdp, points, include_bounds)
    lines = [",".join(CSV_COLUMNS)]
    for (scheme, fd, gamma_db), res in zip(points, rows):
        cells = {c: "" for c in CSV_COLUMNS}
        cells.update(
            scheme=scheme, K=grid.n_subcarriers, T=grid.n_symbols,
            M=scenario.orders[scheme], fdTs=fd, gammaDb=gamma_db,
            nSamples=scenario.n_samples, seed=scenario.seed,
        )
        if isinstance(res, InfeasiblePayloadError):
            n = data_symbol_count(grid, scheme)
            cells.update(N=n, R=scenario.n_info_bits / n, epsilonNA=INFEASIBLE_MARKER)
        else:
            cells.update(N=res.n, R=res.r, I=res.i, V=res.v, epsilonNA=res.epsilon)
            if res.sigma_e2 is not None:
                cells.update(sigmaE2=res.sigma_e2, gammaHatDb=lin_to_db(res.gamma_hat))
            if res.bounds is not None:
                lo, hi = res.bounds
                cells.update(
                    epsilonIS=lo.value, epsilonISstderr=lo.stderr,
                    epsilonDT=hi.value, epsilonDTstderr=hi.stderr,
                )
        lines.append(",".join(_fmt(cells[c]) for c in CSV_COLUMNS))
    text = "\n".join(lines) + "\n"
    if output_path is not None:
        _emit(text, output_path)
    return text


@dataclass(frozen=True)
class Recommendation:
    """Scheme ranking at one operating point."""

    chosen: str
    rationale: str
    ranked: tuple  # of (scheme, epsilon) pairs, best first
    excluded: tuple  # schemes whose payload did not fit
    log_epsilon: dict = field(default_factory=dict)  # scheme -> ln epsilon

    def to_dict(self) -> dict:
        return {
            "chosen": self.chosen,
            "rationale": self.rationale,
            "ranked": [{"scheme": s, "epsilon": e, "logEpsilon": self.log_epsilon.get(s)}
                       for s, e in self.ranked],
            "excluded": list(self.excluded),
        }


def _single_point(scenario: Scenario):
    if len(scenario.fd_ts) != 1 or len(scenario.gamma_db) != 1:
        raise ConfigError("this subcommand needs scalar fdTs and gammaDb")
    return scenario.fd_ts[0], scenario.gamma_db[0]


def select_scheme(scenario: Scenario) -> Recommendation:
    """Rank the requested schemes by predicted BLER at one operating point.

    The ranking compares ln epsilon, which stays finite where epsilon
    underflows to 0 (normal-approximation arguments past about 38). Ties
    break FDDi > PA > TDDi (lower reference overhead first). The rationale
    names the dominant factor: payload when a scheme was excluded for
    rate > 1, Doppler when the pilot-assisted effective-SNR penalty exceeds
    1 dB, overhead otherwise.
    """
    fd, gamma_db = _single_point(scenario)
    gamma = db_to_lin(gamma_db)
    points = [(s, fd, gamma_db) for s in scenario.schemes]
    results = {}
    excluded = []
    for (scheme, *_), res in zip(points, _evaluate(scenario, *scenario.build(), points)):
        if isinstance(res, InfeasiblePayloadError):
            excluded.append(scheme)
        else:
            results[scheme] = res
    if not results:
        raise ConfigError("payload infeasible for every requested scheme")
    best_first = sorted(results, key=lambda s: (results[s].log_epsilon, _TIE_ORDER[s]))
    ranked = [(s, results[s].epsilon) for s in best_first]
    chosen = best_first[0]
    if excluded:
        rationale = (
            f"payload: B={scenario.n_info_bits} does not fit "
            f"{', '.join(excluded)}; best remaining scheme wins"
        )
    else:
        pa = results.get(PA)
        penalty_db = (
            lin_to_db(gamma / pa.gamma_hat) if pa is not None and pa.gamma_hat else 0.0
        )
        if pa is not None and penalty_db >= 1.0:
            rationale = (
                f"Doppler: estimation costs the pilot-assisted scheme "
                f"{penalty_db:.2f} dB of effective SNR at fdTs={fd:g}"
            )
        else:
            rationale = (
                "overhead: estimation is accurate here, the ranking follows "
                "the rate/overhead trade of the schemes"
            )
    return Recommendation(
        chosen=chosen, rationale=rationale, ranked=tuple(ranked),
        excluded=tuple(excluded),
        log_epsilon={s: results[s].log_epsilon for s in best_first},
    )


def doppler_crossover(scenario: Scenario) -> dict:
    """Locate the smallest fdTs where the two schemes' BLER ordering flips.

    Runs the normal-approximation curves over the ascending fdTs sweep at a
    single gammaDb and compares them in ln epsilon, so orderings deep in
    epsilon's underflow still count; FDDi's flat curve is evaluated once.
    No flip returns crossover None; more than one flip is reported as
    ambiguous with every flip point listed.
    """
    if len(scenario.schemes) != 2:
        raise ConfigError("crossover needs exactly two schemes")
    if len(scenario.gamma_db) != 1:
        raise ConfigError("crossover needs a scalar gammaDb")
    gamma_db = scenario.gamma_db[0]
    points = [(s, fd, gamma_db) for s in scenario.schemes for fd in scenario.fd_ts]
    eps = {s: [] for s in scenario.schemes}
    log_eps = {s: [] for s in scenario.schemes}
    for (scheme, *_), res in zip(points, _evaluate(scenario, *scenario.build(), points)):
        if isinstance(res, InfeasiblePayloadError):
            raise ConfigError(str(res)) from res
        eps[scheme].append(res.epsilon)
        log_eps[scheme].append(res.log_epsilon)
    s0, s1 = scenario.schemes
    diff = np.array(log_eps[s0]) - np.array(log_eps[s1])
    signs = np.sign(diff)
    flips = []
    prev = 0.0
    for fd, s in zip(scenario.fd_ts, signs):
        if s != 0.0 and prev != 0.0 and s != prev:
            flips.append(fd)
        if s != 0.0:
            prev = s
    ambiguous = len(flips) > 1
    return {
        "schemes": list(scenario.schemes),
        "gammaDb": gamma_db,
        "fdTs": list(scenario.fd_ts),
        "epsilon": {s: list(map(float, v)) for s, v in eps.items()},
        "logEpsilon": log_eps,
        "crossover": None if (ambiguous or not flips) else flips[0],
        "flips": flips,
        "ambiguous": ambiguous,
    }


# ---------------------------------------------------------------------------
# Self test
# ---------------------------------------------------------------------------

def selftest(verbose: bool = True) -> bool:
    """Fast end-to-end invariant suite; True when everything passes."""
    from . import chanest, channel, fbl, modem

    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))

    def correlations():
        pdp = exponential_pdp(5, 1.0)
        assert channel.time_correlation(0, 0.37) == 1.0
        for dk in range(-8, 9):
            r = channel.freq_correlation(dk, pdp, 64)
            assert abs(r) <= 1.0 + 1e-12
            assert np.isclose(r, np.conj(channel.freq_correlation(-dk, pdp, 64)))

    def roundtrip():
        rng = np.random.default_rng(7)
        v = np.exp(2j * np.pi * rng.integers(0, 8, size=(63, 2)) / 8)
        d = modem.differential_encode(v, FDDI)
        dec = modem.differential_detect(d, FDDI, 8)
        assert np.array_equal(
            dec.hard, np.round(np.angle(v) / (2 * np.pi / 8)).astype(int) % 8
        )

    def chain():
        pdp = exponential_pdp(5, 1.0)
        H, taps = channel.sample_channel_grids(pdp, DopplerSpec(0.05), 64, 2, 1, 11)
        d = np.exp(2j * np.pi * np.random.default_rng(3).random((64, 2)))
        za = modem.ofdm_time_domain_chain(d, taps[0], 0.1, 13).z
        zb = modem.fast_rx(d, H[0], 0.1, 13).z
        assert np.max(np.abs(za - zb)) / np.max(np.abs(zb)) < 1e-9

    def closed_forms():
        assert chanest.effective_snr(0.0, 0.25) == 4.0
        assert fbl.awgn_capacity_dispersion(1.0) == (1.0, 0.75)
        c, v = fbl.awgn_capacity_dispersion(3.0)
        assert c == 2.0 and abs(v - 15.0 / 16.0) < 1e-15

    def na_monotone():
        eps = [
            fbl.normal_approx_bler(1.0, 0.75, 128, r)
            for r in np.linspace(0.2, 1.4, 13)
        ]
        assert all(b >= a for a, b in zip(eps, eps[1:]))

    def sandwich():
        # the bounds `sweep --bounds` reports, on the FDDi row of the default grid
        scn = Scenario(schemes=(FDDI,), n_info_bits=49)
        row = next(csv.DictReader(io.StringIO(run_sweep(scn, include_bounds=True))))
        lo, na, hi = (float(row[c]) for c in ("epsilonIS", "epsilonNA", "epsilonDT"))
        assert lo <= na <= hi, (lo, na, hi)

    def quadrature_vs_monte_carlo():
        gamma = db_to_lin(10.0)
        params = DiffChannelParams(gamma=gamma, rho=0.99, order=4)
        for quad, mc in (
            (fbl.EquivalentChannel(FDDI, diff=params).iv(),
             fbl.diff_capacity_dispersion(params, 100_000, 41)),
            (fbl.EquivalentChannel(PA, gamma_hat=gamma, constellation=qam(16)).iv(),
             fbl.coherent_capacity_dispersion(gamma, qam(16), 100_000, 42)),
        ):
            assert abs(quad.i - mc.i) <= 3 * mc.i_stderr, (quad.i, mc.i, mc.i_stderr)
            assert abs(quad.v - mc.v) <= 3 * mc.v_stderr, (quad.v, mc.v, mc.v_stderr)

    def determinism():
        scn = Scenario(
            n_subcarriers=64, n_symbols=2, fd_ts=(0.01,), gamma_db=(2.0,),
            n_info_bits=32, n_samples=20_000, seed=5,
        )
        assert run_sweep(scn) == run_sweep(scn)

    check("correlation symmetry and bounds", correlations)
    check("differential encode/detect roundtrip", roundtrip)
    check("time-domain chain equals fast path", chain)
    check("closed-form spot values", closed_forms)
    check("normal approximation monotone in rate", na_monotone)
    check("IS <= NA <= DT sandwich", sandwich)
    check("quadrature (I, V) agrees with Monte Carlo", quadrature_vs_monte_carlo)
    check("sweep determinism", determinism)

    ok = all(passed for _, passed, _ in checks)
    if verbose:
        for name, passed, msg in checks:
            line = f"selftest {'PASS' if passed else 'FAIL'}: {name}"
            if msg:
                line += f" ({msg})"
            print(line)
    return ok


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------

def _add_override_flags(p: argparse.ArgumentParser):
    for key, _, flag, _, hint in CONFIG_FIELDS:
        p.add_argument(flag, dest=key, metavar=key, help=f"override {key} ({hint})")


def _load_scenario(path: str, args) -> Scenario:
    """Read the JSON document, merge the flags into it, validate."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    for key, _, _, parse, _ in CONFIG_FIELDS:
        text = getattr(args, key)
        if text is not None:
            head, _, member = key.partition(".")
            target = doc.setdefault(head, {}) if member else doc
            if isinstance(target, dict):  # a non-object "pdp" is from_json's to reject
                target[member or key] = parse(text)
    return Scenario.from_json(doc)


class _Parser(argparse.ArgumentParser):
    """Usage errors are config errors, exit 1 with one line, where argparse
    would print its usage and exit 2, the numerical-failure code."""

    def error(self, message):
        raise ConfigError(f"{message} (see {self.prog} -h)")


_VALUE_FLAGS = frozenset(flag for _, _, flag, _, _ in CONFIG_FIELDS)


def _join_flag_values(argv: list) -> list:
    """Spell `--flag value` as `--flag=value` for the config flags, so that a
    value starting with '-', such as the gammaDb list -5,0, is not taken
    for an option."""
    out = []
    for arg in argv:
        if out and out[-1] in _VALUE_FLAGS:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning  # one stderr line per warning
        return _main(argv)


def _main(argv) -> int:
    parser = _Parser(
        prog="minislot",
        description="Finite-blocklength link analysis for mini-slot OFDM "
                    "(pilot-assisted vs differential schemes)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="scenario JSON -> CSV of BLER results")
    p_sweep.add_argument("config")
    p_sweep.add_argument("-o", "--output", required=True, help="CSV output path")
    p_sweep.add_argument("--bounds", action="store_true",
                         help="also compute IS/DT bounds")
    _add_override_flags(p_sweep)

    p_select = sub.add_parser("select", help="recommend a scheme at one point")
    p_select.add_argument("config")
    p_select.add_argument("-o", "--output", default=None, help="JSON output path")
    _add_override_flags(p_select)

    p_cross = sub.add_parser("crossover",
                             help="find the Doppler where two schemes swap")
    p_cross.add_argument("config")
    p_cross.add_argument("-o", "--output", default=None, help="JSON output path")
    _add_override_flags(p_cross)

    p_self = sub.add_parser("selftest", help="run the invariant suite")

    try:
        args = parser.parse_args(
            _join_flag_values(sys.argv[1:] if argv is None else list(argv)))
        if args.command == "selftest":
            return 0 if selftest() else 2
        scenario = _load_scenario(args.config, args)
        if args.command == "sweep":
            run_sweep(scenario, args.output, include_bounds=args.bounds)
            return 0
        report = (select_scheme(scenario).to_dict() if args.command == "select"
                  else doppler_crossover(scenario))
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.output)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (EstimationCollapseError, InfeasiblePayloadError,
            FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
