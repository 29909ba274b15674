"""Scenario config, sweep CSV, selection and crossover reports, exit codes."""

import collections
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import minislot
from minislot import fbl
from minislot.cli import (
    CONFIG_FIELDS,
    CSV_COLUMNS,
    INFEASIBLE_MARKER,
    ConfigError,
    Scenario,
    doppler_crossover,
    main,
    run_sweep,
    select_scheme,
    _fmt,
)
from minislot.grid import FDDI, PA, TDDI


def test_fmt_cell_rules():
    assert _fmt(None) == ""
    assert _fmt("") == ""
    assert _fmt(INFEASIBLE_MARKER) == INFEASIBLE_MARKER
    assert _fmt(64) == "64"
    assert _fmt(0.123456789012345) == "0.123456789012"
    assert _fmt(2.0) == "2"


def test_scenario_defaults_match_empty_json():
    assert Scenario.from_json({}) == Scenario()
    sc = Scenario()
    assert sc.schemes == (PA, FDDI, TDDI)
    assert sc.orders == {PA: 4, FDDI: 4, TDDI: 4}


def test_scenario_from_json_full_document():
    doc = {
        "K": 128, "T": 4, "deltaSub": 4, "highMobility": True,
        "pdp": {"L": 3, "decay": 0.5},
        "fdTs": [0.01, 0.1], "gammaDb": 6.0,
        "B": 96, "M": {"PA": 16, "FDDi": 4, "TDDi": 4},
        "schemes": ["PA", "FDDi", "TDDi"], "nSamples": 50_000, "seed": 7,
    }
    sc = Scenario.from_json(doc)
    assert sc.n_subcarriers == 128 and sc.n_symbols == 4
    assert sc.delta_sub == 4 and sc.high_mobility
    assert sc.pdp_taps == 3 and sc.pdp_decay == 0.5
    assert sc.fd_ts == (0.01, 0.1) and sc.gamma_db == (6.0,)
    assert sc.n_info_bits == 96
    assert sc.orders == {PA: 16, FDDI: 4, TDDI: 4}
    assert sc.n_samples == 50_000 and sc.seed == 7


def test_scenario_scalar_order_broadcasts():
    sc = Scenario.from_json({"M": 16, "schemes": ["PA", "FDDi"]})
    assert all(sc.orders[s] == 16 for s in sc.schemes)


def test_scenario_rejections():
    with pytest.raises(ConfigError):
        Scenario.from_json({"mystery": 1})
    with pytest.raises(ConfigError):
        Scenario.from_json({"fdTs": [0.1, 0.05]})  # not ascending
    with pytest.raises(ConfigError):
        Scenario.from_json({"gammaDb": [2.0, 2.0]})  # not strictly ascending
    with pytest.raises(ConfigError):
        Scenario.from_json({"schemes": ["PA", "DPSK"]})
    with pytest.raises(ConfigError):
        Scenario.from_json({"M": {"PA": 4}})  # FDDi and TDDi uncovered
    with pytest.raises(ConfigError):
        Scenario.from_json({"B": 0})
    with pytest.raises(ConfigError):
        Scenario.from_json({"nSamples": 9_999})
    with pytest.raises(ConfigError):
        Scenario.from_json({"seed": -1})
    with pytest.raises(ConfigError):
        Scenario.from_json({"fdTs": -0.1})
    with pytest.raises(ConfigError):
        # payload grid too small for the delay spread
        Scenario.from_json({"K": 4, "pdp": {"L": 5}}).build()


SMALL = dict(fdTs=[0.01, 0.1], gammaDb=[0.0, 4.0], nSamples=10_000, seed=3)


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_run_sweep_structure():
    sc = Scenario.from_json(dict(SMALL))
    text = run_sweep(sc)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    rows = _rows(text)
    assert len(rows) == 3 * 2 * 2  # schemes x gamma x fdTs
    for row in rows:
        assert row["K"] == "64" and row["T"] == "2"
        assert float(row["epsilonNA"]) >= 0.0
        assert row["epsilonIS"] == "" and row["epsilonDT"] == ""
        if row["scheme"] == "PA":
            assert 0.0 < float(row["sigmaE2"]) < 1.0
            assert float(row["gammaHatDb"]) < float(row["gammaDb"])
        else:
            assert row["sigmaE2"] == "" and row["gammaHatDb"] == ""


def test_run_sweep_deterministic_and_seed_sensitive(tmp_path):
    sc = Scenario.from_json(dict(SMALL))
    a = run_sweep(sc)
    out = tmp_path / "sweep.csv"
    b = run_sweep(sc, output_path=str(out))
    assert a == b == out.read_text()
    # without bounds the seed only reaches its own column
    c = run_sweep(Scenario.from_json({**SMALL, "seed": 4}))
    assert c != a
    drop_seed = lambda text: [{k: v for k, v in r.items() if k != "seed"} for r in _rows(text)]
    assert drop_seed(c) == drop_seed(a)


def test_run_sweep_fddi_rows_doppler_invariant():
    sc = Scenario.from_json({**SMALL, "fdTs": [0.001, 0.05, 0.2]})
    by_fd = {}
    for row in _rows(run_sweep(sc)):
        if row["scheme"] == "FDDi":
            key = row["gammaDb"]
            stripped = {k: v for k, v in row.items() if k != "fdTs"}
            by_fd.setdefault(key, []).append(stripped)
    for key, rows in by_fd.items():
        assert len(rows) == 3
        assert rows[0] == rows[1] == rows[2]


def test_run_sweep_i_nondecreasing_in_snr_and_seed_free():
    """I never falls with SNR up to 60 dB, where it saturates, and the NA
    columns do not depend on the seed: FDDi rows agree across fdTs and
    across master seeds, with no seed shared between rows."""
    doc = {"fdTs": [0.01, 0.1], "gammaDb": list(range(0, 61, 5)), "nSamples": 10_000}
    rows = (_rows(run_sweep(Scenario.from_json({**doc, "seed": 1})))
            + _rows(run_sweep(Scenario.from_json({**doc, "seed": 2}))))
    for scheme in (PA, FDDI, TDDI):
        for fd in ("0.01", "0.1"):
            i = [float(r["I"]) for r in rows[: len(rows) // 2]
                 if r["scheme"] == scheme and r["fdTs"] == fd]
            assert len(i) == 13
            assert all(b >= a for a, b in zip(i, i[1:])), (scheme, fd, i)
    na = ("N", "R", "I", "V", "epsilonNA")
    for gamma_db in doc["gammaDb"]:
        fddi = {tuple(r[c] for c in na) for r in rows
                if r["scheme"] == FDDI and float(r["gammaDb"]) == gamma_db}
        assert len(fddi) == 1, (gamma_db, fddi)


def test_run_sweep_infeasible_marker():
    # B = 150 overflows TDDi (64 QPSK symbols = 128 bits) but not the others
    sc = Scenario.from_json({**SMALL, "B": 150, "fdTs": [0.01],
                             "gammaDb": [4.0]})
    rows = _rows(run_sweep(sc))
    marked = {r["scheme"]: r for r in rows}
    assert marked["TDDi"]["epsilonNA"] == INFEASIBLE_MARKER
    assert marked["TDDi"]["N"] == "64"
    assert float(marked["TDDi"]["R"]) == pytest.approx(150 / 64)
    assert marked["TDDi"]["I"] == ""
    for s in ("PA", "FDDi"):
        assert float(marked[s]["epsilonNA"]) >= 0.0


def test_run_sweep_bounds_columns():
    sc = Scenario.from_json({**SMALL, "fdTs": [0.01], "gammaDb": [2.0],
                             "schemes": ["FDDi"], "nSamples": 20_000,
                             "B": 100})
    rows = _rows(run_sweep(sc, include_bounds=True))
    row = rows[0]
    lo, hi = float(row["epsilonIS"]), float(row["epsilonDT"])
    assert 0.0 <= lo <= hi <= 1.0
    assert float(row["epsilonDTstderr"]) > 0.0


def test_run_sweep_bounds_ignore_seed_and_samples():
    """The bounds come from the quadrature law: seed and nSamples reach only
    their own columns, and every row keeps IS <= NA <= DT."""
    doc = {**SMALL, "fdTs": [0.01], "gammaDb": [2.0], "B": 64}
    a = _rows(run_sweep(Scenario.from_json(doc), include_bounds=True))
    b = _rows(run_sweep(Scenario.from_json({**doc, "seed": 4, "nSamples": 50_000}),
                        include_bounds=True))
    drop = lambda rows: [{k: v for k, v in r.items() if k not in ("seed", "nSamples")}
                         for r in rows]
    assert drop(a) == drop(b)
    for row in a:
        assert float(row["epsilonIS"]) <= float(row["epsilonNA"]) <= float(row["epsilonDT"])


# The na-sweep geometry: 36 rows, of which 9 FDDi rows repeat another row's
# channel (FDDi never depends on fdTs), so 27 channels are distinct.
NA_SWEEP = {
    "K": 64, "T": 2, "deltaSub": 2, "highMobility": False,
    "pdp": {"L": 5, "decay": 1.0}, "B": 64, "M": 4,
    "fdTs": [0.005, 0.01, 0.05, 0.1], "gammaDb": [0.0, 2.0, 4.0],
    "schemes": ["PA", "FDDi", "TDDi"], "nSamples": 1_000_000, "seed": 1,
}


def _count_evaluations(monkeypatch):
    """Count the per-use laws built, by q-node count (their last argument),
    and the lattice_bounds calls, under the key "bounds"."""
    counts = collections.Counter()

    def counting(real, key):
        def wrapper(*args):
            counts[key(args)] += 1
            return real(*args)
        return wrapper

    by_nodes = lambda args: args[-1]
    monkeypatch.setattr(fbl, "_diff_law", counting(fbl._diff_law, by_nodes))
    monkeypatch.setattr(fbl, "_coherent_law", counting(fbl._coherent_law, by_nodes))
    monkeypatch.setattr(fbl, "lattice_bounds", counting(fbl.lattice_bounds, lambda _: "bounds"))
    return counts


def test_each_distinct_channel_is_evaluated_once_per_call(monkeypatch):
    """A sweep builds one law per distinct equivalent channel at each q rule,
    the bounds read the law (I, V) came from, a crossover's flat FDDi curve
    costs one evaluation, and nothing is remembered between calls."""
    counts = _count_evaluations(monkeypatch)
    sc = Scenario.from_json(NA_SWEEP)
    plain = run_sweep(sc)
    assert counts == {fbl.Q_NODES: 27, fbl.Q_NODES_COARSE: 27}
    counts.clear()
    bounded = run_sweep(sc, include_bounds=True)
    assert counts == {fbl.Q_NODES: 27, fbl.Q_NODES_COARSE: 27, "bounds": 27}
    assert [r["epsilonNA"] for r in _rows(bounded)] == [r["epsilonNA"] for r in _rows(plain)]
    counts.clear()
    run_sweep(sc)
    run_sweep(sc)
    assert counts == {fbl.Q_NODES: 54, fbl.Q_NODES_COARSE: 54}
    counts.clear()
    ladder = [float(f"{x:.4g}") for x in np.geomspace(0.005, 0.15, 10)]
    rep = doppler_crossover(Scenario.from_json(
        {**NA_SWEEP, "fdTs": ladder, "gammaDb": 4.0, "schemes": ["PA", "FDDi"]}))
    assert counts == {fbl.Q_NODES: 11, fbl.Q_NODES_COARSE: 11}
    assert len(set(rep["epsilon"]["FDDi"])) == 1
    assert len(set(rep["epsilon"]["PA"])) == 10


def test_select_internally_consistent():
    sc = Scenario.from_json({**SMALL, "fdTs": [0.01], "gammaDb": [2.0]})
    rec = select_scheme(sc)
    assert rec.chosen == rec.ranked[0][0]
    eps = [e for _, e in rec.ranked]
    assert eps == sorted(eps)
    assert set(s for s, _ in rec.ranked) == {PA, FDDI, TDDI}
    assert rec.excluded == ()
    d = rec.to_dict()
    assert d["chosen"] == rec.chosen
    assert json.dumps(d)  # serializable


def test_select_excludes_infeasible_payload():
    sc = Scenario.from_json({**SMALL, "B": 150, "fdTs": [0.01],
                             "gammaDb": [4.0]})
    rec = select_scheme(sc)
    assert rec.excluded == (TDDI,)
    assert rec.rationale.startswith("payload:")
    assert all(s != TDDI for s, _ in rec.ranked)


def test_select_all_infeasible_is_config_error():
    with pytest.raises(ConfigError):
        select_scheme(Scenario.from_json(
            {**SMALL, "B": 300, "fdTs": [0.01], "gammaDb": [4.0]}))


def test_select_doppler_rationale():
    sc = Scenario.from_json({**SMALL, "fdTs": [0.2], "gammaDb": [4.0]})
    rec = select_scheme(sc)
    assert rec.rationale.startswith("Doppler:")
    assert rec.chosen != PA


def test_select_ranks_on_log_bler_where_epsilon_underflows():
    """At 30 dB every epsilon underflows to 0.0, yet PA's Q argument (about
    142) is twice FDDi's (about 70): ln epsilon ranks PA first instead of
    leaving the choice to the tie-break."""
    rec = select_scheme(Scenario.from_json({"B": 16, "fdTs": 0.01, "gammaDb": 30.0}))
    assert rec.chosen == PA
    assert [e for _, e in rec.ranked] == [0.0, 0.0, 0.0]
    logs = [rec.log_epsilon[s] for s, _ in rec.ranked]
    assert logs[0] < logs[1] < logs[2] < -1000.0
    assert [r["logEpsilon"] for r in rec.to_dict()["ranked"]] == logs


def test_select_requires_scalar_point():
    with pytest.raises(ConfigError):
        select_scheme(Scenario.from_json(dict(SMALL)))


def test_crossover_finds_flip():
    sc = Scenario.from_json({
        "schemes": ["PA", "FDDi"], "fdTs": [0.01, 0.12],
        "gammaDb": 5.4, "nSamples": 20_000, "seed": 3,
    })
    rep = doppler_crossover(sc)
    assert rep["crossover"] == 0.12
    assert rep["flips"] == [0.12]
    assert not rep["ambiguous"]
    assert len(rep["epsilon"]["PA"]) == 2
    # the FDDi curve is flat in Doppler; PA rises through it
    assert rep["epsilon"]["FDDi"][0] == rep["epsilon"]["FDDi"][1]
    assert rep["epsilon"]["PA"][0] < rep["epsilon"]["FDDi"][0]
    assert rep["epsilon"]["PA"][1] > rep["epsilon"]["FDDi"][1]


def test_crossover_compares_log_bler():
    """Both curves sit at epsilon = 0.0 up to fdTs = 0.05; in ln epsilon PA
    still rises through FDDi's flat curve there."""
    rep = doppler_crossover(Scenario.from_json({
        "schemes": ["PA", "FDDi"], "fdTs": [0.01, 0.02, 0.05, 0.1],
        "gammaDb": 30.0, "B": 16,
    }))
    assert rep["epsilon"]["FDDi"] == [0.0] * 4
    assert rep["epsilon"]["PA"][:3] == [0.0] * 3
    assert rep["crossover"] == 0.05 and rep["flips"] == [0.05]
    assert rep["logEpsilon"]["PA"][0] < rep["logEpsilon"]["FDDi"][0]


def test_crossover_none_cases():
    same = Scenario.from_json({
        "schemes": ["FDDi", "TDDi"], "fdTs": [0.01, 0.02],
        "gammaDb": 2.0, "nSamples": 10_000, "seed": 0, "B": 32,
    })
    rep = doppler_crossover(same)
    # TDDi stays better over this narrow range: no flip
    assert rep["crossover"] is None or rep["flips"]
    single = Scenario.from_json({
        "schemes": ["PA", "FDDi"], "fdTs": 0.05,
        "gammaDb": 2.0, "nSamples": 10_000, "seed": 0,
    })
    rep1 = doppler_crossover(single)
    assert rep1["crossover"] is None
    assert rep1["flips"] == []


def test_crossover_argument_errors():
    with pytest.raises(ConfigError):
        doppler_crossover(Scenario.from_json(
            {"schemes": ["PA", "FDDi", "TDDi"], "gammaDb": 2.0,
             "nSamples": 10_000}))
    with pytest.raises(ConfigError):
        doppler_crossover(Scenario.from_json(
            {"schemes": ["PA", "FDDi"], "gammaDb": [2.0, 4.0],
             "nSamples": 10_000}))
    with pytest.raises(ConfigError):
        # infeasible payload inside a crossover run is a config problem
        doppler_crossover(Scenario.from_json(
            {"schemes": ["PA", "TDDi"], "gammaDb": 2.0, "B": 300,
             "nSamples": 10_000}))


def _write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_main_sweep_roundtrip(tmp_path):
    cfg = _write_config(tmp_path, {"fdTs": [0.01], "gammaDb": [2.0],
                                   "nSamples": 10_000, "seed": 1})
    out = tmp_path / "out.csv"
    assert main(["sweep", cfg, "-o", str(out)]) == 0
    rows = _rows(out.read_text())
    assert len(rows) == 3


def test_main_select_stdout_and_file(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"fdTs": 0.01, "gammaDb": 2.0,
                                   "nSamples": 10_000, "seed": 1})
    assert main(["select", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["chosen"] in (PA, FDDI, TDDI)
    out = tmp_path / "rec.json"
    assert main(["select", cfg, "-o", str(out)]) == 0
    assert json.loads(out.read_text()) == doc


def test_main_override_flags(tmp_path):
    cfg = _write_config(tmp_path, {"fdTs": [0.01], "gammaDb": [2.0],
                                   "nSamples": 10_000, "seed": 1})
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["sweep", cfg, "-o", str(out_a), "--b", "32",
                 "--schemes", "FDDi", "--m", "FDDi=16",
                 "--taps", "3", "--decay", "0.5", "--seed", "5"]) == 0
    rows = _rows(out_a.read_text())
    assert len(rows) == 1
    assert rows[0]["M"] == "16"
    assert float(rows[0]["R"]) == pytest.approx(32 / 126)
    # same overrides baked into the config file give the same bytes
    cfg_b = _write_config(tmp_path, {"fdTs": [0.01], "gammaDb": [2.0],
                                     "nSamples": 10_000, "seed": 5,
                                     "B": 32, "schemes": ["FDDi"],
                                     "M": {"FDDi": 16},
                                     "pdp": {"L": 3, "decay": 0.5}}, name="cfg_b.json")
    assert main(["sweep", cfg_b, "-o", str(out_b)]) == 0
    assert out_a.read_text() == out_b.read_text()


def test_main_seed_precedence(tmp_path):
    cfg = _write_config(tmp_path, {"fdTs": [0.01], "gammaDb": [2.0],
                                   "schemes": ["FDDi"],
                                   "nSamples": 10_000, "seed": 1})
    def sweep_text(args):
        out = tmp_path / "p.csv"
        assert main(["sweep", cfg, "-o", str(out)] + args) == 0
        return out.read_text()

    base = sweep_text([])
    flag9 = sweep_text(["--seed", "9"])
    assert base != flag9
    assert sweep_text(["--seed", "1"]) == base


def test_main_config_errors_exit_1(tmp_path, capsys):
    assert main(["sweep", str(tmp_path / "missing.json"),
                 "-o", str(tmp_path / "x.csv")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sweep", str(bad), "-o", str(tmp_path / "x.csv")]) == 1
    cfg = _write_config(tmp_path, {"mystery": True})
    assert main(["select", cfg]) == 1
    capsys.readouterr()
    # an output path that cannot be written is one line too, not a traceback
    ok = _write_config(tmp_path, {"fdTs": 0.01, "gammaDb": 2.0, "schemes": ["FDDi", "PA"]},
                       name="ok.json")
    unwritable = str(tmp_path / "no-such-dir" / "out")
    for argv in (["sweep", ok, "-o", unwritable], ["select", ok, "-o", unwritable],
                 ["crossover", ok, "-o", unwritable]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: cannot write output file {unwritable}")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["sweep", "CFG", "--pdp", "3", "-o", "OUT"], "unrecognized arguments: --pdp 3"),
    (["sweep", "CFG"], "the following arguments are required: -o/--output"),
    (["sweep", "CFG", "-o", "OUT", "--gamma-db"], "argument --gamma-db: expected one argument"),
    (["bogus"], "invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
], ids=("unknown-flag", "missing-output", "flag-without-value", "unknown-command",
        "no-command"))
def test_main_usage_errors_exit_1(tmp_path, capsys, argv, message):
    """A usage error is a config error (exit 1, one line), not argparse's
    exit 2, which is the numerical-failure code."""
    cfg = _write_config(tmp_path, {"fdTs": 0.01, "gammaDb": 2.0})
    argv = [{"CFG": cfg, "OUT": str(tmp_path / "o.csv")}.get(a, a) for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and message in captured.err
    assert captured.err.count("\n") == 1 and "usage:" not in captured.err


def test_main_help_exits_0(capsys):
    for argv in (["-h"], ["sweep", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


def test_main_flag_value_may_start_with_minus(tmp_path):
    """`--gamma-db -5,0` is the list -5,0, as `--gamma-db=-5,0` is."""
    cfg = _write_config(tmp_path, {"fdTs": 0.01, "schemes": ["FDDi"]})
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", cfg, "--gamma-db", "-5,0", "-o", str(out_a)]) == 0
    assert main(["sweep", cfg, "--gamma-db=-5,0", "-o", str(out_b)]) == 0
    assert out_a.read_text() == out_b.read_text()
    assert [row["gammaDb"] for row in _rows(out_a.read_text())] == ["-5", "0"]


@pytest.mark.parametrize("doc, message", [
    ({"highMobility": "no", "T": 7}, "highMobility"),
    ({"highMobility": 1}, "highMobility"),
    ({"M": 3}, "power of two"),
    ({"M": {"PA": 4, "FDDi": 6, "TDDi": 4}}, "power of two"),
    ({"M": {"PA": "x", "FDDi": 4, "TDDi": 4}}, "M for PA must be an integer"),
    ({"pdp": [1, 2]}, "pdp"),
    ({"gammaDb": float("nan")}, "gammaDb values must be finite"),
    ({"fdTs": float("nan")}, "fdTs values must be finite"),
    ({"fdTs": float("inf")}, "fdTs values must be finite"),
    ({"schemes": "PA"}, "schemes must be a list"),
    ({"schemes": []}, "at least one scheme"),
    ({"K": float("inf")}, "K must be an integer"),
    ({"pdp": {"L": 5, "decay": float("nan")}}, "decay"),
    # caps: past them evaluation overflows, runs out of memory or grows unbounded
    ({"gammaDb": 2000.0}, "gammaDb values must lie in [-300, 300]"),
    ({"gammaDb": 1e300}, "gammaDb values must lie in [-300, 300]"),
    ({"gammaDb": -1e300}, "gammaDb values must lie in [-300, 300]"),
    ({"gammaDb": [0.0, 400.0]}, "gammaDb values must lie in [-300, 300]"),
    ({"M": 2**40}, "M must be an integer in [2, 64]"),
    ({"M": 2**70}, "M must be an integer in [2, 64]"),
    ({"M": 128}, "M must be an integer in [2, 64]"),
    ({"K": 2048}, "K must be an integer in [2, 1024]"),
    # accepted silently before
    ({"K": 64.7}, "K must be an integer"),
    ({"B": "64"}, "B must be an integer"),
    ({"B": True}, "B must be an integer"),
    ({"pdp": {"L": 5, "x": 1}}, "unknown config keys: ['pdp.x']"),
    ({"pdp.L": 5}, "unknown config keys: ['pdp.L']"),
    ({"M": {"PA": 4, "FDDi": 4, "TDDi": 4, "XX": 4}}, "unknown M keys ['XX']"),
    ({"schemes": ["PA", "PA"]}, "schemes must not repeat"),
    ({"deltaSub": 64}, "deltaSub must be an integer in [1, 32]"),
    ({"K": 64, "pdp": {"L": 64}}, "pdp.L must be an integer in [1, 63]"),
], ids=("mobility-string", "mobility-int", "M-3", "M-map-6", "M-map-text", "pdp-list",
        "gamma-nan", "fd-nan", "fd-inf", "schemes-string", "schemes-empty", "K-inf",
        "decay-nan", "gamma-2000", "gamma-1e300", "gamma-neg-1e300", "gamma-list-400",
        "M-2e40", "M-2e70", "M-128", "K-2048", "K-fraction", "B-string", "B-bool",
        "pdp-member", "pdp-dotted-key", "M-map-key", "schemes-repeat", "deltaSub-K",
        "L-K"))
def test_main_strict_config_types_exit_1(tmp_path, capsys, doc, message):
    doc = {"fdTs": 0.01, "gammaDb": 2.0, **doc}
    # construction alone rejects it, so main never evaluates a document past a cap
    with pytest.raises(ConfigError, match=re.escape(message)):
        Scenario.from_json(doc)
    cfg = _write_config(tmp_path, doc)
    assert main(["select", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and message in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("flags, message", [
    (["--m", "PA=x"], "M for PA must be an integer"),
    (["--m", "PA=4,FDDi"], "M for FDDi must be an integer"),
    (["--fd-ts", "abc"], "fdTs values must be finite"),
    (["--k", "abc"], "K must be an integer"),
], ids=("m-text", "m-missing-order", "fd-text", "k-text"))
def test_main_bad_flag_value_exit_1(tmp_path, capsys, flags, message):
    """A bad flag value is a config error, like the same value in the file."""
    cfg = _write_config(tmp_path, {"fdTs": 0.01, "gammaDb": 2.0})
    assert main(["select", cfg] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and message in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


_TOP_KEYS = sorted({key.partition(".")[0] for key, *_ in CONFIG_FIELDS})
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["L", "decay", PA, FDDI, TDDI]) | st.text(max_size=3),
        inner, max_size=3),
    max_leaves=6,
)


def _sweeps(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=1, max_size=3, unique=True).map(sorted)


# a valid value per key, so that many documents pass validation and run
_valid_values = {
    "K": st.sampled_from([16, 32, 64, 128]), "T": st.sampled_from([2, 4, 7]),
    "deltaSub": st.sampled_from([1, 2, 4]), "highMobility": st.booleans(),
    "pdp": st.fixed_dictionaries({}, optional={"L": st.integers(1, 8),
                                               "decay": st.floats(0.0, 3.0)}),
    "fdTs": _sweeps(0.0, 0.2), "gammaDb": _sweeps(-10.0, 40.0),
    "B": st.integers(1, 300), "M": st.sampled_from([2, 4, 8, 16]),
    "schemes": st.lists(st.sampled_from([PA, FDDI, TDDI]), min_size=1, unique=True),
    "nSamples": st.integers(10_000, 10**7), "seed": st.integers(0, 2**32),
}
_edits = st.one_of(
    st.sampled_from(sorted(_valid_values)).flatmap(
        lambda key: st.tuples(st.just(key), _valid_values[key])),
    st.tuples(st.sampled_from(_TOP_KEYS) | st.text(max_size=6), _json_values),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    edits=st.lists(_edits, min_size=1, max_size=2),
    command=st.sampled_from(["sweep", "select"]),
)
@example(edits=[("gammaDb", 2000.0)], command="select")
@example(edits=[("gammaDb", 1e300)], command="sweep")
@example(edits=[("gammaDb", -1e300)], command="select")
@example(edits=[("M", 2**40)], command="select")
@example(edits=[("M", 2**70)], command="sweep")
def test_main_any_config_document_exits_cleanly(edits, command):
    """Any JSON object, here a valid base with one or two keys overwritten,
    ends in exit 0, 1 or 2, with one stderr line on failure."""
    doc = {"fdTs": 0.01, "gammaDb": 2.0, **dict(edits)}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        argv = [command, cfg] + (["-o", os.path.join(tmp, "out.csv")] if command == "sweep" else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().count("\n") == 1, err.getvalue()


def test_main_numerical_failure_exit_2(tmp_path, capsys):
    # pilot spacing in time cannot track fdTs = 0.3: estimation collapses
    cfg = _write_config(tmp_path, {
        "T": 7, "fdTs": 0.3, "gammaDb": 10.0, "schemes": ["PA"],
        "nSamples": 10_000, "seed": 0,
    })
    assert main(["select", cfg]) == 2
    assert "numerical failure" in capsys.readouterr().err


def _cli_stderr_lines(tmp_path, doc):
    """Exit code and stderr lines of `python -m minislot.cli select` on doc,
    run on the imported package, with Python's default warning filters."""
    env = dict(os.environ)
    pkg_root = str(Path(minislot.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "minislot.cli", "select", _write_config(tmp_path, doc)],
        capture_output=True, text=True, env=env,
    )
    return proc.returncode, proc.stderr.splitlines()


def test_cli_stderr_one_line_per_message(tmp_path):
    """A warning prints as one `warning:` line ahead of the failure line, and
    running the module prints no import warning of its own."""
    code, lines = _cli_stderr_lines(
        tmp_path, {"fdTs": 0.3, "gammaDb": 10, "T": 7, "schemes": ["FDDi", "PA"]})
    assert code == 2
    assert len(lines) == 2, lines
    assert lines[0].startswith("warning: |Im rho_f(1)|")
    assert lines[1].startswith("numerical failure: ")
    code, lines = _cli_stderr_lines(tmp_path, {"K": 63})
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("config error: "), lines


GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


GOLDEN_CASES = [
    (["sweep", "sweep_bounds.json", "--bounds"], "sweep_bounds.csv"),
    (["select", "select.json"], "select.out.json"),
    (["crossover", "crossover.json"], "crossover.out.json"),
    (["sweep", "na_sweep.json"], "na_sweep.csv"),
    (["sweep", "na_sweep.json", "--bounds"], "na_sweep_bounds.csv"),
    (["sweep", "mixed.json", "--bounds"], "mixed_bounds.csv"),
    (["select", "mixed_point.json"], "mixed_point.out.json"),
    (["crossover", "crossover_m16.json"], "crossover_m16.out.json"),
]


@pytest.mark.parametrize("argv, output", GOLDEN_CASES, ids=[o for _, o in GOLDEN_CASES])
def test_output_matches_golden_bytes(tmp_path, argv, output):
    """CLI output is byte for byte the committed file in tests/data/golden:
    criterion 9's sweep --bounds, select and crossover configs, the
    benchmark's na-sweep geometry with and without bounds, an infeasible
    scheme in a sweep and a select, and an order-16 crossover ladder at
    T = 7 under high mobility.

    A change that is meant to move these numbers (ROADMAP items 2-4 are)
    regenerates the files with the same command, `python -m minislot.cli
    <argv> -o tests/data/golden/<output>`, and lists the moved files in
    CHANGES.md."""
    command, config, *flags = argv
    out = tmp_path / output
    assert main([command, str(GOLDEN / config), *flags, "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / output).read_bytes()


def test_benchmark_interface():
    """The entry points a benchmark harness drives stay in place: documents
    shaped like its requests (nSamples, seed, a pdp object, list fdTs)
    validate, build and run through the cli functions, and the names it
    imports exist."""
    assert issubclass(minislot.ModelFidelityWarning, UserWarning)
    assert minislot.cli.CSV_COLUMNS == CSV_COLUMNS
    geometry = {"K": 64, "deltaSub": 2, "pdp": {"L": 5, "decay": 1.0}, "B": 64}
    for t in (2, 4, 7):
        for hm in (False, True):
            minislot.cli.Scenario.from_json({**geometry, "T": t, "highMobility": hm}).build()
    sweep = {**geometry, "T": 2, "highMobility": False, "fdTs": [0.005, 0.1],
             "gammaDb": [0.0, 4.0], "M": 4, "schemes": ["PA", "FDDi", "TDDi"],
             "nSamples": 1_000_000, "seed": 1_234_567}
    sc = minislot.cli.Scenario.from_json(sweep)
    sc.build()
    text = minislot.cli.run_sweep(sc, include_bounds=True)
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS) and len(_rows(text)) == 12
    point = {**geometry, "T": 7, "highMobility": True, "fdTs": 0.05, "gammaDb": 3.5,
             "M": 16, "schemes": ["PA", "FDDi", "TDDi"], "nSamples": 100_000, "seed": 9}
    rec = minislot.cli.select_scheme(minislot.cli.Scenario.from_json(point))
    assert rec.ranked[0][0] == rec.chosen and rec.excluded == ()
    rep = minislot.cli.doppler_crossover(minislot.cli.Scenario.from_json(
        {**point, "T": 4, "highMobility": False, "fdTs": [0.005, 0.03, 0.1167],
         "M": 4, "schemes": ["PA", "FDDi"]}))
    assert {"crossover", "flips", "fdTs", "epsilon"} <= set(rep)
    assert all(len(rep["epsilon"][s]) == 3 for s in ("PA", "FDDi"))
    for module, name in (
        ("cli", "selftest"), ("channel", "DopplerSpec"), ("channel", "sample_channel_grids"),
        ("channel", "freq_correlation"), ("channel", "time_correlation"),
        ("chanest", "measure_mse"), ("chanest", "channel_estimation_mse"),
        ("modem", "ofdm_time_domain_chain"), ("modem", "fast_rx"),
    ):
        assert callable(getattr(getattr(minislot, module), name)), (module, name)
    # perfbench/make_reference.py reads these from the package; no test runs
    # it (2e7 draws per point), so a missing name would otherwise go unseen
    for name in (
        "sample_diff_density", "sample_coherent_density", "fddi_correlation",
        "tddi_correlation", "effective_snr", "default_constellation",
        "DiffChannelParams", "channel_estimation_mse", "MiniSlotGrid",
        "standard_pattern", "exponential_pdp", "SCHEMES", "__version__",
        "DopplerSpec", "ModelFidelityWarning", "PA", "FDDI",
    ):
        assert hasattr(minislot, name), name
    # the package re-exports each layer's __all__ and nothing else
    names = minislot.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(minislot, name)
    layers = ("channel", "grid", "modem", "chanest", "fbl", "bounds")
    want = [n for layer in layers for n in getattr(minislot, layer).__all__]
    assert sorted(names) == sorted([*want, *minislot._CLI_NAMES, "__version__"])
