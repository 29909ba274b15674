"""Scenario config, sweep CSV, selection and crossover reports, exit codes."""

import csv
import io
import json

import pytest

from minislot.cli import (
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
                 "--schemes", "FDDi", "--m", "FDDi=16"]) == 0
    rows = _rows(out_a.read_text())
    assert len(rows) == 1
    assert rows[0]["M"] == "16"
    assert float(rows[0]["R"]) == pytest.approx(32 / 126)
    # same overrides baked into the config file give the same bytes
    cfg_b = _write_config(tmp_path, {"fdTs": [0.01], "gammaDb": [2.0],
                                     "nSamples": 10_000, "seed": 1,
                                     "B": 32, "schemes": ["FDDi"],
                                     "M": {"FDDi": 16}}, name="cfg_b.json")
    assert main(["sweep", cfg_b, "-o", str(out_b)]) == 0
    assert out_a.read_text() == out_b.read_text()


def test_main_seed_precedence(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, {"fdTs": [0.01], "gammaDb": [2.0],
                                   "schemes": ["FDDi"],
                                   "nSamples": 10_000, "seed": 1})
    def sweep_text(args, env_seed=None):
        out = tmp_path / "p.csv"
        if env_seed is None:
            monkeypatch.delenv("FBL_SEED", raising=False)
        else:
            monkeypatch.setenv("FBL_SEED", env_seed)
        assert main(["sweep", cfg, "-o", str(out)] + args) == 0
        return out.read_text()

    base = sweep_text([])
    env9 = sweep_text([], env_seed="9")
    flag9 = sweep_text(["--seed", "9"])
    flag9_env2 = sweep_text(["--seed", "9"], env_seed="2")
    assert env9 == flag9 == flag9_env2
    assert base != env9
    assert sweep_text([], env_seed="1") == base


def test_main_config_errors_exit_1(tmp_path, capsys):
    assert main(["sweep", str(tmp_path / "missing.json"),
                 "-o", str(tmp_path / "x.csv")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sweep", str(bad), "-o", str(tmp_path / "x.csv")]) == 1
    cfg = _write_config(tmp_path, {"mystery": True})
    assert main(["select", cfg]) == 1
    ok = _write_config(tmp_path, {"fdTs": 0.01, "gammaDb": 2.0,
                                  "nSamples": 10_000}, name="ok.json")
    monkey_bad_seed = {"FBL_SEED": "not-a-number"}
    import os

    old = os.environ.get("FBL_SEED")
    os.environ["FBL_SEED"] = "not-a-number"
    try:
        assert main(["select", ok]) == 1
    finally:
        if old is None:
            del os.environ["FBL_SEED"]
        else:
            os.environ["FBL_SEED"] = old
    capsys.readouterr()


@pytest.mark.parametrize("doc, message", [
    ({"highMobility": "no", "T": 7}, "highMobility"),
    ({"highMobility": 1}, "highMobility"),
    ({"M": 3}, "power of two"),
    ({"M": {"PA": 4, "FDDi": 6, "TDDi": 4}}, "power of two"),
    ({"M": {"PA": "x", "FDDi": 4, "TDDi": 4}}, "invalid literal"),
    ({"pdp": [1, 2]}, "pdp"),
    ({"gammaDb": float("nan")}, "gammaDb values must be finite"),
    ({"fdTs": float("nan")}, "fdTs values must be finite"),
    ({"fdTs": float("inf")}, "fdTs values must be finite"),
    ({"schemes": "PA"}, "schemes must be a list"),
    ({"schemes": []}, "at least one scheme"),
    ({"K": float("inf")}, "infinity"),
    ({"pdp": {"L": 5, "decay": float("nan")}}, "decay"),
], ids=("mobility-string", "mobility-int", "M-3", "M-map-6", "M-map-text", "pdp-list",
        "gamma-nan", "fd-nan", "fd-inf", "schemes-string", "schemes-empty", "K-inf",
        "decay-nan"))
def test_main_strict_config_types_exit_1(tmp_path, capsys, doc, message):
    cfg = _write_config(tmp_path, {"fdTs": 0.01, "gammaDb": 2.0, **doc})
    assert main(["select", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and message in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_main_numerical_failure_exit_2(tmp_path, capsys):
    # pilot spacing in time cannot track fdTs = 0.3: estimation collapses
    cfg = _write_config(tmp_path, {
        "T": 7, "fdTs": 0.3, "gammaDb": 10.0, "schemes": ["PA"],
        "nSamples": 10_000, "seed": 0,
    })
    assert main(["select", cfg]) == 2
    assert "numerical failure" in capsys.readouterr().err
