"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import minislot as ms  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())["points"]
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Percentile rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, want", [(1, None), (99, None), (100, 90.0),
                                     (999, 90.0), (1000, 99.0), (10_000, 99.9)])
def test_tail_percentile_leaves_ten_samples_beyond(n, want):
    assert spans.tail_percentile(n) == want


def test_reported_percentile_has_ten_samples_beyond():
    values = list(range(1, 101))
    p = spans.tail_percentile(len(values))
    cut = spans.percentile(values, p)
    assert cut == 90
    assert sum(v > cut for v in values) >= 10


# ---------------------------------------------------------------------------
# Self time from nested spans
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_subtracts_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf(dt):
        clock.t += dt

    inner_leaf = tracer.wrap("channel.leaf", leaf)

    def middle():
        clock.t += 1.0
        inner_leaf(2.0)
        inner_leaf(3.0)

    traced_middle = tracer.wrap("chanest.middle", middle)

    def outer():
        clock.t += 0.5
        traced_middle()
        clock.t += 0.25

    tracer.wrap("fbl.outer", outer)()
    own, inclusive, calls, layer_self = spans.summarize(tracer.spans)
    assert own == [0.75, 1.0, 2.0, 3.0]
    assert inclusive["fbl.outer"] == 6.75
    assert inclusive["channel.leaf"] == 5.0
    assert calls["channel.leaf"] == 2
    assert dict(layer_self) == {"fbl": 0.75, "chanest": 1.0, "channel": 5.0}
    assert spans.root_time(tracer.spans) == 6.75
    assert [s[spans.PARENT] for s in tracer.spans] == [-1, 0, 1, 1]


def test_inclusive_time_counts_outermost_span_of_a_name():
    s = [["a.f", 0.0, 10.0, -1, 0, None],
         ["b.g", 1.0, 9.0, 0, 0, None],
         ["a.f", 2.0, 5.0, 1, 0, None]]
    _, inclusive, calls, _ = spans.summarize(s)
    assert inclusive["a.f"] == 10.0
    assert calls["a.f"] == 2


def test_install_wraps_every_namespace_and_uninstall_restores():
    originals = {
        (ms.cli, "scheme_fbl"): ms.fbl.scheme_fbl,
        (ms.cli, "sample_diff_density"): ms.fbl.sample_diff_density,
        (ms.fbl, "channel_estimation_mse"): ms.chanest.channel_estimation_mse,
        (ms.fbl, "freq_correlation"): ms.channel.freq_correlation,
        (ms.chanest, "freq_correlation"): ms.channel.freq_correlation,
        (ms, "run_sweep"): ms.cli.run_sweep,
    }
    grid, pdp = ms.cli.Scenario().build()
    tracer = spans.Tracer()
    tracer.install(ms)
    try:
        for (mod, attr), fn in originals.items():
            assert getattr(mod, attr) is not fn
            assert getattr(mod, attr).__wrapped__ is fn
        ms.cli.scheme_fbl(ms.PA, grid, pdp, ms.DopplerSpec(0.01), 1.5, 64, 4,
                          n_samples=10_000, seed=1)
    finally:
        tracer.uninstall()
    for (mod, attr), fn in originals.items():
        assert getattr(mod, attr) is fn
    names = [s[spans.NAME] for s in tracer.spans]
    assert names[0] == "fbl.scheme_fbl"

    def ancestors(i):
        out = []
        while tracer.spans[i][spans.PARENT] >= 0:
            i = tracer.spans[i][spans.PARENT]
            out.append(names[i])
        return out

    first = {name: ancestors(names.index(name)) for name in set(names)}
    assert first["chanest.channel_estimation_mse"] == ["fbl.scheme_fbl"]
    assert "chanest.channel_estimation_mse" in first["channel.freq_correlation"]
    assert first["fbl.sample_coherent_density"][0] == "fbl.coherent_capacity_dispersion"
    draws = [s[spans.ATTRS]["draws"] for s in tracer.spans
             if s[spans.NAME] == "fbl.sample_coherent_density"]
    assert draws == [10_000]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(workloads.REQUESTS))
def test_generator_is_deterministic_in_the_seed(workload):
    def first(seed):
        return list(itertools.islice(workloads.REQUESTS[workload](seed), 25))

    assert first(7) == first(7)
    assert first(7) != first(8)


def test_decide_and_crossover_ranges():
    for gen, kind in ((workloads.decide_requests, "select"),
                      (workloads.crossover_requests, "crossover")):
        reqs = list(itertools.islice(gen(3), 200))
        assert {r["kind"] for r in reqs} == {kind}
        assert [r["doc"]["M"] for r in reqs].count(16) == 50
        for r in reqs:
            doc = r["doc"]
            assert doc["T"] in (2, 4, 7) and doc["M"] in (4, 16)
            assert 0.0 <= doc["gammaDb"] <= 8.0
            top = workloads.fd_max(doc["T"], doc["highMobility"])
            fds = doc["fdTs"] if isinstance(doc["fdTs"], list) else [doc["fdTs"]]
            assert all(0.005 <= f <= top for f in fds)
            if kind == "crossover":
                assert doc["schemes"] == ["PA", "FDDi"] and len(fds) == 10
                assert fds == sorted(set(fds))


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def fake_sweep_csv(req, override=(), doc=None):
    """A sweep CSV whose I and V are the frozen reference values."""
    doc = doc or req["doc"]
    cols = ms.cli.CSV_COLUMNS
    lines = [",".join(cols)]
    fds = doc["fdTs"] if isinstance(doc["fdTs"], list) else [doc["fdTs"]]
    gammas = doc["gammaDb"] if isinstance(doc["gammaDb"], list) else [doc["gammaDb"]]
    for scheme in doc["schemes"]:
        for g in gammas:
            for f in fds:
                ref = REFERENCE[f"{scheme}|M{doc['M']}|{f:g}|{g:g}"]
                cells = dict.fromkeys(cols, "")
                cells.update(scheme=scheme, K=64, T=2, M=doc["M"], fdTs=f"{f:g}",
                             gammaDb=f"{g:g}", N=100, R=0.64, I=repr(ref["i"]),
                             V=repr(ref["v"]), epsilonNA="0.01",
                             nSamples=doc["nSamples"], seed=doc["seed"])
                if req.get("bounds"):
                    cells.update(epsilonIS="0.005", epsilonISstderr="0.0001",
                                 epsilonDT="0.02", epsilonDTstderr="0.0001")
                cells.update(dict(override).get((scheme, f, g), {}))
                lines.append(",".join(str(cells[c]) for c in cols))
    return "\n".join(lines) + "\n"


def check_sweep(req, text):
    return workloads.check_sweep(req, text, ms.cli.CSV_COLUMNS, REFERENCE)


def na_request():
    return next(workloads.na_sweep_requests(0))


def test_checker_accepts_reference_sweep():
    req = na_request()
    assert check_sweep(req, fake_sweep_csv(req)) == (36, [])


def test_checker_rejects_epsilon_outside_unit_interval():
    req = na_request()
    text = fake_sweep_csv(req, {("PA", 0.05, 2.0): {"epsilonNA": "1.5"}})
    n, failures = check_sweep(req, text)
    assert n == 36 and len(failures) == 1 and "epsilonNA" in failures[0]


def test_checker_rejects_fddi_row_that_differs_across_fdts():
    req = na_request()
    text = fake_sweep_csv(req, {("FDDi", 0.1, 4.0): {"epsilonNA": "0.0100001"}})
    n, failures = check_sweep(req, text)
    assert len(failures) == 1 and "differs across fdTs" in failures[0]


def test_checker_rejects_i_far_from_reference():
    req = na_request()
    ref = REFERENCE["TDDi|M4|0.01|0"]
    text = fake_sweep_csv(req, {("TDDi", 0.01, 0.0): {"I": ref["i"] + 0.05}})
    _, failures = check_sweep(req, text)
    assert len(failures) == 1 and "I=" in failures[0]


def test_checker_rejects_wrong_header_for_every_row():
    req = na_request()
    text = fake_sweep_csv(req).replace("epsilonNA", "eps", 1)
    n, failures = check_sweep(req, text)
    assert n == 36 and len(failures) == 36


def test_checker_rejects_broken_sandwich():
    req = next(workloads.bounds_sweep_requests(0))
    assert check_sweep(req, fake_sweep_csv(req)) == (3, [])
    text = fake_sweep_csv(req, {("FDDi", 0.01, 2.0): {"epsilonIS": "0.5"}})
    _, failures = check_sweep(req, text)
    assert len(failures) == 1 and "outside [IS" in failures[0]


def test_checker_rejects_bad_select_and_crossover():
    sel = {"kind": "select", "doc": {"schemes": ["PA", "FDDi", "TDDi"]}}
    good = ms.cli.Recommendation(chosen="PA", rationale="",
                                 ranked=(("PA", 0.01), ("FDDi", 0.02), ("TDDi", 0.5)),
                                 excluded=())
    assert workloads.check_select(sel, good) == (1, [])
    unsorted = ms.cli.Recommendation(chosen="PA", rationale="",
                                     ranked=(("PA", 0.03), ("FDDi", 0.02), ("TDDi", 0.5)),
                                     excluded=())
    assert workloads.check_select(sel, unsorted)[1]
    ladder = workloads.ladder(2, False)
    cro = {"kind": "crossover", "doc": {"schemes": ["PA", "FDDi"], "fdTs": ladder}}
    rep = {"crossover": ladder[3], "flips": [ladder[3]], "fdTs": ladder,
           "epsilon": {"PA": [0.1] * 10, "FDDi": [0.2] * 10}}
    assert workloads.check_crossover(cro, rep) == (1, [])
    assert workloads.check_crossover(cro, dict(rep, crossover=0.0333))[1]


def test_checker_rejects_failed_verification():
    req = next(workloads.verify_requests(0))
    good = {"selftest": True, "mse": 0.1, "mse_se": 0.001, "mse_closed": 0.1005,
            "chain_mismatch": [1e-15, 2e-15],
            "m16_csv": fake_sweep_csv(req, doc=req["m16_doc"])}

    def check(out):
        return workloads.check_verify(req, out, ms.cli.CSV_COLUMNS, REFERENCE)

    assert check(good) == (6, [])
    assert len(check(dict(good, selftest=False))[1]) == 1
    assert len(check(dict(good, mse_closed=0.11))[1]) == 1
    assert len(check(dict(good, chain_mismatch=[1e-6]))[1]) == 1


def test_checker_rejects_order16_i_far_from_reference():
    req = next(workloads.verify_requests(0))
    doc = req["m16_doc"]
    ref = REFERENCE[f"PA|M16|{doc['fdTs']:g}|{doc['gammaDb']:g}"]
    bad = fake_sweep_csv(req, {("PA", doc["fdTs"], doc["gammaDb"]): {"I": ref["i"] - 0.05}},
                         doc=doc)
    failures = workloads.check_verify(
        req, {"selftest": True, "mse": 0.1, "mse_se": 0.001, "mse_closed": 0.1,
              "chain_mismatch": [0.0], "m16_csv": bad},
        ms.cli.CSV_COLUMNS, REFERENCE)[1]
    assert len(failures) == 1 and "PA" in failures[0] and "I=" in failures[0]


def test_checker_rejects_point_without_reference():
    req = na_request()
    text = fake_sweep_csv(req).replace("PA,64,2,4,", "PA,64,2,16,", 1)
    _, failures = check_sweep(req, text)
    assert len(failures) == 1 and "no frozen reference" in failures[0]


# ---------------------------------------------------------------------------
# BENCHMARK.json lists exactly the metrics the runner reports
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_reported_metrics():
    req = {"kind": "select", "doc": {}}
    e2e = run.end_to_end([(req, None, 0.1, None)], 1.0, 0.4)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()}
    tracer = spans.Tracer()
    tracer.install(ms)
    try:
        grid, pdp = ms.cli.Scenario().build()
        ms.cli.scheme_fbl(ms.FDDI, grid, pdp, ms.DopplerSpec(0.01), 1.5, 64, 4,
                          n_samples=10_000, seed=1)
    finally:
        tracer.uninstall()
    layer = run.trace_metrics(ms, tracer.spans, 1, 1.0, 0.9, 1)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        k: v["unit"] for k, v in layer.items()}
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.REQUESTS)


def test_malformed_reply_fails_every_operation_of_its_request():
    req = na_request()
    text = fake_sweep_csv(req, {("PA", 0.01, 0.0): {"I": "garbage"}})
    done = [(req, text, 1.0, None), (req, None, 1.0, "RuntimeError: boom")]
    attempted, failed, messages = run.check_all(ms, done, REFERENCE)
    assert (attempted, failed) == (72, 72) and len(messages) == 2
