"""minislot benchmark: one workload, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload na-sweep --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics untraced: a closed loop of requests
for --seconds seconds, and set-up time as the fastest of several fresh
processes started before and after the loop.
--trace 1 runs the loop untraced for half the time, then the same requests
again with spans around every public layer function, and reports per-layer
metrics, the tracing overhead, and the spans as JSONL under perfbench/out/.

Human-readable lines come first; the last line of stdout is one JSON object
with correct, attempted, failed and metrics. The exit code is 1 when any
correctness check failed and 2 when the run could not start.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # pin BLAS/OpenMP pools before numpy loads
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# Interference from other work on the host only ever adds time to a start,
# so the fastest of many starts is the steady estimate of the set-up cost.
# The host's speed drifts over tens of seconds, so half of the starts run
# before the request loop and half after it.
SETUP_STARTS = 12
SETUP_TIMEOUT_S = 60

# A fresh interpreter imports minislot and builds the workload's grids and
# PDPs; it prints the seconds this took (interpreter start-up excluded).
SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import json, os, sys
sys.path.insert(0, sys.argv[1])
import minislot
from minislot.cli import Scenario
for doc in json.loads(sys.argv[2]):
    Scenario.from_json(doc).build()
elapsed = time.perf_counter() - t0
if os.path.dirname(os.path.dirname(os.path.realpath(minislot.__file__))) != os.path.realpath(sys.argv[1]):
    sys.exit("minislot imported from outside " + sys.argv[1])
print(repr(elapsed))
"""


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_minislot():
    sys.path.insert(0, str(SRC))
    try:
        import minislot
    except ImportError as exc:
        fail(f"cannot import minislot from {SRC}: {exc}")
    if Path(minislot.__file__).resolve().parent.parent != SRC.resolve():
        fail(f"minislot was imported from {minislot.__file__}, not {SRC}")
    return minislot


def environment():
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "client_threads": 1,
    }


def measure_setup(docs, starts):
    """Set-up seconds of each of `starts` fresh interpreters."""
    times = []
    for _ in range(starts):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), json.dumps(docs)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            fail(f"set-up process failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip()))
    return times


def run_loop(ms, requests, budget_s=None, count=None, tracer=None):
    """Closed loop with one client; returns [(request, reply, latency, error)].

    With a time budget, a request is sent only while the elapsed time plus the
    last latency fits in the budget (at least one request always runs);
    with a count, exactly that many requests run.
    """
    done = []
    start = time.perf_counter()
    last = 0.0
    for req in requests:
        if count is not None and len(done) >= count:
            break
        if count is None and done and time.perf_counter() - start + last > budget_s:
            break
        if tracer is not None:
            tracer.request = len(done)
        t0 = time.perf_counter()
        try:
            reply, error = workloads.execute(ms, req), None
        except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
            reply, error = None, f"{type(exc).__name__}: {exc}"
        last = time.perf_counter() - t0
        done.append((req, reply, last, error))
    return done, time.perf_counter() - start


def check_all(ms, done, reference):
    attempted = failed = 0
    messages = []
    for req, reply, _, error in done:
        n = workloads.expected_ops(req)
        if error is None:
            try:
                n, bad = workloads.check(req, reply, ms.cli.CSV_COLUMNS, reference)
                failed += len(bad)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                bad = [f"malformed reply: {exc!r}"]
                failed += n
        else:
            bad = [error]
            failed += n
        attempted += n
        messages += bad
    return attempted, failed, messages


def end_to_end(done, wall, setup_s):
    lat = [d[2] for d in done if d[3] is None]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "request_s_p50": {"value": statistics.median(lat) if lat else float("nan"),
                          "unit": "s"},
        "request_s_p90": {"value": spans.percentile(lat, 90) if lat else float("nan"),
                          "unit": "s"},
        "requests_per_s": {"value": len(lat) / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def named_figures(done, wall, metrics):
    """The end-to-end figures a user asks for by name, for the text report.

    Each workload sends one kind of request, so each figure is a bounded
    metric under its user-facing name, except rows_per_s = rows / wall.
    """
    ok = [d for d in done if d[3] is None]
    if not ok:
        return []
    kind, n = ok[0][0]["kind"], len(ok)
    p50 = metrics["request_s_p50"]["value"]
    if kind == "sweep":
        rows = sum(workloads.expected_ops(r) for r, *_ in ok)
        return [("rows_per_s", rows / wall, "1/s", f"{rows} rows")]
    if kind == "verify":
        return [("verify_s", p50, "s", f"median of n={n}")]
    name = "select_s" if kind == "select" else "crossover_s"
    lines = [(f"{name}_p50", p50, "s", f"median of n={n}")]
    if kind == "select":
        beyond = n - math.ceil(0.9 * n)
        rule = "" if spans.tail_percentile(n) else ", fewer than ten samples beyond it"
        lines.append((f"{name}_p90", metrics["request_s_p90"]["value"], "s",
                      f"n={n}, {beyond} beyond{rule}"))
    return lines


def fbl_key_for(ms):
    """The tuple that decides a scheme_fbl result: (scheme, gamma, M,
    rho or gamma_hat, seed, nSamples)."""
    def key(attrs):
        call = attrs["call"]
        scheme = call["scheme"]
        if scheme == ms.PA:
            channel = attrs["gamma_hat"]
        elif scheme == ms.FDDI:
            channel = ms.channel.freq_correlation(1, call["pdp"], call["grid"].n_subcarriers).real
        else:
            channel = float(ms.channel.time_correlation(1, call["doppler"]))
        seed = call["seed"]
        if isinstance(seed, np.random.SeedSequence):
            seed = (repr(seed.entropy), seed.spawn_key)
        return (scheme, call["gamma"], call["order"], channel, seed, call["n_samples"])
    return key


def trace_metrics(ms, span_list, n, wall, plain_wall, n_warn):
    """Per-layer metrics plus the tracing overhead, per request."""
    metrics = spans.layer_metrics(span_list, n, fbl_key_for(ms))
    layer_total = sum(metrics[f"{layer}.self_s"]["value"] for layer in spans.LAYERS)
    metrics.update({
        "fbl.warnings": {"value": n_warn / n, "unit": "count"},
        "trace.wall_s": {"value": wall / n, "unit": "s"},
        "trace.untraced_wall_s": {"value": plain_wall / n, "unit": "s"},
        "trace.overhead_s": {"value": (wall - plain_wall) / n, "unit": "s"},
        "trace.spans": {"value": len(span_list) / n, "unit": "count"},
        "trace.layer_self_share": {"value": layer_total * n / wall, "unit": "ratio"},
        "bench.self_s": {"value": (wall - spans.root_time(span_list)) / n, "unit": "s"},
    })
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.REQUESTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    ms = import_minislot()
    reference = json.loads((HERE / "reference.json").read_text())["points"]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    def requests():
        return workloads.REQUESTS[args.workload](args.seed)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ms.ModelFidelityWarning)
        if args.trace == 0:
            docs = workloads.setup_docs(args.workload, args.seed)
            setup = measure_setup(docs, SETUP_STARTS // 2)
            done, wall = run_loop(ms, requests(), budget_s=args.seconds)
            setup += measure_setup(docs, SETUP_STARTS - len(setup))
            metrics = end_to_end(done, wall, min(setup))
            report = named_figures(done, wall, metrics)
        else:
            plain, plain_wall = run_loop(ms, requests(), budget_s=args.seconds / 2)
            n_warn_plain = len(caught)
            tracer = spans.Tracer()
            tracer.install(ms)
            try:
                traced, wall = run_loop(ms, requests(), count=len(plain), tracer=tracer)
            finally:
                tracer.uninstall()
            n = len(traced)
            n_warn = sum(issubclass(w.category, ms.ModelFidelityWarning)
                         for w in caught[n_warn_plain:])
            metrics = trace_metrics(ms, tracer.spans, n, wall, plain_wall, n_warn)
            OUT.mkdir(exist_ok=True)
            tracer.write_jsonl(OUT / f"{args.workload}-seed{args.seed}.jsonl", {
                "workload": args.workload, "seed": args.seed, "requests": n,
                "traced_wall_s": wall, "untraced_wall_s": plain_wall, "env": env})
            done = plain + traced
            report = []

    attempted, failed, messages = check_all(ms, done, reference)
    print(f"workload {args.workload} seed {args.seed}: {len(done)} requests, "
          f"{failed}/{attempted} operations failed")
    for msg in messages[:20]:
        print(f"FAIL {msg}")
    for name, value in sorted(metrics.items()):
        print(f"metric {name} = {value['value']:.6g} {value['unit']}")
    for name, value, unit, note in report:
        print(f"figure {name} = {value:.6g} {unit} ({note})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
