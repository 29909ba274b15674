"""In-memory spans around the public functions of each minislot layer.

The tracer replaces every public function of a layer module, in every
namespace that bound it (the package, the defining module, and modules that
imported it by name), with a thin wrapper that records one span per call:
name, start, end, parent span and request id, plus a few counts taken from
the call's arguments or result. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import time
from collections import defaultdict

LAYERS = ("channel", "grid", "chanest", "modem", "fbl", "bounds", "cli")

NAME, START, END, PARENT, REQUEST, ATTRS = range(6)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _draws_at(index, name):
    def attrs(args, kwargs, result):
        return {"draws": int(_arg(args, kwargs, index, name))}
    return attrs


def _block_draws(args, kwargs, result):
    n_uses = _arg(args, kwargs, 1, "n_uses")
    return {"draws": int(n_uses) * int(_arg(args, kwargs, 2, "n_blocks"))}


def _bound_stderr(args, kwargs, result):
    return {"stderr": float(result.stderr)}


def _mse_draws(args, kwargs, result):
    return {"draws": int(result.n_realizations)}


def _csv_rows(args, kwargs, result):
    return {"rows": result.count("\n") - 1}


def _fbl_call(args, kwargs, result):
    """Arguments that decide a scheme_fbl result, for the dedup ratio."""
    names = ("scheme", "grid", "pdp", "doppler", "gamma", "n_info_bits", "order",
             "n_samples", "seed")
    call = dict(zip(names, args))
    call.update(kwargs)
    call.setdefault("n_samples", 1_000_000)
    call.setdefault("seed", 0)
    return {"call": call, "gamma_hat": result.gamma_hat,
            "i_stderr": float(result.i_stderr)}


# Counts recorded at the layer boundary, keyed by span name.
ATTR_HOOKS = {
    "fbl.sample_diff_density": _draws_at(1, "n"),
    "fbl.sample_coherent_density": _draws_at(2, "n"),
    "fbl.scheme_fbl": _fbl_call,
    "bounds.block_density_samples": _block_draws,
    "bounds.is_lower_bound": _bound_stderr,
    "bounds.dt_upper_bound": _bound_stderr,
    "chanest.measure_mse": _mse_draws,
    "cli.run_sweep": _csv_rows,
}


class Tracer:
    """Collects spans; `install` wraps the layers, `uninstall` restores them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.request = None
        self._stack = []
        self._patched = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        hook = ATTR_HOOKS.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                span[ATTRS] = hook(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self, package):
        """Wrap each layer's public functions wherever they are bound."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def write_jsonl(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, request, attrs) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "request": request}
                if attrs:
                    rec.update({k: v for k, v in attrs.items() if k != "call"})
                fh.write(json.dumps(rec) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the time covered by child spans."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_of(name):
    return name.split(".", 1)[0]


def summarize(spans):
    """Per-span self time, per-name inclusive time and call count, and
    per-layer self time.

    Inclusive time counts only the outermost span of a name, so a function
    that reaches itself through another public function is not counted twice.
    """
    own = self_times(spans)
    inclusive = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] += 1
        layer_self[layer_of(name)] += own[i]
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:
            inclusive[name] += s[END] - s[START]
    return own, inclusive, calls, layer_self


def root_time(spans):
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


def tail_percentile(n, candidates=(99.9, 99.0, 90.0)):
    """Highest candidate percentile with at least ten samples beyond it."""
    for p in candidates:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile (the smallest value with p% at or below it)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1]


# Inclusive time of these functions is reported as `<name>.s`.
TIMED = (
    "fbl.scheme_fbl", "fbl.sample_diff_density", "fbl.sample_coherent_density",
    "bounds.block_density_samples", "bounds.is_lower_bound", "bounds.dt_upper_bound",
    "chanest.channel_estimation_mse", "chanest.measure_mse",
    "channel.freq_correlation", "channel.sample_channel_grids",
    "modem.ofdm_time_domain_chain", "modem.fast_rx",
)
COUNTED = (
    "chanest.channel_estimation_mse", "channel.freq_correlation",
    "channel.time_correlation",
)
DRAWN = (
    "fbl.sample_diff_density", "fbl.sample_coherent_density",
    "bounds.block_density_samples", "chanest.measure_mse",
)
LATENCY = ("cli.select_scheme", "cli.doppler_crossover")


def layer_metrics(spans, n_requests, fbl_key):
    """Per-layer metrics of one traced run, per request of the workload.

    fbl_key maps a scheme_fbl span's attributes to the tuple that decides its
    result, so that cli.unique_fbl_ratio counts repeated work.
    """
    own, inclusive, calls, layer_self = summarize(spans)
    per = 1.0 / n_requests
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def attr_values(name, key):
        return [s[ATTRS][key] for s in spans if s[NAME] == name and s[ATTRS]]

    for name in TIMED:
        put(f"{name}.s", inclusive[name] * per, "s")
    for name in COUNTED:
        put(f"{name}.calls", calls[name] * per, "count")
    for name in DRAWN:
        put(f"{name}.draws", sum(attr_values(name, "draws")) * per, "count")
    for layer in LAYERS:
        put(f"{layer}.self_s", layer_self[layer] * per, "s")
    for name in LATENCY:
        durations = [s[END] - s[START] for s in spans if s[NAME] == name]
        put(f"{name}.p50_s", statistics.median(durations) if durations else 0.0, "s")

    put("fbl.scheme_fbl.self_s", sum(
        own[i] for i, s in enumerate(spans) if s[NAME] == "fbl.scheme_fbl") * per, "s")
    sample_s = inclusive["fbl.sample_diff_density"] + inclusive["fbl.sample_coherent_density"]
    draws = (m["fbl.sample_diff_density.draws"]["value"]
             + m["fbl.sample_coherent_density.draws"]["value"]) / per
    put("fbl.draws_per_s", draws / sample_s if sample_s > 0 else 0.0, "1/s")
    put("fbl.i_stderr_max", max(attr_values("fbl.scheme_fbl", "i_stderr"), default=0.0),
        "bits")
    put("bounds.stderr_max", max(attr_values("bounds.is_lower_bound", "stderr")
                                 + attr_values("bounds.dt_upper_bound", "stderr"),
                                 default=0.0), "prob")

    cli_fbl = [s[ATTRS] for s in spans if s[NAME] == "fbl.scheme_fbl"
               and s[PARENT] >= 0 and layer_of(spans[s[PARENT]][NAME]) == "cli"]
    put("cli.rows", sum(attr_values("cli.run_sweep", "rows")) * per, "count")
    put("cli.scheme_fbl_calls", len(cli_fbl) * per, "count")
    unique = len({fbl_key(a) for a in cli_fbl})
    put("cli.unique_fbl_ratio", unique / len(cli_fbl) if cli_fbl else 0.0, "ratio")
    return m
