"""Traced op: wrap the package's public layer functions, then run the CLI.

Run as ``python3 tracer.py SPANS_FILE OP_ID -- <metricembed arguments>``.
Before calling ``metricembed.cli.main`` it replaces, from the outside,
the module attributes that ``cli``, ``embeddability`` and ``pretangent``
look up at call time, and the sampler and metric of the marked space that
``marked_space_from_config`` returns. The package itself is not edited.
Spans (name, start, end, parent, op id, attributes) are kept in memory
and written to SPANS_FILE as JSON when the op ends.

Imported by the benchmark runner, this module only provides
:func:`layer_metrics`, which turns the spans of many ops into the
per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import statistics
import sys
import time
import tracemalloc

#: Wrapped callables: (module, attribute) -> span name. The same wrapper
#: object is installed under every attribute that names one function, so
#: a call is recorded once whichever module it goes through.
LAYER_FUNCTIONS = {
    ("cli", "load_space"): "metric.load",
    ("embeddability", "psd_check"): "determinants.psd_check",
    ("cli", "menger_check"): "embeddability.menger",
    ("cli", "schoenberg_check"): "embeddability.schoenberg",
    ("embeddability", "schoenberg_check"): "embeddability.schoenberg",
    ("cli", "blumenthal_basis_search"): "embeddability.blumenthal",
    ("cli", "min_embedding_dimension"): "embeddability.min_dim",
    ("cli", "realize_coordinates"): "embeddability.realize",
    ("cli", "transfer_check"): "pretangent.transfer",
    ("pretangent", "liminf_scan"): "pretangent.scan",
    ("pretangent", "theta"): "pretangent.functional",
    ("pretangent", "s_functional"): "pretangent.functional",
}

#: Spans whose peak traced allocation is recorded (outermost one only).
MEMORY_SPANS = ("metric.load", "embeddability.")


class Recorder:
    """In-memory span list for one op."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.metric_calls = 0

    def span(self, name: str, fn, key=None):
        """Wrap ``fn`` so each call records a span; ``key(*args)`` is stored too."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = {"name": name, "op": self.op_id, "parent": self.stack[-1] if self.stack else None}
            if key is not None:
                record["key"] = key(*args, **kwargs)
            self.spans.append(record)
            self.stack.append(index)
            measure_memory = name.startswith(MEMORY_SPANS) and not tracemalloc.is_tracing()
            if measure_memory:
                tracemalloc.start()
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                if measure_memory:
                    record["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1024**2
                    tracemalloc.stop()
                self.stack.pop()
            exhaustive = getattr(result, "exhaustive", None)
            if isinstance(exhaustive, bool):
                record["exhaustive"] = exhaustive
            return result

        return wrapper

    def counted(self, metric):
        def wrapper(a, b):
            self.metric_calls += 1
            return metric(a, b)

        return wrapper


def _draw_key(scale, k, seed=0) -> str:
    """Identity of a sampler draw: the same key always draws the same tuple."""
    if hasattr(seed, "entropy"):
        seed = (seed.entropy, tuple(seed.spawn_key))
    return repr((float(scale), int(k), seed))


def _install(recorder: Recorder) -> None:
    from metricembed import cli, embeddability, pretangent

    modules = {"cli": cli, "embeddability": embeddability, "pretangent": pretangent}
    wrappers: dict[int, object] = {}
    for (mod, attr), name in LAYER_FUNCTIONS.items():
        fn = getattr(modules[mod], attr)
        if id(fn) not in wrappers:
            wrappers[id(fn)] = recorder.span(name, fn)
        setattr(modules[mod], attr, wrappers[id(fn)])

    build = cli.marked_space_from_config

    def traced_space(cfg):
        space = build(cfg)
        return dataclasses.replace(space, sampler=recorder.span("spaces.sample", space.sampler, _draw_key),
                                   metric=recorder.counted(space.metric))

    cli.marked_space_from_config = traced_space


def main(argv: list[str]) -> int:
    spans_file, op_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE OP_ID -- <metricembed arguments>")
    recorder = Recorder(int(op_id))
    start = time.perf_counter()
    from metricembed import cli

    import_s = time.perf_counter() - start
    _install(recorder)
    try:
        return recorder.span("cli.main", cli.main)(cli_args)
    finally:
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "metric_calls": recorder.metric_calls, "spans": recorder.spans}, fh)


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of many ops


def _self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


#: Per-layer metric -> (unit, better). Times and counts are per traced op
#: unless the name says otherwise.
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "metric.load_s": ("s", "lower"),
    "metric.load_peak_mb": ("MB", "lower"),
    "determinants.psd_check_s": ("s", "lower"),
    "determinants.psd_check_calls": ("count", "lower"),
    "embeddability.menger_s": ("s", "lower"),
    "embeddability.schoenberg_s": ("s", "lower"),
    "embeddability.schoenberg_calls": ("count", "lower"),
    "embeddability.blumenthal_s": ("s", "lower"),
    "embeddability.min_dim_s": ("s", "lower"),
    "embeddability.realize_s": ("s", "lower"),
    "embeddability.peak_mb": ("MB", "lower"),
    "embeddability.sampled_share": ("ratio", "lower"),
    "spaces.sample_calls": ("count", "lower"),
    "spaces.sample_s": ("s", "lower"),
    "spaces.metric_calls": ("count", "lower"),
    "spaces.repeat_draw_share": ("ratio", "lower"),
    "pretangent.transfer_s": ("s", "lower"),
    "pretangent.scan_calls": ("count", "lower"),
    "pretangent.functional_calls": ("count", "lower"),
    "pretangent.functional_s": ("s", "lower"),
    "pretangent.scan_self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(ops: list[dict]) -> dict[str, tuple[float, int]]:
    """Per-layer metrics as name -> (value, base).

    Each item of ``ops`` holds the tracer's output for one op plus
    ``command``, ``feasible`` (a min-dim op that exited feasible),
    ``traced_wall_s`` and ``untraced_wall_s``. ``base`` is the count the
    value is averaged over or divided by.
    """
    n_ops = len(ops)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    peaks = {"metric.load": 0.0, "embeddability": 0.0}
    verdicts = sampled = repeats = 0
    schoenberg_in_min_dim = feasible_min_dims = metric_calls = 0
    scan_self = 0.0
    cli_self = 0.0
    for op in ops:
        spans = op["spans"]
        own = _self_times(spans)
        seen_keys: set[str] = set()
        metric_calls += op["metric_calls"]
        for i, s in enumerate(spans):
            name = s["name"]
            total[name] = total.get(name, 0.0) + s["end"] - s["start"]
            calls[name] = calls.get(name, 0) + 1
            if name == "cli.main":
                cli_self += own[i]
            elif name == "pretangent.scan":
                scan_self += own[i]
            elif name == "spaces.sample":
                repeats += s["key"] in seen_keys
                seen_keys.add(s["key"])
            if "peak_mb" in s:
                layer = "metric.load" if name == "metric.load" else "embeddability"
                peaks[layer] = max(peaks[layer], s["peak_mb"])
            if "exhaustive" in s:
                verdicts += 1
                sampled += not s["exhaustive"]
        if op["command"] == "min-dim" and op["feasible"]:
            feasible_min_dims += 1
            schoenberg_in_min_dim += sum(1 for s in spans if s["name"] == "embeddability.schoenberg")

    def per_op(value: float) -> tuple[float, int]:
        return (value / n_ops, n_ops)

    def ratio(num: float, den: int) -> tuple[float, int]:
        return (num / den if den else 0.0, den)

    draws = calls.get("spaces.sample", 0)

    return {
        "cli.import_s": (statistics.median(op["import_s"] for op in ops), n_ops),
        "cli.self_s": per_op(cli_self),
        "metric.load_s": per_op(total.get("metric.load", 0.0)),
        "metric.load_peak_mb": (peaks["metric.load"], n_ops),
        "determinants.psd_check_s": per_op(total.get("determinants.psd_check", 0.0)),
        "determinants.psd_check_calls": per_op(calls.get("determinants.psd_check", 0)),
        "embeddability.menger_s": per_op(total.get("embeddability.menger", 0.0)),
        "embeddability.schoenberg_s": per_op(total.get("embeddability.schoenberg", 0.0)),
        "embeddability.schoenberg_calls": ratio(schoenberg_in_min_dim, feasible_min_dims),
        "embeddability.blumenthal_s": per_op(total.get("embeddability.blumenthal", 0.0)),
        "embeddability.min_dim_s": per_op(total.get("embeddability.min_dim", 0.0)),
        "embeddability.realize_s": per_op(total.get("embeddability.realize", 0.0)),
        "embeddability.peak_mb": (peaks["embeddability"], n_ops),
        "embeddability.sampled_share": ratio(sampled, verdicts),
        "spaces.sample_calls": per_op(draws),
        "spaces.sample_s": per_op(total.get("spaces.sample", 0.0)),
        "spaces.metric_calls": per_op(metric_calls),
        "spaces.repeat_draw_share": ratio(repeats, draws),
        "pretangent.transfer_s": per_op(total.get("pretangent.transfer", 0.0)),
        "pretangent.scan_calls": per_op(calls.get("pretangent.scan", 0)),
        "pretangent.functional_calls": per_op(calls.get("pretangent.functional", 0)),
        "pretangent.functional_s": per_op(total.get("pretangent.functional", 0.0)),
        "pretangent.scan_self_s": per_op(scan_self),
        "trace.overhead_s": per_op(sum(op["traced_wall_s"] - op["untraced_wall_s"] for op in ops)),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
