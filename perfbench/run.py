"""metricembed benchmark: the CLI end to end, and a traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the package is imported from
``src/``). One operation is one ``metricembed`` CLI invocation, spawned as
a subprocess by a single closed-loop client: the next op starts only after
the previous one has exited. A run generates the workload's inputs from
the seed, then makes as many whole passes over the workload's fixed op mix
as fit in ``--seconds`` at the seed (at least one), timing a
``metricembed --version`` spawn (the set-up every call pays) before every
fourth op and a calibration task before every second. The pass count
depends only on ``--seconds``, so every run and every commit measures the
same mix with the same sample count. End-to-end times are reported at the
reference speed of the calibration task, with the raw values beside them.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every op
twice, plainly and under ``tracer.py``, and reports the per-layer metrics
and the tracing overhead. Each op's output is checked against an oracle
(``workloads.judge``). The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit and sample count, the failure classes
with their base, and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import spawn
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: A timed ``--version`` spawn runs before every SETUP_EVERY-th op, so the
#: set-up samples span the whole run; set-up is their median.
SETUP_EVERY = 4

#: On a 2-core Xeon VM whose cores are shared with other tenants, CPU
#: speed drifted by up to about 40% from minute to minute, and every time
#: metric drifted with it. Before every CALIBRATION_EVERY-th op the client
#: therefore times a spawned task that never touches metricembed:
#: interpreter start, numpy import, a pure-Python loop and a batched
#: determinant, the kinds of work the ops do. Over five minutes of
#: back-to-back ops its median tracked the ops' speed (correlation 0.93 on
#: finite-large, 0.96 on scan). The end-to-end times are scaled to the
#: speed at which that median is CALIBRATION_REF_S; the raw values are
#: printed beside them.
CALIBRATION_EVERY = 2
CALIBRATION = ("import numpy as np\n"
               "s = 0\n"
               "for i in range(150000):\n    s += i % 7\n"
               "np.linalg.det(np.random.default_rng(0).random((10000, 6, 6)))\n")

#: Median spawn-to-exit of CALIBRATION on a 2-core Xeon VM (Python 3.11,
#: numpy 2.4, one BLAS thread) in a quiet period.
CALIBRATION_REF_S = 0.13

#: No op starts after this many seconds, whatever ``--seconds`` says, so a
#: run ends well inside the 180 s a run may take.
HARD_STOP_S = 150.0

#: The tail reported is the highest percentile with at least this many
#: samples above it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
}

#: Outcomes that clear ``correct`` on any input, and on unit-scale inputs.
RESOURCE_FAILURES = ("timeout", "memcap")
WRONG_ANSWERS = ("wrong", "error", "malformed")


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **spawn.THREAD_ENV)
    env.pop("PYTHONSTARTUP", None)
    return env


def cli_argv(args) -> list[str]:
    return [sys.executable, "-m", "metricembed.cli", *args]


def environment(env: dict) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: env.get(k) for k in sorted(spawn.THREAD_ENV)},
        "cpu_model": cpu,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "memory_cap_gb": spawn.MEMORY_CAP_BYTES / 1024**3,
        "op_timeout_s": spawn.OP_TIMEOUT_S,
    }


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest whole percentile with TAIL_BEYOND samples above it."""
    p = math.floor(100.0 * (1.0 - TAIL_BEYOND / len(values)))
    if p < 50:
        return 100.0, max(values)
    return float(p), float(np.percentile(values, p))


class Runner:
    """Spawns and judges the ops of one benchmark run."""

    def __init__(self, env: dict, workdir: Path, started: float):
        self.env = env
        self.workdir = workdir
        self.started = started
        self.op_count = 0

    def time_left(self) -> float:
        return HARD_STOP_S - (time.perf_counter() - self.started)

    def setup(self) -> float:
        """Spawn-to-exit seconds of ``metricembed --version``."""
        return spawn.run_child(cli_argv(["--version"]), self.env, str(self.workdir)).wall_s

    def calibrate(self) -> float:
        """Spawn-to-exit seconds of the fixed CALIBRATION task."""
        return spawn.run_child([sys.executable, "-c", CALIBRATION], self.env, str(self.workdir)).wall_s

    def run(self, op: workloads.Op, traced: bool) -> dict:
        op_id = self.op_count
        self.op_count += 1
        spans_file = self.workdir / f"spans_{op_id}.json"
        argv = cli_argv(op.argv)
        if traced:
            argv = [sys.executable, str(Path(__file__).with_name("tracer.py")), str(spans_file), str(op_id),
                    "--", *op.argv]
        child = spawn.run_child(argv, self.env, str(self.workdir),
                                timeout_s=min(spawn.OP_TIMEOUT_S, max(self.time_left(), 1.0) + 15.0))
        outcome = "timeout" if child.timed_out else workloads.judge(op, child.exit_code, child.stdout,
                                                                     child.stderr)
        record = {"op": op, "outcome": outcome, "wall_s": child.wall_s, "cpu_s": child.cpu_s,
                  "maxrss_mb": child.maxrss_mb, "exit_code": child.exit_code}
        if traced and spans_file.exists():
            record["trace"] = json.loads(spans_file.read_text(encoding="utf-8"))
            spans_file.unlink()
        if outcome != "ok":
            print(f"# op {op.label}: {outcome} (exit {child.exit_code})", file=sys.stderr)
        return record


def measure(plan: workloads.Plan, runner: Runner, seconds: float,
            trace: bool) -> tuple[list, list, list, list]:
    """As many whole passes over the mix as fit in ``seconds`` at the seed.

    Returns (plain records, traced records, set-up times, calibration
    times). In a traced run each op runs plainly first, then under the
    tracer, and neither set-up nor calibration is timed.
    """
    plain: list[dict] = []
    traced: list[dict] = []
    setup: list[float] = []
    calibration: list[float] = []
    passes = max(1, math.floor(seconds / (plan.pass_seconds * (2 if trace else 1))))
    for pass_index in range(passes):
        for op in plan.ops(pass_index):
            if runner.time_left() <= 0:
                return plain, traced, setup, calibration
            if not trace and len(plain) % SETUP_EVERY == 0:
                setup.append(runner.setup())
            if not trace and len(plain) % CALIBRATION_EVERY == 0:
                calibration.append(runner.calibrate())
            plain.append(runner.run(op, traced=False))
            if trace:
                traced.append(runner.run(op, traced=True))
    return plain, traced, setup, calibration


def end_to_end(plain: list[dict], setup: list[float],
               calibration: list[float]) -> dict[str, tuple[float, float, int, str]]:
    """End-to-end metrics as name -> (calibrated value, raw value, samples, note)."""
    speed = CALIBRATION_REF_S / statistics.median(calibration)
    walls = [r["wall_s"] for r in plain]
    p, tail_value = tail(walls)
    n = len(plain)
    busy = sum(walls)
    raw = {
        "setup_s": (statistics.median(setup), len(setup), "median metricembed --version spawn-to-exit"),
        "ops_per_s": (n / busy, n, f"over {busy:.3f} s of op spawn-to-exit time"),
        "latency_p50_s": (statistics.median(walls), n, "median spawn-to-exit"),
        "latency_tail_s": (tail_value, n, f"p{p:g}, {n * (1 - p / 100):.1f} samples beyond"),
        "cpu_s_per_op": (sum(r["cpu_s"] for r in plain) / n, n, "child user+sys from wait4"),
        "peak_rss_mb": (max(r["maxrss_mb"] for r in plain), n, "largest child ru_maxrss"),
    }
    scale = {"ops_per_s": 1.0 / speed, "peak_rss_mb": 1.0}
    return {name: (value * scale.get(name, speed), value, samples, note)
            for name, (value, samples, note) in raw.items()}


def trace_inputs(plain: list[dict], traced: list[dict]) -> list[dict]:
    out = []
    for p, t in zip(plain, traced):
        if "trace" not in t:
            continue
        op = t["op"]
        out.append({**t["trace"], "command": op.command,
                    "feasible": op.command == "min-dim" and t["exit_code"] == 0,
                    "traced_wall_s": t["wall_s"], "untraced_wall_s": p["wall_s"]})
    return out


def report(lines: list[tuple[str, float, str, int, str]]) -> None:
    for name, value, unit, samples, note in lines:
        print(f"{name:34s} {value:14.6g} {unit:6s} n={samples:<5d} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "metricembed" / "cli.py").is_file():
        print(f"error: no metricembed source under {SRC}", file=sys.stderr)
        return 2

    # Let SIGTERM unwind through the cleanup below, which stops the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # The client and all children share one CPU: ops run one at a time
    # anyway, and the calibration task then times the core the ops use.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    started = time.perf_counter()
    env = child_env()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        plan = workloads.WORKLOADS[args.workload](args.seed, workdir)
        runner = Runner(env, workdir, started)
        runner.setup()  # warms the bytecode cache; not timed
        plain, traced, setup, calibration = measure(plan, runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    records = plain + traced
    counts = {k: sum(r["outcome"] == k for r in records) for k in workloads.OUTCOMES}
    failed = len(records) - counts["ok"]
    # Every failure counts in ``failed``. ``correct`` is false when an op
    # hit the timeout or the memory cap, or when a unit-scale input got a
    # wrong answer, an error or unusable output. An "undetermined" verdict
    # is counted but is not a wrong answer, and a rescaled input may fail
    # in any way without clearing ``correct``: that is the seed's known
    # unit dependence (scale-dependent zero bands), which this workload
    # exists to measure.
    correct = not any(r["outcome"] in RESOURCE_FAILURES
                      or (r["op"].unit_scale and r["outcome"] in WRONG_ANSWERS) for r in records)

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("# environment " + json.dumps(environment(env), sort_keys=True))
    if args.trace:
        layers = tracer.layer_metrics(trace_inputs(plain, traced))
        lines = [(name, value, tracer.PER_LAYER[name][0], base, "") for name, (value, base) in layers.items()]
        metrics = {name: {"value": value, "unit": unit} for name, value, unit, _, _ in lines}
    else:
        e2e = end_to_end(plain, setup, calibration)
        lines = [(name, v, END_TO_END_UNITS[name], n, f"raw={raw:.6g}; {note}")
                 for name, (v, raw, n, note) in e2e.items()]
        lines.append(("calibration_s", statistics.median(calibration), "s", len(calibration),
                      f"median of the calibration task; times above are scaled by {CALIBRATION_REF_S}/this"))
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, (v, _, _, _) in e2e.items()}
    lines.append(("failed_share", failed / len(records), "ratio", len(records),
                  f"{failed} of {len(records)} ops failed: "
                  + ", ".join(f"{k}={v}" for k, v in counts.items() if v and k != "ok")))
    report(lines)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
