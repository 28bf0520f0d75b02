"""Replay a benchmark workload in process: one digest line per op.

    python tools/replay.py WORKLOAD SEED [PASSES]

Builds the inputs of WORKLOAD (``perfbench/workloads.py``) for SEED in a
temporary directory, runs every op of passes 0 .. PASSES-1 (default 1)
through ``metricembed.cli.main`` in this process, and prints per op the
pass, the label, the exit code and a SHA-256 of its stdout, with the
temporary directory's path masked. Two runs whose lines agree gave equal
exit codes and byte-identical stdout on every op, so diffing the output
of two checkouts, or of two ``PYTHONHASHSEED`` values, checks that a
change kept every output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from metricembed import cli  # noqa: E402


def run(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of one CLI invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, out.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("passes", type=int, nargs="?", default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        plan = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        for pass_index in range(args.passes):
            for op in plan.ops(pass_index):
                code, out = run(list(op.argv))
                digest = hashlib.sha256(out.replace(tmp, "<tmp>").encode()).hexdigest()[:16]
                print(f"{pass_index}\t{op.label}\t{code}\t{digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
