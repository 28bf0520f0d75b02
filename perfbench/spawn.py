"""Run one child process with a timeout and a memory cap, and account for it.

The child is reaped with ``os.wait4`` so its own CPU time and peak RSS are
read from the kernel's rusage, not estimated. The memory cap is an
address-space rlimit set in the child only; a runaway op then fails with
``MemoryError`` instead of starving the machine. The timeout is a
wall-clock alarm in the parent that kills the child.
"""

from __future__ import annotations

import os
import resource
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass

#: Address-space cap of every child. The largest op of the mixes peaks at
#: about 0.5 GB RSS at the seed.
MEMORY_CAP_BYTES = 3 * 1024**3

#: Per-op wall-clock limit; the largest op of the mixes takes about 3 s.
OP_TIMEOUT_S = 60.0

#: BLAS and OpenMP pools are pinned to one thread: the benchmark is a
#: single closed-loop client, and pinning keeps a 2-core machine steady.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class ChildResult:
    exit_code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str
    timed_out: bool


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def run_child(argv: list[str], env: dict, cwd: str, timeout_s: float = OP_TIMEOUT_S) -> ChildResult:
    """Spawn ``argv``, wait for it to exit, and return its accounting.

    Wall time runs from just before the spawn to the moment the child is
    reaped. Output goes to unlinked temporary files, so a child that
    writes a lot can never block on a full pipe.
    """
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        timed_out = False
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env,
                                cwd=cwd, preexec_fn=_limit_child)

        def on_alarm(signum, frame):
            nonlocal timed_out
            timed_out = True
            proc.kill()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted (e.g. SIGTERM turned into SystemExit): leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(
            exit_code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss / 1024.0,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
            timed_out=timed_out,
        )
