"""Statistics, environment record and result output shared by workloads."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Checkout root: the directory holding ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for index files; listed in the root ``.gitignore``.
WORK_DIR = ROOT / ".perfbench-work"


class BenchmarkError(RuntimeError):
    """The run cannot produce a valid measurement (no result is printed)."""


@dataclass
class Outcome:
    """One workload run: its metrics as ``name -> (value, unit)``, the
    operations attempted and failed, and the readable report."""

    metrics: dict
    attempted: int
    failed: int
    correct: bool
    report: dict = field(default_factory=dict)


def percentile(values: list[float], fraction: float) -> tuple[float, int]:
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(values)
    position = max(0, math.ceil(fraction * len(ordered)) - 1)
    return ordered[position], len(ordered) - position - 1


def window_percentile(values: list[float], fraction: float) -> tuple[float, int]:
    """A percentile smoothed over its neighbourhood: the mean of the
    ordered samples from ``fraction - w`` to ``fraction + w``, with
    ``w = min(0.05, (1 - fraction) / 2)``, and how many samples lie
    beyond the percentile. Averaging neighbouring order statistics
    steadies a percentile read from a few hundred samples."""
    ordered = sorted(values)
    count = len(ordered)
    width = min(0.05, (1 - fraction) / 2)
    low = math.floor((fraction - width) * count)
    high = max(low + 1, math.ceil((fraction + width) * count))
    return statistics.fmean(ordered[low:high]), count - math.ceil(fraction * count)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def peak_rss_mb() -> float:
    """Lifetime peak resident set of this process (Linux ``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for pid {pid}")


def git_sha() -> str:
    """The checkout's commit, read from its own ``.git`` (``unavailable``
    when the checkout is not a git repository); nothing above the
    checkout is searched."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


#: The speed probe's time on a fast core of the reference machine (a
#: 2-vCPU shared Xeon VM, Python 3.11): the 5th percentile of its
#: probes, the same on both of its cores.
FAST_PROBE_S = 0.22e-3


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop (about 0.2 ms) takes right now.

    On a shared virtual machine the same code can run up to ~1.7 times
    slower from one ~100 ms to the next, each core on its own, and the
    slow share drifts over minutes. Timed around each request, the probe
    tells how fast the machine was while the request ran. A probe the
    scheduler preempted reads far longer; it is capped at three times
    :data:`FAST_PROBE_S`, beyond any slow spell seen, so that one such
    probe cannot swamp a mean.
    """
    started = time.perf_counter()
    sum(number * number % 7 for number in range(4000))
    return min(time.perf_counter() - started, 3 * FAST_PROBE_S)


def speed_adjusted(latencies: list[float], probes: list[float]) -> tuple[list, float]:
    """Latencies rescaled to a fast core, and the run's mean slowdown.

    Each latency is multiplied by ``FAST_PROBE_S / probe``, where
    ``probe`` is the speed probe timed around that request. The slowdown
    is the mean probe over ``FAST_PROBE_S``: how much slower than a fast
    core the run went on average. A fixed reference, not the run's own
    fastest probes, because a whole run can fall in a slow spell.
    """
    adjusted = [
        latency * FAST_PROBE_S / probe for latency, probe in zip(latencies, probes)
    ]
    return adjusted, statistics.fmean(probes) / FAST_PROBE_S


class SpeedSampler:
    """Times the speed probe on a timer signal while work that cannot be
    probed request by request (set-up) runs in this thread.

    The handler runs between bytecodes of the main thread, so a sample
    never splits a native call; :meth:`adjust` removes the probes' own
    time and rescales the rest to a fast core, like
    :func:`speed_adjusted`.
    """

    #: Seconds between samples: about two per spell of one speed.
    INTERVAL_S = 0.05

    def __init__(self):
        self.probes: list[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        self.probes.append(speed_probe())

    def adjust(self, elapsed: float) -> float:
        """``elapsed`` seconds (taken inside the block) without the probes,
        rescaled by the block's mean slowdown."""
        if not self.probes:
            return elapsed
        slowdown = statistics.fmean(self.probes) / FAST_PROBE_S
        return (elapsed - sum(self.probes)) / slowdown


def environment(seed: int, **extra) -> dict:
    import numpy

    return {
        "speed_probe_ms": round(median([speed_probe() for _ in range(25)]) * 1e3, 4),
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "seed": seed,
        **{key: value for key, value in extra.items() if value is not None},
    }


def emit(report: dict, result: dict) -> None:
    """Print the human-readable report, then the result as the last line."""
    print(json.dumps(report, indent=1, sort_keys=True))
    sys.stdout.flush()
    print(json.dumps(result))
    sys.stdout.flush()
