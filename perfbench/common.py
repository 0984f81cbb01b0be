"""Measurement helpers shared by the workloads.

Everything here is pure bookkeeping — percentiles, the open-loop
schedule, memory and provenance probes, the result line — so it can be
unit-tested without running the program under test.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Metric names: a letter or digit, then letters, digits, ``_ . -``.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_BEYOND = 10


@dataclass
class Job:
    """One benchmark invocation."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    root: Path
    tmp: Path


@dataclass
class Outcome:
    """What a workload reports: the counts, its metrics by name (values
    only; units come from the catalog) and the checks that failed."""

    attempted: int
    failed: int
    end_to_end: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    #: Latency samples behind ``p50_ms`` and ``tail_ms``.
    samples: int = 0

    def check(self, passed: bool, what: str) -> bool:
        if not passed:
            self.failures.append(what)
        return passed


def valid_metric_name(name: str) -> bool:
    return bool(METRIC_NAME.fullmatch(name))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def upper_quartile(values: Sequence[float]) -> float:
    """The third quartile, as ``statistics.quantiles(values, n=4)``
    gives it (the value itself for a single sample)."""
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=4)[2])


def faster_windows(values: Sequence[float], window: int,
                   share: float = 0.5) -> List[float]:
    """The values of the fastest ``share`` of the run's windows.

    ``values`` (durations, in the order they were measured) are cut into
    consecutive windows of ``window`` values, a trailing partial window
    dropped; the windows with the smallest medians are kept.  A shared
    host's speed drops by up to half for seconds at a time and never
    rises above what the program can do, so the faster windows read the
    program and the slower ones the neighbours.
    """
    windows = [list(values[start:start + window])
               for start in range(0, len(values) - window + 1, window)]
    windows.sort(key=statistics.median)
    keep = max(1, int(len(windows) * share))
    return [value for chunk in windows[:keep] for value in chunk]


def samples_beyond(count: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile of
    ``count`` samples."""
    if count <= 0:
        return 0
    rank = max(1, math.ceil(pct / 100.0 * count))
    return count - rank


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the value at rank ``ceil(pct/100 * n)``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail(values: Sequence[float], pct: float) -> Optional[float]:
    """The ``pct`` percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    if samples_beyond(len(values), pct) < MIN_BEYOND:
        return None
    return percentile(values, pct)


def schedule(rate: float, count: int, rng=None) -> List[float]:
    """Send offsets (seconds from the start) for ``count`` requests at
    ``rate`` per second: evenly spaced, or with exponential gaps
    (Poisson arrivals, independent users) when ``rng`` is given.  The
    gaps are rescaled so the last request is due at ``(count - 1) /
    rate`` either way, which keeps the offered rate exact."""
    if rate <= 0 or count <= 0:
        raise ValueError("rate and count must be positive")
    even = [index / rate for index in range(count)]
    if rng is None or count < 2:
        return even
    gaps = rng.exponential(1.0, size=count)
    gaps[0] = 0.0
    offsets = gaps.cumsum()
    offsets *= even[-1] / offsets[-1]
    return [float(offset) for offset in offsets]


class OpenLoopLog:
    """Per-request times of an open-loop run, all on one clock.

    Request ``i`` is due at ``start + offsets[i]``.  Latency is timed
    from the due time, so a generator stall is charged to every request
    it delayed; lateness (send − due) is kept separately to judge the
    generator itself.
    """

    def __init__(self, rate: float, offsets: Sequence[float],
                 start: float) -> None:
        self.rate = float(rate)
        self.offsets = list(offsets)
        self.count = len(self.offsets)
        self.start = float(start)
        self.sent: List[Optional[float]] = [None] * self.count
        self.done: List[Optional[float]] = [None] * self.count
        self.ok: List[bool] = [False] * self.count

    def due(self, index: int) -> float:
        return self.start + self.offsets[index]

    def record_sent(self, index: int, when: float) -> None:
        self.sent[index] = when

    def record_done(self, index: int, when: float, ok: bool) -> None:
        self.done[index] = when
        self.ok[index] = bool(ok)

    def latencies_ms(self) -> List[float]:
        """Latency from due time of every request that succeeded."""
        return [(done - self.due(i)) * 1e3
                for i, done in enumerate(self.done)
                if done is not None and self.ok[i]]

    def late_ms(self) -> List[float]:
        return [(sent - self.due(i)) * 1e3
                for i, sent in enumerate(self.sent) if sent is not None]

    def failed(self) -> int:
        """Requests not answered correctly (errors and missing answers)."""
        return sum(1 for ok in self.ok if not ok)

    def completion_rate(self) -> float:
        """Successful answers per second, from the first due time to the
        last answer."""
        count, span = self.answered()
        return count / span if span > 0 else 0.0

    def answered(self) -> Tuple[int, float]:
        """``(successful answers, seconds from the first due time to the
        last answer)``."""
        finished = [done for done, ok in zip(self.done, self.ok)
                    if done is not None and ok]
        return len(finished), (max(finished) - self.start if finished
                               else 0.0)


def pooled_rate(logs: Sequence[OpenLoopLog]) -> float:
    """Successful answers per second over several runs taken together:
    all their answers over all their spans, so every second of every run
    weighs the same."""
    answers = spans = 0.0
    for log in logs:
        count, span = log.answered()
        answers += count
        spans += span
    return answers / spans if spans > 0 else 0.0


def run_open_loop(rate: float, offsets: Sequence[float],
                  submit: Callable[[int, Callable[[bool], None]], None],
                  clock: Callable[[], float] = time.perf_counter,
                  sleep: Callable[[float], None] = time.sleep
                  ) -> OpenLoopLog:
    """Send one request per offset of a :func:`schedule`.

    ``submit(i, finish)`` must start request ``i`` without waiting for
    it and arrange for ``finish(ok)`` to be called when it resolves.  A
    generator that falls behind sends at once (it never skips), so the
    queue in front of the server can grow.
    """
    log = OpenLoopLog(rate, offsets, clock())
    for index in range(log.count):
        ahead = log.due(index) - clock()
        if ahead > 0:
            sleep(ahead)
        log.record_sent(index, clock())

        def finish(ok: bool, index: int = index) -> None:
            log.record_done(index, clock(), ok)

        submit(index, finish)
    return log


def peak_rss_mb_self() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant, from ``/proc``."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ")".
        fields = stat[stat.rfind(")") + 2:].split()
        parents[int(entry)] = int(fields[1])
    tree, frontier = [root], [root]
    while frontier:
        children = [pid for pid, ppid in parents.items()
                    if ppid in frontier]
        tree.extend(children)
        frontier = children
    return tree


def tree_peak_rss_mb(root: int) -> float:
    """Sum of the peak resident sizes (VmHWM) of a process tree, in MB."""
    return sum(_proc_status_kb(pid, "VmHWM")
               for pid in process_tree(root)) / 1024.0


def provenance() -> Dict[str, object]:
    import numpy
    import scipy

    from repro.backend import backend_name

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_backend": backend_name(),
    }


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def note(text: str) -> None:
    """A human-readable report line (the result line is always last)."""
    print(text, flush=True)


def emit_result(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Dict[str, object]]) -> None:
    bad = [name for name in metrics if not valid_metric_name(name)]
    if bad:
        raise ValueError(f"invalid metric names: {bad}")
    sys.stdout.write(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }) + "\n")
    sys.stdout.flush()


def scrape_sum(parsed: Dict[str, dict], family: str,
               sample: Optional[str] = None) -> float:
    """Sum of one sample series of a parsed Prometheus family over all
    label sets (``sample`` defaults to the family name; pass e.g.
    ``family + "_sum"`` for a histogram's sum)."""
    sample = sample or family
    series = parsed.get(family, {}).get("samples", {})
    return sum(value for key, value in series.items()
               if key.split("{", 1)[0] == sample)


def scrape_delta(before: Dict[str, dict], after: Dict[str, dict],
                 family: str, sample: Optional[str] = None) -> float:
    return scrape_sum(after, family, sample) - scrape_sum(before, family,
                                                          sample)


def hist_mean(before: Sequence[Dict[str, dict]],
              after: Sequence[Dict[str, dict]], family: str
              ) -> Tuple[float, float]:
    """``(mean, count)`` of a histogram's observations between two
    scrapes, pooled over processes (one scrape per process)."""
    count = sum(scrape_delta(b, a, family, family + "_count")
                for b, a in zip(before, after))
    total = sum(scrape_delta(b, a, family, family + "_sum")
                for b, a in zip(before, after))
    return (total / count if count else 0.0), count


def check_attribution(outcome: Outcome, unattributed: float, total: float,
                      slack: float, what: str) -> bool:
    """The named layers must explain all but ``slack`` of ``total``."""
    return outcome.check(
        0.0 <= unattributed <= slack * total,
        f"{what}: {unattributed:.4f} s of {total:.4f} s is not explained "
        f"by the named layers (allowed: 0 to {slack:.0%})")
