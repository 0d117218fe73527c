"""Closed-loop measurement, span tracing and metric assembly.

A workload is a list of tasks.  One pass runs every task once, in a
seeded order; a process repeats whole passes for about its share of
`seconds`, so every run holds the same mix of tasks whatever its length.
One client calls the library and waits for each result.  Each task's
output is checked after its clock stops, so checking costs no task time.

A task's latency is the median of its untraced runs.  The host this was
tuned on changes speed by up to 1.9x in phases of seconds (CPU time tracks
wall time, so it is not scheduling).  So within a pass a cheap task is
rerun, at random places in the rest of the pass, until it has taken
REPEAT_SECONDS or run MAX_REPEATS times: its median then reads the host's
usual speed.  The fastest run did not, as it hangs on whether a rare fast
phase fell in the run.
"""

from __future__ import annotations

import math
import random
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

import numpy as np

# The samples are the >= 100 tasks of one pass, so p90 is the highest of
# p90/p99/p99.9 that keeps >= 10 samples beyond it on every workload.
TAIL_PERCENTILE = 90.0

REPEAT_SECONDS = 0.02
MAX_REPEATS = 20

LAYERS = ("polytope", "soliton", "potential", "curvature", "sampling", "cli", "bench")


@dataclass
class Task:
    """One job a user would run: `run(tracer)` returns a plain-data output
    and `check(output)` returns a list of problems (empty when correct)."""

    kind: str
    run: Callable[["Tracer"], Any]
    check: Callable[[Any], list]


class Tracer:
    """Spans around the benchmark's calls into the library, kept in memory.

    When disabled, `call` only forwards, so untraced and traced runs
    execute the same benchmark code.  Counts are recorded in both modes,
    on a task's first run in a pass only, so they repeat exactly.
    """

    def __init__(self):
        self.enabled = False
        self.counting = True
        self.spans: list = []   # [name, start, end, parent, task, points]
        self.counts: Counter = Counter()
        self.task = "setup"
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, _points: int = 1, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.task, _points]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, k: int = 1) -> None:
        if self.counting:
            self.counts[name] += k


@dataclass
class Outcome:
    index: int          # position of the task in the pass
    kind: str
    seconds: float
    traced: bool
    problems: list


def run_task(task: Task, tracer: Tracer, label: str, index: int = 0) -> Outcome:
    tracer.task = label
    start = perf_counter()
    try:
        out = tracer.call("bench.task", task.run, tracer)
    except Exception as e:  # an unexpected error is a failed task, not a crash
        elapsed = perf_counter() - start
        return Outcome(index, task.kind, elapsed, tracer.enabled, [f"raised {type(e).__name__}: {e}"])
    elapsed = perf_counter() - start
    try:
        problems = list(task.check(out))
    except Exception as e:
        problems = [f"check raised {type(e).__name__}: {e}"]
    return Outcome(index, task.kind, elapsed, tracer.enabled, problems)


def run_pass(tasks, tracer: Tracer, index: int, traced: bool) -> list[Outcome]:
    """Every task once, and again while its runs in this pass have taken
    less than REPEAT_SECONDS in all, up to MAX_REPEATS runs.  A rerun goes
    back into the rest of the pass at a random place, so a cheap task's
    runs are spread over the pass rather than caught in one phase.

    With `traced`, a task's runs are traced and untraced by turns, and a
    task that runs once per pass switches from one pass to the next, so
    both kinds see the same stretch of the run.
    """
    out = []
    spent = [0.0] * len(tasks)
    runs = [0] * len(tasks)
    queue = list(range(len(tasks)))[::-1]     # popped from the end
    place = random.Random(index)
    while queue:
        i = queue.pop()
        tracer.enabled = traced and (index + i + runs[i]) % 2 == 1
        tracer.counting = runs[i] == 0
        o = run_task(tasks[i], tracer, f"{index}:{i}:{runs[i]}", i)
        out.append(o)
        spent[i] += o.seconds
        runs[i] += 1
        if spent[i] < REPEAT_SECONDS and runs[i] < MAX_REPEATS:
            queue.insert(place.randint(0, len(queue)), i)
    tracer.enabled, tracer.counting = False, True
    return out


def run_passes(tasks, tracer: Tracer, seconds: float, traced: bool, min_passes: int) -> list[list[Outcome]]:
    """Whole passes, at least `min_passes` of them, for as close to
    `seconds` of wall time as whole passes allow: another pass starts
    only while the run would end nearer to `seconds` with it than without.
    """
    passes: list[list[Outcome]] = []
    start = perf_counter()
    while True:
        passes.append(run_pass(tasks, tracer, len(passes), traced))
        elapsed = perf_counter() - start
        if len(passes) >= min_passes and elapsed + 0.5 * elapsed / len(passes) >= seconds:
            return passes


# ---------------------------------------------------------------------------
# statistics

def percentile(sorted_values, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile of sorted values.

    It is a Beta-weighted mean of all order statistics.  A pass mixes task
    kinds of very different cost, and a plain order statistic jumps from
    one kind to the next when two tasks trade places; this estimate moves
    smoothly instead.
    """
    n = len(sorted_values)
    if n == 1:
        return float(sorted_values[0])
    q = p / 100.0
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    if min(a, b) < 1.0:     # too few samples for the Beta weights
        return float(sorted_values[round(q * (n - 1))])
    x = np.linspace(0.0, 1.0, 20_001)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    pdf = np.exp(log_pdf - math.lgamma(a) - math.lgamma(b) + math.lgamma(a + b))
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(x))])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, x, cdf))
    return float(weights @ np.asarray(sorted_values, dtype=float))


def task_latencies(outcomes: list[Outcome]) -> dict[int, tuple[str, float]]:
    """Each task's kind and median latency over the given runs."""
    runs = defaultdict(list)
    for o in outcomes:
        runs[o.index, o.kind].append(o.seconds)
    return {i: (kind, statistics.median(v)) for (i, kind), v in runs.items()}


def latency_summary(outcomes: list[Outcome]) -> dict:
    """Percentiles over tasks of each task's median latency."""
    ms = sorted(s * 1e3 for _, s in task_latencies(outcomes).values())
    tail = percentile(ms, TAIL_PERCENTILE)
    return {
        "samples": len(ms),
        "runs_per_sample_min": min(Counter(o.index for o in outcomes).values()),
        "runs_per_sample_mean": len(outcomes) / len(ms),
        "p50_ms": percentile(ms, 50.0),
        "tail_percentile": TAIL_PERCENTILE,
        "tail_ms": tail,
        "samples_beyond_tail": sum(1 for v in ms if v > tail),
        "task_seconds": sum(ms) / 1e3,
        "all_runs_seconds": sum(o.seconds for o in outcomes),
    }


def per_kind(outcomes: list[Outcome]) -> dict:
    by_kind = defaultdict(list)
    for kind, s in task_latencies(outcomes).values():
        by_kind[kind].append(s * 1e3)
    return {k: {"tasks": len(v), "median_ms": statistics.median(v)} for k, v in sorted(by_kind.items())}


# ---------------------------------------------------------------------------
# trace analysis

def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover.

    Calls are sequential on one thread, so children never overlap and
    their durations add up.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, task, points in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def layer_metrics(tracer: Tracer, spec: dict) -> dict:
    """Per-layer metrics named in `spec` (name -> unit) from the spans.

    `<span>.ms`, `.us` and `.us_per_point` are per-call medians of self
    time (set-up calls included).  `<span>.sum_ms` and the layer table are
    self time per pass, each task counted once at the mean of its traced
    runs, plus the traced set-up's.
    """
    selfs = self_times(tracer.spans)
    runs = Counter(s[4].split(":")[1] for s in tracer.spans if s[0] == "bench.task" and s[4] != "setup")
    calls = defaultdict(list)
    sums = defaultdict(float)
    layer_pass = defaultdict(float)
    task_total = 0.0
    for span, st in zip(tracer.spans, selfs):
        name, start, end, parent, task, points = span
        calls[name].append((st, points))
        if task == "setup":
            sums[name] += st
            continue
        share = 1.0 / runs[task.split(":")[1]]
        sums[name] += st * share
        layer_pass[name.split(".")[0]] += st * share
        if name == "bench.task":
            task_total += (end - start) * share

    def median(name, scale, per_point=False):
        got = calls.get(name)
        if not got:
            return 0.0
        return statistics.median(st / (p if per_point else 1) for st, p in got) * scale

    out = {}
    for metric, unit in spec.items():
        if metric.startswith(("trace.", "count.")) or unit == "count":
            continue
        base, _, suffix = metric.rpartition(".")
        if suffix == "sum_ms":
            out[metric] = sums.get(base, 0.0) * 1e3
        elif suffix == "ms":
            out[metric] = median(base, 1e3)
        elif suffix == "us":
            out[metric] = median(base, 1e6)
        elif suffix == "us_per_point":
            out[metric] = median(base, 1e6, per_point=True)
        elif metric.startswith("curvature.identity_residual.us_per_point."):
            size = metric.rsplit(".", 1)[1]
            out[metric] = median(f"curvature.identity_residual.{size}", 1e6, per_point=True)
        else:
            raise ValueError(f"no rule for per-layer metric {metric}")
    for layer in LAYERS:
        out[f"trace.self_ms_per_pass.{layer}"] = layer_pass.get(layer, 0.0) * 1e3
    covered = sum(v for k, v in layer_pass.items() if k != "bench")
    out["trace.coverage_pct"] = 100.0 * covered / task_total if task_total else 0.0
    return out
