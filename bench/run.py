#!/usr/bin/env python3
"""torickit benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload exact_sweep --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24

Run from the repository root; the package is imported from ./src.  An
untraced run measures in two or three fresh worker processes of this same
script, one after another; a traced run measures in this process.  The
last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
Details (latency percentiles and sample counts, per-task-kind medians,
work counts, failures, machine facts) go to bench/out/.
See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = OUT_DIR / f"work-{os.getpid()}"   # CLI input and report files
WORKERS = 3             # fresh processes per untraced run, at most
THREAD_CAP = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# One client on one thread: cap the native BLAS pool before numpy loads.
for _var in THREAD_VARS:
    os.environ.setdefault(_var, THREAD_CAP)

import numpy as np  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test size: drop the heaviest inputs")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]}


def import_package():
    import torickit as tk

    if Path(tk.__file__).resolve().parent != ROOT / "src" / "torickit":
        raise ImportError(f"torickit imported from {tk.__file__}, not from ./src")
    return tk


def source_facts() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "torickit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_cap": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def set_up(name, seed, tracer, traced, tiny):
    """Import, seeded input generation, the objects a session builds once
    and one untimed warm-up task.  Returns the tasks in their seeded pass
    order."""
    tracer.enabled = traced
    tk = import_package()
    rng = np.random.default_rng(seed)
    tasks = workloads.WORKLOADS[name](tk, rng, tracer, tiny, str(WORK_DIR))
    tracer.enabled = False
    harness.run_task(tasks[0], tracer, "setup")
    tracer.counts.clear()
    order = np.random.default_rng([seed, 1]).permutation(len(tasks))
    return [tasks[i] for i in order]


def measure(name, seed, seconds, trace, tiny, min_passes) -> dict:
    """Set up in this process, then run passes for `seconds`."""
    tracer = harness.Tracer()
    start = time.perf_counter()
    tasks = set_up(name, seed, tracer, trace == 1, tiny)
    setup_end = time.monotonic()
    setup_s = time.perf_counter() - start
    passes = harness.run_passes(tasks, tracer, seconds, traced=trace == 1, min_passes=min_passes)
    return {
        "measure_s": time.monotonic() - setup_end,
        "tasks": len(tasks),
        "passes": passes,
        "counts": dict(tracer.counts),
        "setup_s": setup_s,
        "setup_end": setup_end,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tracer": tracer,
    }


def run_workers(args) -> list[dict]:
    """An untraced run: fresh processes one after another, each measuring
    whole passes for about a WORKERS-th of the seconds.  Another starts,
    up to WORKERS of them and at least two, only while the run's measuring
    time would end nearer to the seconds with it than without; a workload
    whose single pass outlasts that share gets two.

    A process's set-up is timed from just before it is started to the end
    of its set-up, so interpreter start-up and every import count.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / WORKERS), "--worker"] + (["--tiny"] if args.tiny else [])
    runs = []
    measured = 0.0
    while len(runs) < WORKERS and (len(runs) < 2 or measured + 0.5 * measured / len(runs) < args.seconds):
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed with exit {proc.returncode}: {proc.stderr.strip()[-800:]}")
        m = json.loads(proc.stdout.strip().splitlines()[-1])
        m["passes"] = [[harness.Outcome(i, kind, sec, False, probs) for i, kind, sec, probs in p] for p in m["passes"]]
        m["setup_s"] = m["setup_end"] - start
        measured += m["measure_s"]
        runs.append(m)
    return runs


def worker_line(m: dict) -> str:
    passes = [[(o.index, o.kind, o.seconds, o.problems) for o in p] for p in m["passes"]]
    return json.dumps({**m, "passes": passes, "tracer": None})


def run_workload(name, seed, seconds, trace, tiny=False):
    """One workload measured in this process: the traced run, and the
    smoke tests.  Returns the result line, the details and the tracer."""
    m = measure(name, seed, seconds, trace, tiny, min_passes=2)
    return (*summarize(name, seed, seconds, trace, tiny, [m]), m["tracer"])


def summarize(name, seed, seconds, trace, tiny, runs: list[dict]):
    """Result line and details from one or more processes' measurements."""
    end_to_end, per_layer = load_spec()
    passes = [p for m in runs for p in m["passes"]]
    setup_s_each = [m["setup_s"] for m in runs]
    outcomes = [o for p in passes for o in p]
    untraced = [o for o in outcomes if not o.traced]
    failures = [(o.kind, o.problems) for o in outcomes if o.problems]
    lat = harness.latency_summary(untraced)
    counts = {k: v / len(runs[0]["passes"]) for k, v in sorted(runs[0]["counts"].items())}
    values = {
        "setup_s": statistics.median(setup_s_each),
        "tasks_per_s": lat["samples"] / lat["task_seconds"],
        "task_ms.p50": lat["p50_ms"],
        "task_ms.tail": lat["tail_ms"],
        "pass_rate": 1.0 - len(failures) / len(outcomes),
        "peak_rss_mb": max(m["rss_mb"] for m in runs),
    }
    if trace == 1:
        traced = [o for o in outcomes if o.traced]
        layer = harness.layer_metrics(runs[0]["tracer"], per_layer)
        layer.update({k: counts.get(k, 0.0) for k, unit in per_layer.items() if unit == "count"})
        traced_s = harness.latency_summary(traced)["task_seconds"]
        layer["trace.overhead_ratio"] = traced_s / lat["task_seconds"]
        metrics = {k: {"value": layer[k], "unit": u} for k, u in per_layer.items()}
        not_exercised = [k for k in per_layer if layer[k] == 0.0]
    else:
        metrics = {k: {"value": values[k], "unit": u} for k, u in end_to_end.items()}
        not_exercised = []

    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        **source_facts(),
        **machine_facts(),
        "processes": len(runs),
        "passes": len(passes),
        "pass_seconds": [sum(o.seconds for o in p) for p in passes],
        "tasks_per_pass": runs[0]["tasks"],
        "fail_rate": len(failures) / len(outcomes),
        "latency": lat,
        "setup_s_each": setup_s_each,
        "rss_mb_each": [m["rss_mb"] for m in runs],
        "end_to_end": values,
        "counts_per_pass": counts,
        "per_kind": harness.per_kind(untraced),
        "failures": failures[:50],
        "not_exercised": not_exercised,
    }
    return result, details


def write_out(details, tracer):
    """Details as JSON; for a traced run also every span, one per line,
    with times in seconds from process start."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{details['workload']}-seed{details['seed']}-trace{details['trace']}"
    with open(f"{stem}.json", "w") as fh:
        json.dump(details, fh, indent=1, default=str)
    if tracer is not None and tracer.spans:
        with open(f"{stem}-spans.jsonl", "w") as fh:
            for name, start, end, parent, task, points in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start - PROCESS_START, "end": end - PROCESS_START,
                                     "parent": parent, "task": task, "points": points}) + "\n")
    return Path(f"{stem}.json")


def print_report(result, details, path):
    lat = details["latency"]
    print(f"workload {details['workload']}  seed {details['seed']}  trace {details['trace']}  "
          f"commit {details['git_commit']}  src {details['src_sha256'][:12]}")
    print(f"nproc {details['nproc']}  python {details['python']}  numpy {details['numpy']}  "
          f"thread cap {details['thread_cap']}")
    print(f"{details['processes']} process(es), {details['passes']} passes x {details['tasks_per_pass']} tasks; "
          f"latency samples: "
          f"{lat['samples']} tasks, each the median of {lat['runs_per_sample_min']} or more untraced runs "
          f"({lat['runs_per_sample_mean']:.1f} on average); "
          f"tail = p{lat['tail_percentile']:g} with {lat['samples_beyond_tail']} samples beyond")
    print(f"fail_rate = {details['fail_rate']:.6g} ({result['failed']} of {result['attempted']})")
    for kind, problems in details["failures"][:10]:
        print(f"  FAILED {kind}: {'; '.join(problems)}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in details["counts_per_pass"].items():
        print(f"  count {name} = {value:g} per pass")
    if details["not_exercised"]:
        print(f"  0 by construction, no such call or count in this workload: {', '.join(details['not_exercised'])}")
    print(f"details: {path.relative_to(ROOT)}")


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is the workload's own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in line["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "torickit" / "__init__.py").is_file():
        print(f"error: no torickit package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    try:
        if args.worker:
            print(worker_line(measure(args.workload, args.seed, args.seconds, 0, args.tiny, min_passes=1)))
            return 0
        if args.trace == 1:
            result, details, tracer = run_workload(args.workload, args.seed, args.seconds, 1, args.tiny)
        else:
            runs = run_workers(args)
            result, details = summarize(args.workload, args.seed, args.seconds, 0, args.tiny, runs)
            tracer = None
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    path = write_out(details, tracer)
    print_report(result, details, path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
