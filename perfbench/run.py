#!/usr/bin/env python3
"""The repository benchmark: one workload, one closed batch job.

    python3 perfbench/run.py --workload fleet-e13 --seed 1 --seconds 15 --trace 0

Runs the named workload repeatedly for ``--seconds`` of host time,
checks every run's outputs, and prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones (set-up time, median wall time,
peak memory), measured in a few fresh processes one after another;
with ``--trace 1`` runs alternate untraced and traced in this process,
and the metrics are the per-layer ones from the traced runs.  Before
the JSON line it prints ``sim_digest <sha256>``, the hash of the
simulated results, which must not change at a fixed seed.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
repository is not there to benchmark.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
#: Directories the tree check skips: the benchmark's own output, the
#: interpreter's bytecode cache and a build directory (`.bench_build`).
SKIP = {".git", "__pycache__", ".perfbench-out", ".bench_build"}
#: Fresh processes that measure a ``--trace 0`` run, one after another,
#: each for its share of ``--seconds``.  Each is also a set-up probe.
#: A process's speed differs from the next one's by up to 10% on the
#: same host (memory layout), which a single process cannot average.
PROCESSES = 3
#: Host seconds of one ``reference_lap`` on this benchmark's 2-CPU host
#: (a typical figure; it only sets the unit of the reported times).
REF_LAP_S = 0.5
#: Python source the reference lap parses: generated, so it is the same
#: whatever the checkout holds.
LAP_SOURCE = "".join(
    f"def f{i}(a, b={i}):\n"
    f"    x = [a * k + b for k in range({i % 7})]\n"
    f"    if a > {i}:\n"
    f"        return {{'k': x, 'v': (a, b)}}\n"
    f"    for j in x:\n"
    f"        b += j % {i + 1}\n"
    f"    return b\n"
    for i in range(400))

#: Metric names and units, shared with whatever runs the benchmark.
SPEC = ROOT / "BENCHMARK.json"


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def tree_digest(root: Path) -> Dict[str, str]:
    """Content hash of every file of the checkout outside ``SKIP``."""
    files = {}
    for directory, dirs, names in os.walk(root):
        dirs[:] = sorted(d for d in dirs if d not in SKIP)
        for name in names:
            path = Path(directory) / name
            files[path.relative_to(root).as_posix()] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return files


def tree_changes(before: Dict[str, str], after: Dict[str, str]) -> List[str]:
    """Files changed or removed, plus new files inside the repository's
    directories or a default lint cache.  New top-level files are left
    alone: they belong to whoever runs the benchmark."""
    tops = {path.split("/")[0] for path in before if "/" in path}
    tops.add(".repro-lint-cache")
    changed = [path for path in before if after.get(path) != before[path]]
    changed += [path for path in after if path not in before
                and path.split("/")[0] in tops]
    return sorted(changed)


def measure_in_children(args: argparse.Namespace) -> dict:
    """Runs ``PROCESSES`` child processes one after another, each
    measuring ``--seconds / PROCESSES``, and pools what they report.
    ``setup`` gets each child's lap-scaled time from start to ready
    (imports plus one tiny untimed warm-up run)."""
    pooled = {"runs": [], "attempted": 0, "failed": 0, "problems": [],
              "digests": [], "setup": []}
    for _ in range(PROCESSES):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--child",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds / PROCESSES), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        ready = child.stdout.readline()
        seconds = time.perf_counter() - start
        report = child.stdout.read().splitlines()
        child.stdout.close()
        if child.wait() != 0 or ready.strip() != "ready" or not report:
            pooled["problems"].append("a measuring process failed")
            pooled["attempted"] += 1
            pooled["failed"] += 1
            break
        measured = json.loads(report[-1])
        first = measured.pop("first_lap")
        pooled["setup"].append(seconds * lap_scale(first, first))
        for key, value in measured.items():
            pooled[key] += value
    return pooled


def reference_lap() -> float:
    """Host time of a fixed task made of what the workloads do: dict
    updates, tuple churn and sorts in the interpreter, numpy sorts and
    scans, and parsing and walking Python syntax trees.  It keeps
    little memory alive, so it leaves ``peak_rss_mb`` alone."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    rows = []
    for i in range(150_000):
        key = i & 4095
        table[key] = table.get(key, 0) + i
        rows.append((key, i))
        if key == 4095:
            rows.sort(key=lambda row: -row[1])
            rows.clear()
    values = np.random.default_rng(0).random(200_000)
    for _ in range(3):
        values = np.cumsum(values[np.argsort(values, kind="stable")]) % 1.0
    for _ in range(2):
        tree = ast.parse(LAP_SOURCE)
        sum(len(type(node).__name__) for node in ast.walk(tree))
        ast.dump(tree)
    return time.perf_counter() - start


def lap_scale(before: float, after: float) -> float:
    """Factor from host seconds to lap-scaled seconds for work done
    between two reference laps that took ``before`` and ``after``.

    The host is shared, and its speed drifts by up to 2x over minutes.
    The laps on either side of a run slow down with it, so host time
    over their mean, times ``REF_LAP_S``, cancels the drift but not a
    change in the program."""
    return REF_LAP_S * 2 / (before + after)


def median_of(runs: List[dict], key: str, scaled: bool = True) -> float:
    """Median over ``runs`` of one timing, in lap-scaled seconds unless
    ``scaled`` is false."""
    values = [run["timings"][key] * (run["scale"] if scaled else 1.0)
              for run in runs if key in run["timings"]]
    return statistics.median(values) if values else 0.0


def layer_metrics(
    traced: List[dict], untraced: List[dict]
) -> Dict[str, float]:
    """Per-layer metrics: span self times and counts of the traced runs,
    as medians over runs; ratios are taken within a run.  Times are in
    lap-scaled seconds."""
    from bench_trace import NAME, OK, durations, self_times

    per_run: Dict[str, List[float]] = {}
    for run in traced:
        spans, counts, scale = run["spans"], run["counts"], run["scale"]
        values: Dict[str, float] = {}
        selves = self_times(spans, run["first_span"])
        for (name, tag), seconds in selves.items():
            key = f"{name}.{'warm_self_s' if tag == 'warm' else 'self_s'}"
            values[key] = values.get(key, 0.0) + seconds * scale
        # Share of the traced wall that the library's layers account
        # for; the rest is the benchmark's own "bench" span.
        layers = sum(seconds for (name, _), seconds in selves.items()
                     if name != "bench")
        values["trace.self_sum_ratio"] = (
            layers / sum(run["timings"].values()))
        for layer in ("inference.analytic", "inference.des"):
            cells = durations(spans, layer)
            busy = values.get(f"{layer}.self_s", 0.0)
            values[f"{layer}.cells"] = float(len(cells))
            values[f"{layer}.cell_s_p50"] = (
                statistics.median(cells) * scale if cells else 0.0)
            values[f"{layer}.requests_per_s"] = (
                counts.get(f"{layer}.requests", 0.0) / busy if busy else 0.0)
        accepted = [r[OK] for r in spans if r[NAME] == "inference.analytic"]
        values["inference.analytic.accept_ratio"] = (
            sum(accepted) / len(accepted) if accepted else 0.0)
        decisions = counts.get("fleet.routing.decisions", 0.0)
        values["fleet.routing.shed_ratio"] = (
            counts.get("fleet.routing.shed", 0.0) / decisions
            if decisions else 0.0)
        events = counts.get("sim.events", 0.0)
        des = values.get("inference.des.self_s", 0.0)
        values["sim.events_per_s"] = events / des if des else 0.0
        for key in ("fleet.arrivals.requests", "sim.events",
                    "parallel.payload_bytes", "parallel.result_bytes"):
            values[key] = counts.get(key, 0.0)
        for key in ("parallel.busy_s", "parallel.idle_s"):
            values[key] = counts.get(key, 0.0) * scale
        for key, value in values.items():
            per_run.setdefault(key, []).append(value)
    for run in untraced:
        work = dict(run["work"])
        wall = run["timings"]["wall_s"] * run["scale"]
        if "requests" in work:
            work["requests_per_s"] = work.pop("requests") / wall
            work["wall_s_per_sim_hour"] = wall / work.pop("sim_hours")
        if "stream_gib" in work:
            work["stream_gib_per_s"] = work.pop("stream_gib") / wall
        for key, value in work.items():
            per_run.setdefault(key, []).append(value)
    out = {key: statistics.median(values) for key, values in per_run.items()}
    out["warm_wall_s"] = median_of(untraced, "warm_wall_s")
    out["host_wall_s"] = median_of(untraced, "wall_s", scaled=False)
    out["trace.overhead_ratio"] = (median_of(traced, "wall_s")
                                   / median_of(untraced, "wall_s"))
    return out


def measure(workload, seconds: float, trace: bool) -> dict:
    """Runs ``workload`` again and again for about ``seconds``, each run
    between two reference laps, and checks each run's outputs.  With
    ``trace``, runs alternate untraced and traced."""
    from bench_trace import TRACER, Patch
    from bench_workloads import instrument

    measured = {"runs": [], "attempted": 0, "failed": 0, "problems": [],
                "digests": [], "outputs": None}
    runs = measured["runs"]
    deadline = time.perf_counter() + seconds
    lap = measured["first_lap"] = reference_lap()
    while True:
        traced = trace and len(runs) % 2 == 1
        patch = Patch()
        TRACER.counts = {}
        first_span = len(TRACER.spans)
        try:
            if traced:
                TRACER.run += 1
                instrument(patch)
                with TRACER.span("bench"):
                    outputs, timings = workload.run()
                TRACER.count("sim.events", TRACER.sim_events())
            else:
                outputs, timings = workload.run()
        except Exception as exc:  # a raising run is a failed run
            measured["problems"].append(
                f"run raised {type(exc).__name__}: {exc}")
            measured["attempted"] += 1
            measured["failed"] += 1
            break
        finally:
            patch.undo()
        after = reference_lap()
        scale, lap = lap_scale(lap, after), after
        done, bad, digest, found = workload.check(outputs)
        measured["attempted"] += done
        measured["failed"] += bad
        measured["problems"].extend(found)
        if digest not in measured["digests"]:
            measured["digests"].append(digest)
        measured["outputs"] = outputs
        runs.append({
            "traced": traced,
            "timings": timings,
            "scale": scale,
            "work": workload.work(outputs),
            "first_span": first_span,
            "spans": TRACER.spans[first_span:],
            "counts": dict(TRACER.counts),
        })
        # Stop once another run would end more than half a run past
        # the deadline, so a run measures about ``seconds`` in all.
        enough = len(runs) >= (2 if trace else 1)
        length = sum(timings.values())
        if enough and time.perf_counter() + length / 2 >= deadline:
            break
    return measured


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    from bench_trace import TRACER
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.child:
        workload = WORKLOADS[args.workload](ROOT, args.seed)
        workload.warm_up()
        print("ready", flush=True)
        measured = measure(workload, args.seconds, trace=False)
        del measured["outputs"]
        for run in measured["runs"]:
            run.pop("spans")
        print(json.dumps(measured))
        return 0

    tree_before = tree_digest(ROOT)
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    if args.trace:
        workload.warm_up()
        measured = measure(workload, args.seconds, trace=True)
    else:
        measured = measure_in_children(args)
    runs = measured["runs"]
    problems = measured["problems"]
    attempted, failed = measured["attempted"], measured["failed"]
    digests = set(measured["digests"])

    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    untraced = [run for run in runs if not run["traced"]]
    traced_runs = [run for run in runs if run["traced"]]
    if runs:
        problems.extend(workload.after())
        if len(digests) > 1:
            problems.append(f"{len(digests)} different sim digests at one seed")
    changed = tree_changes(tree_before, tree_digest(ROOT))
    if changed:
        problems.append(f"the run changed the repository tree: "
                        f"{', '.join(changed[:5])}")

    if args.trace:
        metrics = layer_metrics(traced_runs, untraced)
        if traced_runs and hasattr(workload, "accuracy"):
            metrics.update(workload.accuracy(measured["outputs"][1]))
        metrics["error_ratio"] = failed / max(1, attempted)
        OUT.mkdir(exist_ok=True)
        TRACER.dump(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        listed = spec["per_layer"]
    else:
        metrics = {
            "setup_s": (statistics.median(measured["setup"])
                        if measured["setup"] else 0.0),
            "wall_s": median_of(untraced, "wall_s"),
            "peak_rss_mb": peak_kib / 1024.0,
        }
        listed = spec["end_to_end"]

    for problem in problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload}: host wall_s of each run: "
          + " ".join(f"{r['timings']['wall_s']:.4f}" for r in runs)
          + "; lap scales "
          + " ".join(f"{r['scale']:.4f}" for r in runs), file=sys.stderr)
    for digest in sorted(digests):
        print(f"sim_digest {digest}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in listed},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
