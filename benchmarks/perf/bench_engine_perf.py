"""Perf microbenchmarks for the simulator and the parallel sweep engine.

Five measurements, appended to ``BENCH_sim.json`` (repo root) as one
run entry per invocation:

- ``events_per_sec`` — raw discrete-event kernel throughput on a
  many-job queueing simulation (warmed, min-of-5 wall-clock so the
  figure is the kernel's, not the allocator warmup's), with a
  regression gate against the best comparable committed run;
- ``sweep`` — wall-clock of the same sweep run serially and with 4
  workers through :mod:`repro.parallel`, with the speedup and a
  byte-identical results check.  Sweep points combine real simulator
  work with a fixed blocking wait, so the speedup number measures the
  *engine's* fan-out and overlap rather than the host's core count
  (CI runners can be single-core; process workers still overlap the
  blocking portion of every point);
- ``cache`` — cold and warm hit rates of the content-addressed result
  cache on an unchanged sweep, with a cached-equals-recomputed
  correctness cross-check (this check runs even on the tiny grid and
  its failure fails CI);
- ``analytic`` — evaluator-only speedup of
  :func:`repro.inference.analytic.analytic_cluster_report` over the DES
  ``Cluster.run`` on the same pre-built request list (trace generation,
  shared by both modes, is excluded);
- ``cross_validation`` — the max DES-vs-analytic relative error over the
  pinned grid; the tolerance assertion runs even on the tiny grid.

Set ``REPRO_PERF_TINY=1`` to shrink every grid for CI smoke runs; the
tiny grid still exercises every code path and every correctness
assertion, but skips the absolute-speedup thresholds (meaningless at
millisecond scale).
"""

import os
import time

import numpy as np

from repro.parallel import ResultCache, SweepEngine, run_sweep
from repro.sim import Histogram, Simulator, Timeout

TINY = os.environ.get("REPRO_PERF_TINY") == "1"

#: Events per queueing job: the spawn event plus the timeout completion.
EVENTS_PER_JOB = 2

#: Absolute kernel-throughput floor for full (non-tiny) runs: 3x the
#: ~130k events/s plateau of the pre-batching heap kernel.
EVENTS_PER_SEC_FLOOR = 390_000

#: A run may regress at most this fraction below the best comparable
#: committed run before the perf suite fails.
MAX_REGRESSION = 0.20

#: Marker distinguishing warmed min-of-N measurements from the old
#: single-cold-run entries (which are not comparable).
EVENTS_METHOD = "warm-min10"


def _committed_floor(runs, tiny):
    """Best ``events_per_sec`` among committed runs measured the same
    way (same tiny flag, same warm/min-of-N method), or None."""
    comparable = [
        run["events_per_sec"]
        for run in runs
        if run.get("events_per_sec_method") == EVENTS_METHOD
        and run.get("tiny") == tiny
        and "events_per_sec" in run
    ]
    return max(comparable) if comparable else None


def _queueing_sim(jobs, seed):
    """One seeded M/M/inf-style drain through the event kernel."""
    rng = np.random.default_rng(seed)
    sim = Simulator()
    latency = Histogram("latency")

    def job(delay):
        start = sim.now
        yield Timeout(delay)
        latency.observe(sim.now - start)

    for gap in rng.exponential(1.0, size=jobs):
        sim.spawn(job(float(gap)))
    sim.run()
    return {
        "jobs": jobs,
        "mean_latency_s": latency.mean(),
        "p99_latency_s": latency.quantile(0.99),
        "end_time_s": sim.now,
    }


def perf_point(config, seed):
    """One sweep point: real kernel work plus a fixed blocking wait.

    The wait makes per-point cost independent of host CPU count, so
    the serial-vs-parallel comparison isolates the sweep engine's
    fan-out (see module docstring).  Results are a pure function of
    (config, seed) — the wait contributes nothing to the values.
    """
    result = _queueing_sim(config["jobs"], seed)
    time.sleep(config["wait_s"])
    return result


def _sweep_grid():
    jobs = 100 if TINY else 800
    wait_s = 0.01 if TINY else 0.35
    return [{"jobs": jobs + 10 * i, "wait_s": wait_s} for i in range(8)]


def test_kernel_events_per_sec(bench_record, committed_runs, report):
    jobs = 2_000 if TINY else 20_000
    _queueing_sim(jobs, seed=7)  # warmup: numpy import paths, allocator
    best = float("inf")
    result = None
    # Min-of-10: the kernel's cost is deterministic, so the minimum is
    # the measurement and everything above it is scheduler/GC noise
    # (single-core CI runners jitter individual reps by 10-20%).
    for _ in range(10):
        start = time.perf_counter()
        result = _queueing_sim(jobs, seed=7)
        best = min(best, time.perf_counter() - start)
    events_per_sec = EVENTS_PER_JOB * jobs / best
    bench_record["events_per_sec"] = events_per_sec
    bench_record["events_per_sec_method"] = EVENTS_METHOD
    floor = _committed_floor(committed_runs, TINY)
    floor_note = f"; committed floor {floor:,.0f}" if floor else ""
    report(
        "PERF — event-kernel throughput (warm, min of 10)",
        f"{jobs} jobs ({EVENTS_PER_JOB * jobs} events) best {best:.3f} s"
        f" -> {events_per_sec:,.0f} events/s"
        f" (mean latency {result['mean_latency_s']:.3f} s{floor_note})",
    )
    assert events_per_sec > 1_000
    if not TINY:
        assert events_per_sec >= EVENTS_PER_SEC_FLOOR
    if floor is not None:
        assert events_per_sec >= (1.0 - MAX_REGRESSION) * floor, (
            f"kernel throughput regressed >{MAX_REGRESSION:.0%}: "
            f"{events_per_sec:,.0f} events/s vs committed {floor:,.0f}"
        )


def test_sweep_parallel_speedup(bench_record, report):
    grid = _sweep_grid()

    start = time.perf_counter()
    serial = run_sweep(perf_point, grid, root_seed=11, workers=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_sweep(perf_point, grid, root_seed=11, workers=4)
    parallel_s = time.perf_counter() - start

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    bench_record["sweep"] = {
        "points": len(grid),
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "workers": 4,
        "speedup": speedup,
    }
    report(
        "PERF — sweep engine fan-out (4 workers)",
        f"{len(grid)} points: serial {serial_s:.2f} s,"
        f" 4 workers {parallel_s:.2f} s -> {speedup:.2f}x",
    )
    # The engine's core guarantee: scheduling never leaks into results.
    assert parallel == serial  # repro-lint: disable=RL006
    if not TINY:
        assert speedup >= 2.0


def test_cache_hit_rate(bench_record, report, tmp_path):
    grid = _sweep_grid()[:4] if TINY else _sweep_grid()
    # Strip the blocking wait: cache perf, not fan-out, is under test.
    grid = [dict(point, wait_s=0.0) for point in grid]
    cache = ResultCache(tmp_path / "perf-cache")
    engine = SweepEngine(workers=1, cache=cache, root_seed=3)

    cold = engine.run(perf_point, grid)
    cold_hit_rate = cold.stats.cache_hit_rate()
    cache.reset_stats()

    warm = engine.run(perf_point, grid)
    warm_hit_rate = warm.stats.cache_hit_rate()

    bench_record["cache"] = {
        "points": len(grid),
        "cold_hit_rate": cold_hit_rate,
        "warm_hit_rate": warm_hit_rate,
        "entries": cache.entry_count(),
    }
    report(
        "PERF — result-cache hit rates (unchanged sweep, two runs)",
        f"{len(grid)} points: cold {cold_hit_rate:.0%},"
        f" warm {warm_hit_rate:.0%},"
        f" {cache.entry_count()} entries on disk",
    )
    assert cold_hit_rate == 0.0
    assert warm_hit_rate >= 0.9
    # Cache-correctness cross-check (always on, including tiny/CI runs):
    # served-from-cache values must equal a fresh uncached recompute.
    fresh = run_sweep(perf_point, grid, root_seed=3, workers=1)
    assert list(warm) == fresh  # repro-lint: disable=RL006
    assert list(cold) == fresh  # repro-lint: disable=RL006


#: Evaluator-only analytic-vs-DES speedup floor for full runs.
ANALYTIC_SPEEDUP_FLOOR = 100.0


def test_analytic_evaluator_speedup(bench_record, report):
    """Evaluator-only: DES ``Cluster.run`` vs ``analytic_cluster_report``
    on the same pre-built request list.

    Trace generation is excluded — both modes share it, and on small
    points its fixed cost would mask the evaluators' own ratio.
    """
    from repro.inference import Cluster, analytic_cluster_report
    from repro.inference.accelerator import H100_80G
    from repro.inference.cluster import tensor_parallel_group
    from repro.workload.model import LLAMA2_70B
    from repro.workload.requests import PoissonArrivals
    from repro.workload.traces import generate_trace, replay_trace

    duration = 10.0 if TINY else 180.0
    accelerator = tensor_parallel_group(H100_80G, 4)
    trace = generate_trace(
        LLAMA2_70B,
        arrivals=PoissonArrivals(1.0),
        duration_s=duration,
        seed=5,
    )
    requests = list(replay_trace(trace))

    start = time.perf_counter()
    sim = Simulator()
    des_report = Cluster(
        sim, accelerator, LLAMA2_70B, num_engines=2
    ).run(list(requests))
    des_s = time.perf_counter() - start

    analytic_cluster_report(  # warmup: numpy kernels, module import
        accelerator, LLAMA2_70B, list(requests), num_engines=2
    )
    analytic_s = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        analytic_report = analytic_cluster_report(
            accelerator, LLAMA2_70B, list(requests), num_engines=2
        )
        analytic_s = min(analytic_s, time.perf_counter() - start)

    speedup = des_s / analytic_s if analytic_s > 0 else float("inf")
    bench_record["analytic"] = {
        "requests": len(requests),
        "des_s": des_s,
        "analytic_s": analytic_s,
        "speedup": speedup,
    }
    report(
        "PERF — analytic evaluator vs DES (same request list)",
        f"{len(requests)} requests: DES {des_s:.3f} s,"
        f" analytic {analytic_s * 1e3:.2f} ms -> {speedup:,.0f}x",
    )
    # Both evaluators must agree on the exact aggregates regardless of
    # which one is faster.
    assert analytic_report.requests_completed == des_report.requests_completed
    assert analytic_report.tokens_generated == des_report.tokens_generated
    if not TINY:
        assert speedup >= ANALYTIC_SPEEDUP_FLOOR


def test_cross_validation_error(bench_record, report):
    """Max DES-vs-analytic relative error over the pinned grid.

    The tolerance assertion is a correctness gate and runs even on the
    tiny grid — a fast-but-wrong analytic mode must fail CI.
    """
    from repro.inference import (
        CROSS_VAL_TOLERANCE,
        cross_validate,
        cross_validation_grid,
    )

    grid = cross_validation_grid(tiny=TINY)
    start = time.perf_counter()
    rows = cross_validate(grid, root_seed=0, workers=1)
    elapsed = time.perf_counter() - start
    max_err = max(row["max_rel_err"] for row in rows)
    worst = max(rows, key=lambda row: row["max_rel_err"])
    worst_metric = max(
        worst["metrics"], key=lambda name: worst["metrics"][name]["rel_err"]
    )
    bench_record["cross_validation"] = {
        "points": len(rows),
        "max_rel_err": max_err,
        "worst_metric": worst_metric,
        "tolerance": CROSS_VAL_TOLERANCE,
    }
    report(
        "PERF — DES-vs-analytic cross-validation",
        f"{len(rows)} points in {elapsed:.2f} s: max rel err"
        f" {max_err:.2%} ({worst_metric}),"
        f" tolerance {CROSS_VAL_TOLERANCE:.0%}",
    )
    assert max_err <= CROSS_VAL_TOLERANCE
