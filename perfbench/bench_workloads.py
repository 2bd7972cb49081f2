"""The benchmark's four workloads.

Each workload is one closed batch job against the library's public API.
``run()`` is the timed program work and returns the outputs plus its
host times; ``check()`` runs untimed on those outputs and returns
``(attempted, failed, digest, problems)``.  ``digest`` is the sha256 of
the simulated results, so a speed-only change can show that every
simulated statistic is unchanged.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Tuple

from bench_trace import TRACER, Patch, traced_run_sweep


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def digest_of(obj: Any) -> str:
    from repro.parallel import canonical_json

    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


class SweepTap:
    """Keeps the points and rows of the ``run_sweep`` call ``run_fleet``
    makes, so cells can be checked one by one.  Installed around each
    call; it wraps whatever ``repro.parallel.run_sweep`` is at the time."""

    def __init__(self) -> None:
        self.points: List[dict] = []
        self.rows: List[dict] = []

    def __enter__(self) -> "SweepTap":
        import repro.parallel as parallel

        inner = parallel.run_sweep

        def run_sweep(fn, points, *args, **kwargs):
            self.points = list(points)
            self.rows = inner(fn, self.points, *args, **kwargs)
            return self.rows

        self._patch = Patch()
        self._patch.set(parallel, "run_sweep", run_sweep)
        return self

    def __exit__(self, *exc) -> None:
        self._patch.undo()


def instrument(patch: Patch) -> None:
    """Substitute every layer's public entry points with span wrappers."""
    import repro.analysis.characterization as characterization
    import repro.fleet.fleet as fleet
    import repro.inference.analytic as analytic
    import repro.inference.cluster as cluster
    import repro.lint.engine as engine
    import repro.parallel as parallel
    import repro.sim as sim
    import repro.workload.traces as traces
    from repro.lint.rules import get_rule_classes
    from repro.obs import MetricsRegistry

    def served(prefix):
        def count(report):
            TRACER.count(prefix + ".requests",
                          report.requests_completed + report.requests_failed)
        return count

    def routed(decisions):
        TRACER.count("fleet.routing.decisions", len(decisions))
        TRACER.count("fleet.routing.shed", sum(d.shed for d in decisions))

    def arrived(traces_by_tenant):
        TRACER.count("fleet.arrivals.requests",
                     sum(len(t) for t in traces_by_tenant.values()))

    base = sim.Simulator

    class ObservedSimulator(base):
        """The kernel with the benchmark's obs registry attached."""

        __slots__ = ()

        def __init__(self, start_time=0.0, obs=None, tracer=None):
            super().__init__(
                start_time, TRACER.obs if obs is None else obs, tracer)

    TRACER.obs = MetricsRegistry()
    TRACER.point_names[fleet.fleet_cell_point] = "fleet.cell"
    patch.wrap(fleet, "build_cells", "fleet.build")
    patch.wrap(fleet, "generate_fleet_traces", "fleet.arrivals",
               on_result=arrived)
    for name in ("epoch_demand_rps", "plan_capacity", "static_plan"):
        patch.wrap(fleet, name, "fleet.autoscaler")
    patch.wrap(fleet, "merge_arrivals", "fleet.merge")
    patch.wrap(fleet.FleetRouter, "route", "fleet.routing", on_result=routed)
    patch.wrap(fleet, "aggregate_fleet", "fleet.aggregate")
    patch.set(parallel, "run_sweep", traced_run_sweep(parallel.run_sweep))
    patch.wrap(analytic, "analytic_cluster_report", "inference.analytic",
               on_result=served("inference.analytic"))
    patch.wrap(cluster.Cluster, "run", "inference.des",
               on_result=served("inference.des"))
    patch.set(sim, "Simulator", ObservedSimulator)
    patch.wrap(traces, "generate_trace", "workload.traces")
    patch.wrap_stream(traces, "replay_trace", "workload.traces")
    patch.wrap_stream(characterization, "synthesize_access_stream",
                      "analysis.synthesize")
    patch.wrap(characterization, "characterize", "analysis.characterize")
    patch.wrap(engine.LintEngine, "run", "lint.engine")
    for name, layer in (("run_dataflow", "lint.dataflow"),
                        ("run_effects", "lint.effects"),
                        ("run_races", "lint.races")):
        patch.wrap(engine, name, layer)
    for rule in get_rule_classes():
        patch.wrap(rule, "check", "lint.rules", materialize=True)


# ----------------------------------------------------------------------
# Fleet workloads
# ----------------------------------------------------------------------
def tiny_e13_parity(workers: int) -> List[str]:
    """Tiny E13 (analytic-auto and DES) must be bit-identical serially
    and at ``workers`` processes: the parallel layer's contract."""
    from repro.fleet import experiment, fleet

    problems = []
    for mode in ("auto", "des"):
        config = replace(experiment.e13_config(tiny=True), mode=mode)
        serial = digest_of(fleet.run_fleet(config, root_seed=0, workers=1))
        fanned = digest_of(fleet.run_fleet(config, root_seed=0,
                                           workers=workers))
        if serial != fanned:
            problems.append(f"tiny E13 ({mode}) differs serial vs "
                            f"{workers} workers")
    return problems


class Workload:
    """Defaults shared by the workloads."""

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed

    def after(self) -> List[str]:
        """Checks that run once, after the timed region."""
        return []


class FleetWorkload(Workload):
    """One E13 least-loaded arm through ``run_fleet``.  An operation is
    a ``(tenant, cluster, epoch)`` cell."""

    workers = 1

    def warm_up(self) -> None:
        from repro.fleet import experiment, fleet

        fleet.run_fleet(experiment.e13_config(tiny=True), root_seed=0,
                        workers=1)

    def run(self) -> Tuple[Any, Dict[str, float]]:
        from repro.fleet import fleet

        start = time.perf_counter()
        with SweepTap() as tap:
            result = fleet.run_fleet(self.config, root_seed=self.seed,
                                     workers=self.workers)
        wall = time.perf_counter() - start
        self.points = tap.points
        return (result, tap.rows), {"wall_s": wall}

    def check(self, outputs) -> Tuple[int, int, str, List[str]]:
        result, rows = outputs
        totals = result["totals"]
        problems: List[str] = []
        tenants = result["tenants"]
        for name, entry in sorted(tenants.items()):
            if entry["admitted"] != entry["routed"] + entry["shed_total"]:
                problems.append(f"{name}: admitted != routed + shed")
            if entry["in_flight"] != 0:
                problems.append(f"{name}: {entry['in_flight']} in flight")
        tokens = totals["tokens_generated"]
        sums = {
            "tenant": sum(t["tokens_generated"] for t in tenants.values()),
            "cluster": sum(c["tokens_generated"]
                           for c in result["clusters"].values()),
            "cell": sum(row["tokens_generated"] for row in rows),
        }
        for level, value in sorted(sums.items()):
            if value != tokens:
                problems.append(f"{level} tokens {value} != fleet {tokens}")
        if len(rows) != totals["num_cells"] or not rows:
            problems.append(f"{len(rows)} cell rows for "
                            f"{totals['num_cells']} cells")
        cells = max(1, len(rows))
        if problems:  # a fleet-level fault taints every cell
            return cells, cells, digest_of(result), problems
        bad = [
            row for row in rows
            if row["requests_completed"] != row["admitted"]
            or row["requests_failed"]
            or (self.config.mode == "des" and row["mode"] != "des")
        ]
        if bad:
            problems.append(f"{len(bad)} cells fail conservation")
        return cells, len(bad), digest_of(result), problems

    def work(self, outputs) -> Dict[str, float]:
        result, _ = outputs
        return {"requests": result["totals"]["admitted"],
                "sim_hours": self.config.horizon_s / 3600.0}


class FleetE13(FleetWorkload):
    """E13's per-cell scale (300 s epochs, rate x35, 8-18 replicas) over
    one epoch, evaluated serially with ``mode="auto"``."""

    def __init__(self, root: Path, seed: int) -> None:
        super().__init__(root, seed)
        from repro.fleet.experiment import e13_config

        self.config = replace(e13_config(routing="least-loaded"),
                              horizon_s=300.0)


class FleetDes(FleetWorkload):
    """The E13 tenants and routing at a lighter load, every cell on the
    DES, fanned out over ``nproc`` workers."""

    def __init__(self, root: Path, seed: int) -> None:
        super().__init__(root, seed)
        from repro.fleet.experiment import e13_config

        self.config = replace(e13_config(routing="least-loaded"),
                              horizon_s=300.0, rate_scale=2.0, mode="des")
        self.workers = nproc()

    def warm_up(self) -> None:
        from repro.fleet import experiment, fleet

        config = replace(experiment.e13_config(tiny=True), horizon_s=60.0,
                         mode="des")
        fleet.run_fleet(config, root_seed=0, workers=1)

    def after(self) -> List[str]:
        return tiny_e13_parity(self.workers)

    def accuracy(self, rows) -> Dict[str, float]:
        """Largest relative error of the analytic evaluator against the
        DES over the cells the analytic evaluator accepts."""
        from repro.fleet import fleet
        from repro.inference.analytic import UnsupportedScenario

        worst = {"ttft_p99": 0.0, "ttft_p50": 0.0, "bytes_read": 0.0}
        accepted = 0
        for point, des in zip(self.points, rows):
            try:
                fast = fleet.fleet_cell_point(dict(point, mode="analytic"),
                                              None)
            except UnsupportedScenario:
                continue
            accepted += 1
            pairs = {
                "ttft_p99": (fast["ttft_p99_s"], des["ttft_p99_s"]),
                "ttft_p50": (fast["ttft_p50_s"], des["ttft_p50_s"]),
                "bytes_read": (sum(fast["tier_bytes_read"].values()),
                               sum(des["tier_bytes_read"].values())),
            }
            for key, (got, want) in pairs.items():
                if want:
                    worst[key] = max(worst[key], abs(got - want) / abs(want))
        out = {f"analytic_err_{key}": value for key, value in worst.items()}
        out["analytic_err_accept_ratio"] = accepted / max(1, len(rows))
        return out


# ----------------------------------------------------------------------
# Characterization
# ----------------------------------------------------------------------
class Characterize(Workload):
    """``examples/serve_llama70b.py``: DES-serve a Splitwise Llama2-70B
    trace, then synthesize and characterize the access stream of the
    served requests.  An operation is one characterization report."""

    #: Page records characterized per run: a fixed amount of stream
    #: work, so run time does not follow the seed's output lengths.
    #: Prefill KV writes come in bursts, so a short window can end on
    #: one and dip under 1000:1; at this length the worst of seeds
    #: 0-1399 reads 1630:1.
    RECORDS = 1_000_000

    def __init__(self, root: Path, seed: int) -> None:
        super().__init__(root, seed)
        self.records = self.RECORDS
        self.duration = 60.0

    def warm_up(self) -> None:
        records, self.records = self.records, 20_000
        duration, self.duration = self.duration, 10.0
        self.run()
        self.records, self.duration = records, duration

    def run(self):
        import repro.analysis.characterization as characterization
        import repro.sim as sim
        import repro.workload.traces as traces
        from repro.inference.accelerator import H100_80G
        from repro.inference.cluster import Cluster, tensor_parallel_group
        from repro.workload.distributions import SPLITWISE_CONVERSATION
        from repro.workload.model import LLAMA2_70B
        from repro.workload.requests import PoissonArrivals

        start = time.perf_counter()
        trace = traces.generate_trace(
            LLAMA2_70B,
            profile=SPLITWISE_CONVERSATION,
            arrivals=PoissonArrivals(rate_per_s=1.5),
            duration_s=self.duration,
            seed=self.seed,
        )
        cluster = Cluster(sim.Simulator(),
                          tensor_parallel_group(H100_80G, 4), LLAMA2_70B,
                          num_engines=2, max_batch_size=16)
        served = cluster.run(traces.replay_trace(trace))
        requests = list(traces.replay_trace(trace))
        stream = characterization.synthesize_access_stream(
            LLAMA2_70B, requests, batch_size=4)
        report = characterization.characterize(
            itertools.islice(stream, self.records))
        wall = time.perf_counter() - start
        return (len(trace), served, report), {"wall_s": wall}

    def check(self, outputs):
        from repro.inference.sweep import report_to_dict

        offered, served, report = outputs
        problems = []
        if served.requests_completed != offered:
            problems.append(f"DES served {served.requests_completed} of "
                            f"{offered} requests")
        if not report.read_write_ratio > 1000:
            problems.append(f"read:write {report.read_write_ratio:.0f}:1 "
                            "is not > 1000:1")
        if report.sequentiality != 1.0:
            problems.append(f"sequentiality {report.sequentiality}")
        if report.inplace_written_bytes != 0:
            problems.append("in-place updates in an append-only stream")
        summary = {
            "served": report_to_dict(served),
            "stream": {
                name: getattr(report, name)
                for name in ("bytes_read", "bytes_written",
                             "bytes_read_by_structure",
                             "bytes_written_by_structure",
                             "sequential_bytes", "total_bytes",
                             "inplace_written_bytes", "predicted_bytes")
            },
        }
        return 1, 1 if problems else 0, digest_of(summary), problems

    def work(self, outputs) -> Dict[str, float]:
        _, _, report = outputs
        return {
            "stream_gib": (report.bytes_read + report.bytes_written) / 2**30,
            "analysis.bytes_read": report.bytes_read,
            "analysis.bytes_written": report.bytes_written,
        }


# ----------------------------------------------------------------------
# Lint
# ----------------------------------------------------------------------
class LintTree(Workload):
    """``lint_paths`` with all four layers, cold into an empty cache and
    then warm, over the files of ``src/repro/inference``: the package
    that holds most of the tree's sim-process cohort members.  An
    operation is one linted file.  After the timed region the whole of
    ``src/repro`` is linted once, cold, and checked against the
    committed races report.

    The seed permutes the order of the path arguments; the linter sorts
    what it discovers, so its output must not depend on that order."""

    #: Qualified-name prefix of the timed files' modules.
    MODULES = "repro.inference."

    def __init__(self, root: Path, seed: int) -> None:
        super().__init__(root, seed)
        package = root / "src" / "repro"
        rng = random.Random(seed)
        self.paths = sorted((package / "inference").glob("*.py"))
        rng.shuffle(self.paths)
        self.tree = sorted(p for p in package.iterdir()
                           if p.is_dir() or p.suffix == ".py")
        rng.shuffle(self.tree)
        self.golden = (root / "results" / "races_report.json").read_bytes()
        self.scratch = root / ".perfbench-out"

    def warm_up(self) -> None:
        from repro.lint import engine

        engine.lint_paths([self.root / "src" / "repro" / "units.py"],
                          repo_root=self.root, dataflow_cache_dir=None)

    def run(self):
        from repro.lint import engine

        self.scratch.mkdir(exist_ok=True)
        cache = Path(tempfile.mkdtemp(prefix="lint-cache-",
                                      dir=self.scratch))
        try:
            walls = {}
            results = []
            for phase, key in (("", "wall_s"), ("warm", "warm_wall_s")):
                TRACER.tag = phase
                start = time.perf_counter()
                results.append(engine.lint_paths(
                    self.paths, repo_root=self.root,
                    dataflow_cache_dir=cache))
                walls[key] = time.perf_counter() - start
            TRACER.tag = ""
        finally:
            shutil.rmtree(cache)
        return results, walls

    def after(self) -> List[str]:
        """The whole tree, cold: no findings, and the races report
        byte-equal to ``results/races_report.json``."""
        from repro.lint import engine

        result = engine.lint_paths(self.tree, repo_root=self.root,
                                   dataflow_cache_dir=None)
        problems = []
        if result.new or result.parse_errors:
            problems.append(f"src/repro: {len(result.new)} findings, "
                            f"{len(result.parse_errors)} parse errors")
        if self._races_report(result) != self.golden:
            problems.append("src/repro: races report differs from "
                            "results/races_report.json")
        return problems

    def expected_races(self) -> Dict[str, list]:
        """The committed races report's members and pairs among the
        timed files' modules."""
        golden = json.loads(self.golden)
        mine = self.MODULES
        return {
            "members": [m for m in golden["members"]
                        if m["qualname"].startswith(mine)],
            "pairs": [p for p in golden["pairs"]
                      if p["a"].startswith(mine) and p["b"].startswith(mine)],
        }

    def _races_report(self, result) -> bytes:
        """The report as ``repro.lint --races-report`` writes it."""
        path = Path(tempfile.mkdtemp(prefix="races-", dir=self.scratch))
        try:
            target = path / "races_report.json"
            target.write_text(json.dumps(result.races_report, indent=2,
                                         sort_keys=False) + "\n",
                              encoding="utf-8")
            return target.read_bytes()
        finally:
            shutil.rmtree(path)

    def check(self, outputs):
        problems = []
        attempted = failed = 0
        digests = []
        expected = self.expected_races()
        for phase, result in zip(("cold", "warm"), outputs):
            attempted += result.files_checked
            bad = {f.path for f in result.new}
            bad |= {path for path, _ in result.parse_errors}
            if bad:
                problems.append(f"{phase}: {len(bad)} files with findings")
            races = {key: result.races_report[key] for key in expected}
            if races != expected:
                problems.append(f"{phase}: races members or pairs differ "
                                "from results/races_report.json")
                bad = set(range(result.files_checked))
            stats = (result.dataflow_stats, result.effects_stats,
                     result.races_stats)
            expect_hits = phase == "warm"
            for layer in stats:
                hits = layer.cache_hits == layer.files
                misses = layer.cache_misses == layer.files
                if not (hits if expect_hits else misses):
                    problems.append(f"{phase}: {type(layer).__name__} "
                                    "cache accounting is off")
                    bad = set(range(result.files_checked))
            failed += len(bad)
            digests.append(digest_of({
                "files": result.files_checked,
                "findings": result.all_findings,
                "effects": result.effects_report,
                "races": result.races_report,
            }))
        if digests[0] != digests[1]:
            problems.append("warm results differ from cold results")
        return attempted, min(failed, attempted), digests[0], problems

    def work(self, outputs) -> Dict[str, float]:
        cold, warm = outputs
        out = {"lint.files": float(cold.files_checked)}
        for layer, stats in (("dataflow", warm.dataflow_stats),
                             ("effects", warm.effects_stats),
                             ("races", warm.races_stats)):
            out[f"lint.{layer}.cache_hit_ratio"] = (
                stats.cache_hits / max(1, stats.files))
        return out


WORKLOADS = {
    "fleet-e13": FleetE13,
    "fleet-des": FleetDes,
    "characterize": Characterize,
    "lint-tree": LintTree,
}
