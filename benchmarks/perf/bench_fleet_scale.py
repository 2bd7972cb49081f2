"""Perf benchmarks for the fleet layer: scale, speedup, determinism.

Appends a ``fleet`` section to the ``BENCH_sim.json`` run entry:

- ``e13`` — the E13 headline arm (least-loaded routing) at full scale:
  simulated users/day admitted, wall-clock seconds per simulated hour,
  cell counts by evaluator, and the per-tenant SLO-attainment and MRM
  endurance-burn tables the acceptance criteria ask for.  The non-tiny
  run asserts the ≥1M simulated users/day floor across ≥4 clusters and
  ≥3 tenants, and gates ``wall_s_per_sim_hour`` at 20% over the best
  committed run with the same ``tiny`` flag and CPU count.
- ``modes`` — analytic-vs-DES wall-clock on a fleet small enough that
  both evaluators are supported, with an exact result-count
  cross-check (the analytic arm must serve the same requests).
- ``identity`` — the serial vs ``workers=4`` bit-identity check on the
  merged obs snapshot (the determinism contract, asserted here so the
  perf artifact also witnesses it).

Set ``REPRO_PERF_TINY=1`` for the CI smoke variant: same code paths and
assertions except the absolute-scale floor.
"""

import os
import time

from repro.fleet import FleetConfig, run_fleet
from repro.fleet.experiment import e13_config
from repro.obs import canonical_json

TINY = os.environ.get("REPRO_PERF_TINY") == "1"

#: A non-tiny E13 run may be at most this fraction slower per simulated
#: hour than the best comparable committed run before the suite fails.
MAX_REGRESSION = 0.20


def _committed_floor(runs, tiny, cpus):
    """Best (lowest) E13 ``wall_s_per_sim_hour`` among committed runs
    with the same tiny flag and CPU count, or None."""
    comparable = [
        run["fleet_e13"]["wall_s_per_sim_hour"]
        for run in runs
        if run.get("tiny") == tiny
        and run.get("cpus") == cpus
        and "fleet_e13" in run
    ]
    return min(comparable) if comparable else None


def _small_fleet(mode):
    return FleetConfig(
        horizon_s=120.0, epoch_s=60.0, num_clusters=2, mode=mode
    )


def test_e13_scale(bench_record, committed_runs):
    config = e13_config(tiny=TINY)
    t0 = time.perf_counter()
    result = run_fleet(config, root_seed=0)
    wall_s = time.perf_counter() - t0

    totals = result["totals"]
    per_hour = wall_s / (config.horizon_s / 3600.0)
    tables = {
        tenant: {
            "users_per_day": entry["users_per_day"],
            "sla_attainment": {
                sla: float(value)
                for sla, value in sorted(entry["sla_attainment"].items())
            },
            "ttft_p99_worst_cell_s": entry["ttft_p99_worst_cell_s"],
            "mrm_replica_epochs": entry["mrm_replica_epochs"],
            "mrm_bytes_written": entry["mrm_bytes_written"],
            "mrm_endurance_burn_per_day": entry[
                "mrm_endurance_burn_per_day"
            ],
        }
        for tenant, entry in result["tenants"].items()
    }
    bench_record["fleet_e13"] = {
        "num_clusters": config.num_clusters,
        "num_tenants": len(config.tenants),
        "horizon_s": config.horizon_s,
        "users_per_day": totals["users_per_day"],
        "requests_admitted": totals["admitted"],
        "requests_shed": totals["shed"],
        "wall_s": wall_s,
        "wall_s_per_sim_hour": per_hour,
        "cells": totals["num_cells"],
        "cells_analytic": totals["cells_analytic"],
        "cells_des": totals["cells_des"],
        "tenants": tables,
    }

    assert config.num_clusters >= 4
    assert len(config.tenants) >= 3
    if not TINY:
        # The acceptance headline: a million simulated users a day.
        assert totals["users_per_day"] >= 1_000_000
        floor = _committed_floor(committed_runs, TINY, bench_record["cpus"])
        if floor is not None:
            assert per_hour <= (1.0 + MAX_REGRESSION) * floor, (
                f"E13 wall time regressed >{MAX_REGRESSION:.0%}: "
                f"{per_hour:.1f} s/sim-hour vs committed {floor:.1f}"
            )


def test_analytic_vs_des_modes(bench_record):
    t0 = time.perf_counter()
    des = run_fleet(_small_fleet("des"), root_seed=3)
    des_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    auto = run_fleet(_small_fleet("auto"), root_seed=3)
    auto_wall = time.perf_counter() - t0

    # Same traces, same routing, same cells: counts must agree exactly.
    assert (
        des["totals"]["requests_completed"]
        == auto["totals"]["requests_completed"]
    )
    assert (
        des["totals"]["tokens_generated"]
        == auto["totals"]["tokens_generated"]
    )
    assert des["totals"]["cells_des"] == des["totals"]["num_cells"]

    bench_record["fleet_modes"] = {
        "des_wall_s": des_wall,
        "analytic_wall_s": auto_wall,
        "speedup": des_wall / auto_wall if auto_wall > 0 else None,
        "cells_analytic": auto["totals"]["cells_analytic"],
        "cells": auto["totals"]["num_cells"],
    }


def test_serial_vs_workers_identity(bench_record):
    config = e13_config(tiny=True)
    serial = canonical_json(
        run_fleet(config, root_seed=0, workers=1)["obs"]
    )
    parallel = canonical_json(
        run_fleet(config, root_seed=0, workers=4)["obs"]
    )
    assert serial == parallel
    bench_record["fleet_identity"] = {"serial_equals_workers4": True}
