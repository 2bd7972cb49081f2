"""Benchmark-suite configuration.

Every file here regenerates one table/figure of the paper (see the
experiment index in DESIGN.md).  Run with::

    pytest benchmarks/ --benchmark-only

Each bench prints its regenerated table (directly to the terminal,
bypassing pytest capture, so the experiment record always appears in
the run log) and *asserts* the paper's qualitative shape, so the
reproduction is verified on every run.

The perf, obs and fault suites (``benchmarks/{perf,obs,faults}``) also
record their measurements in ``BENCH_sim.json`` at the repo root, one
run entry per suite per session, so successive runs form a trajectory;
CI uploads the file as an artifact.
"""

import json
import os
import sys
import time
from pathlib import Path

import pytest

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_sim.json"

#: Keys every run entry carries before any bench fills it in.
_RUN_HEADER = ("suite", "timestamp", "tiny", "cpus")


def _load_bench_doc():
    if BENCH_PATH.exists():
        try:
            doc = json.loads(BENCH_PATH.read_text())
            if isinstance(doc, dict) and doc.get("schema") == 1:
                doc.setdefault("runs", [])
                return doc
        except (ValueError, OSError):
            pass
    return {"schema": 1, "runs": []}


@pytest.fixture(scope="session")
def committed_runs():
    """The committed ``BENCH_sim.json`` run entries (this session's own
    are appended only at its end): the baselines a regression gate
    compares against."""
    return list(_load_bench_doc()["runs"])


@pytest.fixture(scope="session")
def _bench_runs():
    """Suite name -> this session's run entry; entries some bench filled
    in are appended to ``BENCH_sim.json`` at session end."""
    runs = {}
    yield runs
    measured = [run for run in runs.values() if set(run) - set(_RUN_HEADER)]
    if not measured:
        return
    doc = _load_bench_doc()
    doc["runs"].extend(measured)
    BENCH_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@pytest.fixture
def bench_record(request, _bench_runs):
    """The mutable run entry of the requesting bench's suite (its
    directory name: ``perf``, ``obs`` or ``faults``)."""
    suite = request.path.parent.name
    if suite not in _bench_runs:
        _bench_runs[suite] = {
            "suite": suite,
            "timestamp": time.time(),
            "tiny": os.environ.get("REPRO_PERF_TINY") == "1",
            "cpus": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
        }
    return _bench_runs[suite]


@pytest.fixture
def report(request):
    """Print a titled experiment block.

    Temporarily disables pytest's output capture so the tables show up
    even without ``-s`` — the benchmark log doubles as the experiment
    record (tee'd into bench_output.txt).
    """
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _report(title: str, body: str) -> None:
        def emit() -> None:
            print()
            print("=" * 72)
            print(title)
            print("=" * 72)
            print(body)
            sys.stdout.flush()

        if capman is not None:
            with capman.global_and_fixture_disabled():
                emit()
        else:  # pragma: no cover - capture plugin always present
            emit()

    return _report
