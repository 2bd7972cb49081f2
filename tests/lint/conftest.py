"""Session-wide full-tree runs shared by the lint suites.

Linting all of ``src/repro`` is the slowest thing these suites do, so
each kind of run happens once per session:

- :func:`tree_lint` — the whole engine with the checked-in baseline,
  cold: the tier-1 clean-tree gate and the report tests read it;
- :func:`tree_analysis` — the standalone (ungated) interprocedural
  analysis, timed cold into an empty facts cache and then warm: the
  cache tests and the effects report tests read it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.baseline import Baseline
from repro.lint.engine import LintResult, analyze

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / ".repro-lint-baseline.json"


@dataclass
class TreeAnalysis:
    """Cold and warm standalone analyses of ``src/repro``."""

    cache_dir: Path
    cold: LintResult
    warm: LintResult
    cold_s: float
    warm_s: float


@pytest.fixture(scope="session")
def tree_lint() -> LintResult:
    baseline = Baseline.load(BASELINE) if BASELINE.exists() else Baseline()
    return lint_paths(
        [SRC], baseline=baseline, repo_root=REPO_ROOT, dataflow_cache_dir=None
    )


@pytest.fixture(scope="session")
def tree_analysis(tmp_path_factory) -> TreeAnalysis:
    cache_dir = tmp_path_factory.mktemp("facts-cache")
    runs = []
    for _ in ("cold", "warm"):
        start = time.perf_counter()
        result = analyze([SRC], cache_dir=cache_dir, repo_root=REPO_ROOT)
        runs.append((result, time.perf_counter() - start))
    (cold, cold_s), (warm, warm_s) = runs
    return TreeAnalysis(cache_dir, cold, warm, cold_s, warm_s)
