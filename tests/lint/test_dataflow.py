"""Interprocedural dataflow rules RL012-RL015: true positives, true
negatives, and the regression cases the per-file rules cannot see."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint import lint_paths
from repro.lint.dataflow import DATAFLOW_RULE_IDS
from repro.lint.dataflow.linker import Program
from repro.lint.dataflow.model import FileSummary
from repro.lint.dataflow.rules import check_program
from repro.lint.engine import INTERPROCEDURAL_RULE_IDS, analyze
from repro.lint.facts import extract_facts

DATAFLOW = set(DATAFLOW_RULE_IDS)
#: Every interprocedural rule but the dataflow ones (``--no-dataflow``).
NO_DATAFLOW = INTERPROCEDURAL_RULE_IDS - DATAFLOW


def write(tmp_path: Path, relpath: str, source: str) -> Path:
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return target


def df_findings(tmp_path, rule_id=None):
    """New findings from a full engine run, filtered to dataflow ids."""
    result = lint_paths([tmp_path], repo_root=tmp_path)
    wanted = {rule_id} if rule_id else {"RL012", "RL013", "RL014", "RL015"}
    return [f for f in result.new if f.rule_id in wanted]


HELPERS = """\
    from repro.units import GiB

    def reserved_bytes():
        return 2 * GiB

    def scale_capacity(capacity_bytes):
        return capacity_bytes / GiB
"""


class TestRL012DimensionConflicts:
    def test_seconds_into_bytes_parameter(self, tmp_path):
        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.helpers import scale_capacity
            from repro.units import HOUR

            def retention_s():
                return 5 * HOUR

            def run():
                return scale_capacity(retention_s())
            """,
        )
        findings = df_findings(tmp_path, "RL012")
        assert len(findings) == 1
        assert "capacity_bytes" in findings[0].message
        assert "seconds" in findings[0].message

    def test_return_assigned_to_conflicting_name(self, tmp_path):
        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.helpers import reserved_bytes

            def run():
                window_s = reserved_bytes()
                return window_s
            """,
        )
        findings = df_findings(tmp_path, "RL012")
        assert len(findings) == 1
        assert "window_s" in findings[0].message

    def test_matching_dimensions_are_clean(self, tmp_path):
        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.helpers import reserved_bytes, scale_capacity

            def run(extra_bytes):
                total_bytes = reserved_bytes() + extra_bytes
                return scale_capacity(total_bytes)
            """,
        )
        assert df_findings(tmp_path) == []

    def test_unknown_dimension_never_flags(self, tmp_path):
        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.helpers import scale_capacity

            def run(blob):
                return scale_capacity(blob)
            """,
        )
        assert df_findings(tmp_path) == []

    def test_annotation_alias_drives_inference(self, tmp_path):
        write(
            tmp_path,
            "repro/api.py",
            """\
            from repro.units import Seconds

            def decay_after(dwell: Seconds):
                return dwell * 2
            """,
        )
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.api import decay_after

            def run(capacity_bytes):
                return decay_after(capacity_bytes)
            """,
        )
        findings = df_findings(tmp_path, "RL012")
        assert len(findings) == 1
        assert "dwell" in findings[0].message


class TestRL013BaseConflicts:
    def test_decimal_arg_into_binary_callee(self, tmp_path):
        # scale_capacity divides by GiB (binary); 4 * GB is decimal.
        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.helpers import scale_capacity
            from repro.units import GB

            def run():
                return scale_capacity(4 * GB)
            """,
        )
        findings = df_findings(tmp_path, "RL013")
        assert len(findings) == 1
        assert "decimal" in findings[0].message
        assert "binary" in findings[0].message

    def test_binary_return_mixed_with_decimal_constant(self, tmp_path):
        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.helpers import reserved_bytes
            from repro.units import GB

            def total():
                return reserved_bytes() + 4 * GB
            """,
        )
        findings = df_findings(tmp_path, "RL013")
        assert len(findings) == 1
        assert "binary" in findings[0].message

    def test_same_base_across_call_is_clean(self, tmp_path):
        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.helpers import reserved_bytes, scale_capacity
            from repro.units import GiB

            def total():
                return reserved_bytes() + 4 * GiB

            def frac():
                return scale_capacity(32 * GiB)
            """,
        )
        assert df_findings(tmp_path) == []

    def test_regression_per_file_rules_miss_cross_function_mix(self, tmp_path):
        """The deliberate GB-vs-GiB conflict split across two functions:
        RL002 (per-file mixing) cannot see it, RL013 must."""
        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.helpers import reserved_bytes
            from repro.units import GB

            def total():
                return reserved_bytes() + 4 * GB
            """,
        )
        per_file_only = lint_paths([tmp_path], repo_root=tmp_path, rule_ids=NO_DATAFLOW)
        assert per_file_only.new == []
        with_dataflow = lint_paths([tmp_path], repo_root=tmp_path)
        assert [f.rule_id for f in with_dataflow.new] == ["RL013"]


RNG_HELPER = """\
    import numpy as np

    def make_rng(seed=None):
        return np.random.default_rng(seed)
"""


class TestRL014SeedProvenance:
    def test_unseeded_through_helper(self, tmp_path):
        write(tmp_path, "repro/rngutil.py", RNG_HELPER)
        write(
            tmp_path,
            "repro/sim/engine.py",
            """\
            from repro.rngutil import make_rng

            def setup():
                rng = make_rng()
                return rng
            """,
        )
        findings = df_findings(tmp_path, "RL014")
        assert len(findings) == 1
        assert "seed" in findings[0].message
        assert findings[0].path.endswith("repro/sim/engine.py")

    def test_literal_seed_in_sim_code(self, tmp_path):
        write(
            tmp_path,
            "repro/sim/engine.py",
            """\
            import numpy as np

            def setup():
                rng = np.random.default_rng(42)
                return rng
            """,
        )
        findings = df_findings(tmp_path, "RL014")
        assert len(findings) == 1
        assert "literal" in findings[0].message

    def test_derived_seed_is_clean(self, tmp_path):
        write(tmp_path, "repro/rngutil.py", RNG_HELPER)
        write(
            tmp_path,
            "repro/sim/engine.py",
            """\
            import numpy as np
            from repro.rngutil import make_rng

            def setup(seed):
                direct = np.random.default_rng(seed)
                via_helper = make_rng(seed=seed)
                return direct, via_helper
            """,
        )
        assert df_findings(tmp_path) == []

    def test_outside_sim_scope_is_clean(self, tmp_path):
        # Same unseeded helper call, but nothing under sim/workload/
        # faults reaches it: analysis code may use ad-hoc streams.
        write(tmp_path, "repro/rngutil.py", RNG_HELPER)
        write(
            tmp_path,
            "repro/plotting.py",
            """\
            from repro.rngutil import make_rng

            def jitter():
                return make_rng()
            """,
        )
        assert df_findings(tmp_path) == []

    def test_regression_per_file_rules_miss_helper_default(self, tmp_path):
        """``make_rng()`` passes RL003 (an arg exists at the direct
        construction site) — only provenance tracking catches the
        seed=None default at the omitting call site."""
        write(tmp_path, "repro/rngutil.py", RNG_HELPER)
        write(
            tmp_path,
            "repro/sim/engine.py",
            """\
            from repro.rngutil import make_rng

            def setup():
                return make_rng()
            """,
        )
        per_file_only = lint_paths([tmp_path], repo_root=tmp_path, rule_ids=NO_DATAFLOW)
        assert per_file_only.new == []
        with_dataflow = lint_paths([tmp_path], repo_root=tmp_path)
        assert [f.rule_id for f in with_dataflow.new] == ["RL014"]


class TestRL015ProcessPurity:
    def test_wall_clock_through_helper(self, tmp_path):
        write(
            tmp_path,
            "repro/util.py",
            """\
            import time

            def slow_helper():
                return time.time()
            """,
        )
        write(
            tmp_path,
            "repro/sim/procs.py",
            """\
            from repro.util import slow_helper
            from repro.sim.events import Timeout

            def proc(env):
                slow_helper()
                yield Timeout(1.0)
            """,
        )
        findings = df_findings(tmp_path, "RL015")
        assert len(findings) == 1
        assert "slow_helper" in findings[0].message
        assert "time.time" in findings[0].message

    def test_two_hop_chain_is_reported(self, tmp_path):
        write(
            tmp_path,
            "repro/util.py",
            """\
            import time

            def inner():
                return time.time()

            def outer():
                return inner()
            """,
        )
        write(
            tmp_path,
            "repro/sim/procs.py",
            """\
            from repro.util import outer
            from repro.sim.events import Timeout

            def proc(env):
                outer()
                yield Timeout(1.0)
            """,
        )
        findings = df_findings(tmp_path, "RL015")
        assert len(findings) == 1
        assert "outer" in findings[0].message and "inner" in findings[0].message

    def test_pure_helper_is_clean(self, tmp_path):
        write(
            tmp_path,
            "repro/util.py",
            """\
            def pure_helper(x_s):
                return x_s * 2
            """,
        )
        write(
            tmp_path,
            "repro/sim/procs.py",
            """\
            from repro.util import pure_helper
            from repro.sim.events import Timeout

            def proc(env):
                pure_helper(1.0)
                yield Timeout(1.0)
            """,
        )
        assert df_findings(tmp_path) == []

    def test_non_process_caller_is_clean(self, tmp_path):
        # Only generators yielding sim commands are processes; plain
        # functions may read the clock (e.g. progress reporting).
        write(
            tmp_path,
            "repro/util.py",
            """\
            import time

            def slow_helper():
                return time.time()
            """,
        )
        write(
            tmp_path,
            "repro/sim/report.py",
            """\
            from repro.util import slow_helper

            def progress():
                return slow_helper()
            """,
        )
        assert df_findings(tmp_path, "RL015") == []


class TestEngineIntegration:
    def test_dataflow_findings_respect_suppressions(self, tmp_path):
        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.helpers import reserved_bytes

            def run():
                window_s = reserved_bytes()  # repro-lint: disable=RL012 -- fixture
                return window_s
            """,
        )
        result = lint_paths([tmp_path], repo_root=tmp_path)
        assert not result.new
        assert [f.rule_id for f in result.suppressed] == ["RL012"]

    def test_dataflow_findings_respect_baseline(self, tmp_path):
        from repro.lint.baseline import Baseline

        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.helpers import reserved_bytes

            def run():
                window_s = reserved_bytes()
                return window_s
            """,
        )
        first = lint_paths([tmp_path], repo_root=tmp_path)
        assert [f.rule_id for f in first.new] == ["RL012"]
        baseline = Baseline.from_findings(first.new, justification="legacy")
        second = lint_paths([tmp_path], baseline=baseline, repo_root=tmp_path)
        assert not second.new
        assert [f.rule_id for f in second.baselined] == ["RL012"]

    def test_rule_selection_narrows_dataflow(self, tmp_path):
        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.helpers import reserved_bytes
            from repro.units import GB

            def total():
                return reserved_bytes() + 4 * GB

            def run():
                window_s = reserved_bytes()
                return window_s
            """,
        )
        result = lint_paths(
            [tmp_path], repo_root=tmp_path, rule_ids={"RL013"}
        )
        assert [f.rule_id for f in result.new] == ["RL013"]

    def test_dataflow_only_selection_disables_per_file_rules(self, tmp_path):
        # split_selection(["RL013"]) yields an EMPTY per-file class list;
        # the engine must honour it rather than falling back to the full
        # registry (empty list != None).
        from repro.lint.rules import split_selection

        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            import random
            from repro.helpers import reserved_bytes
            from repro.units import GB

            def total():
                x = random.random()
                return reserved_bytes() + 4 * GB + x
            """,
        )
        classes, dataflow_ids = split_selection(["RL013"])
        assert classes == []
        result = lint_paths(
            [tmp_path],
            rule_classes=classes,
            repo_root=tmp_path,
            rule_ids=dataflow_ids,
        )
        # RL003 would fire on random.random() if per-file rules ran.
        assert [f.rule_id for f in result.new] == ["RL013"]

    def test_dataflow_off_skips_pass(self, tmp_path):
        write(tmp_path, "repro/helpers.py", HELPERS)
        result = lint_paths([tmp_path], repo_root=tmp_path, rule_ids=NO_DATAFLOW)
        assert result.dataflow_stats is None

    def test_stats_surface_on_result(self, tmp_path):
        write(tmp_path, "repro/helpers.py", HELPERS)
        result = lint_paths([tmp_path], repo_root=tmp_path)
        assert result.dataflow_stats is not None
        assert result.dataflow_stats.files == 1

    def test_reports_are_deterministic(self, tmp_path):
        write(tmp_path, "repro/helpers.py", HELPERS)
        write(
            tmp_path,
            "repro/driver.py",
            """\
            from repro.helpers import reserved_bytes, scale_capacity
            from repro.units import GB, HOUR

            def retention_s():
                return 5 * HOUR

            def run():
                total = reserved_bytes() + 4 * GB
                frac = scale_capacity(retention_s())
                window_s = reserved_bytes()
                return total, frac, window_s
            """,
        )
        first = analyze([tmp_path], repo_root=tmp_path, rule_ids=DATAFLOW).new
        second = analyze([tmp_path], repo_root=tmp_path, rule_ids=DATAFLOW).new
        assert [f.render() for f in first] == [f.render() for f in second]
        assert len(first) >= 3


class TestSummaryModel:
    def test_summary_json_roundtrip_is_exact(self):
        source = textwrap.dedent(
            """\
            import numpy as np
            from repro.units import GiB, HOUR

            def make_rng(seed=None):
                return np.random.default_rng(seed)

            def capacity_bytes():
                return 32 * GiB

            def run(duration_s, n_points):
                rng = make_rng(seed=7)
                total = capacity_bytes() * n_points
                return total / duration_s
            """
        )
        summary = extract_facts("repro/m.py", "repro.m", source).dataflow
        payload = summary.to_json()
        restored = FileSummary.from_json(payload)
        assert restored == summary
        assert restored.to_json() == payload

    def test_check_program_dedupes(self):
        source = textwrap.dedent(
            """\
            from repro.units import GiB

            def scale(capacity_bytes):
                return capacity_bytes / GiB
            """
        )
        caller = textwrap.dedent(
            """\
            from repro.m import scale
            from repro.units import HOUR

            def run(window_s):
                return scale(window_s)
            """
        )
        summaries = [
            extract_facts("repro/m.py", "repro.m", source).dataflow,
            extract_facts("repro/d.py", "repro.d", caller).dataflow,
        ]
        program = Program(summaries)
        findings = check_program(program)
        keys = [(f.rule_id, f.path, f.line, f.col, f.message) for f in findings]
        assert len(keys) == len(set(keys))
        assert [f.rule_id for f in findings] == ["RL012"]
