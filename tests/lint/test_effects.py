"""The effects layer (RL016-RL019): signature inference unit tests,
true-positive/true-negative fixture pairs per rule, the curated
known-impure corpus over the real tree, and CLI wiring."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main
from repro.lint.dataflow.linker import Program
from repro.lint.effects import EFFECTS_RULE_IDS
from repro.lint.effects.contracts import (
    declared_pure,
    declared_pure_functions,
    is_declared_pure,
)
from repro.lint.extract import classify_iter
from repro.lint.effects.infer import (
    EffectsProgram,
    infer_signatures,
)
from repro.lint.effects.model import ITER_DICT, ITER_SET, ITER_SORTED
from repro.lint.effects.report import build_report, hot_closure
from repro.lint.engine import analyze, read_entries
from repro.lint.facts import extract_facts, load_facts
from repro.lint.interproc import Linked
from repro.lint.output import render_json

REPO_ROOT = Path(__file__).resolve().parents[2]


def write(tmp_path: Path, relpath: str, source: str) -> Path:
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return target


def effects_findings(tmp_path, rule_id=None):
    """New findings from a full engine run, filtered to effects ids."""
    result = lint_paths([tmp_path], repo_root=tmp_path)
    wanted = {rule_id} if rule_id else set(EFFECTS_RULE_IDS)
    return [f for f in result.new if f.rule_id in wanted]


def infer(source, module="repro.m", path="repro/m.py"):
    """Signatures of a one-file fixture, via the real extract+link path."""
    facts = extract_facts(path, module, textwrap.dedent(source))
    program = Program([facts.dataflow])
    ep = EffectsProgram(program, [facts.effects])
    return infer_signatures(ep)


# ---------------------------------------------------------------------------
# Effect-signature inference
# ---------------------------------------------------------------------------
class TestSignatureInference:
    def test_pure_function(self):
        sigs = infer("def f(x):\n    return x + 1\n")
        assert sigs["repro.m.f"].pure

    def test_global_write_direct_and_inherited(self):
        sigs = infer(
            """\
            TOTALS = {}

            def record(x):
                TOTALS[x] = 1

            def caller(x):
                return record(x)
            """
        )
        assert sigs["repro.m.record"].writes_global
        caller = sigs["repro.m.caller"]
        assert caller.writes_global and not caller.pure
        assert caller.via["writes_global"] == "repro.m.record"

    def test_self_write_propagates_through_self_edge(self):
        sigs = infer(
            """\
            class C:
                def hit(self):
                    self.n = 1

                def touch(self):
                    self.hit()
            """
        )
        assert sigs["repro.m.C.hit"].writes_self
        assert sigs["repro.m.C.touch"].writes_self

    def test_constructor_edge_does_not_dirty_caller(self):
        sigs = infer(
            """\
            class K:
                def __init__(self):
                    self.x = 1

            def make():
                return K()
            """
        )
        assert sigs["repro.m.K.__init__"].writes_self
        assert sigs["repro.m.make"].pure

    def test_param_write_propagates_only_for_own_state(self):
        sigs = infer(
            """\
            def fill(d):
                d["k"] = 1

            def forwards(q):
                fill(q)

            def contains():
                local = {}
                fill(local)
                return local
            """
        )
        assert sigs["repro.m.fill"].writes_param
        assert sigs["repro.m.forwards"].writes_param
        # Mutating a fresh local through a callee is not an effect of
        # the caller: nothing the caller's caller can observe changed.
        assert sigs["repro.m.contains"].pure

    def test_rng_taint(self):
        sigs = infer(
            """\
            def draw(rng):
                return rng.random()

            def sample(rng):
                return draw(rng) * 2
            """
        )
        assert sigs["repro.m.draw"].rng
        assert sigs["repro.m.sample"].rng

    def test_io_taint(self):
        sigs = infer(
            """\
            def dump(path, text):
                path.write_text(text)

            def save(path):
                dump(path, "x")
            """
        )
        assert sigs["repro.m.dump"].io
        assert sigs["repro.m.save"].io

    def test_yields_is_direct_only(self):
        sigs = infer(
            """\
            def gen():
                yield 1

            def drain():
                return list(gen())
            """
        )
        assert sigs["repro.m.gen"].yields
        assert not sigs["repro.m.drain"].yields

    def test_recursion_terminates(self):
        sigs = infer(
            """\
            def r(n):
                if n == 0:
                    return 0
                return r(n - 1)
            """
        )
        assert sigs["repro.m.r"].pure

    def test_cycle_terminates_and_propagates(self):
        sigs = infer(
            """\
            STATE = {}

            def a(n):
                STATE["n"] = n
                return b(n)

            def b(n):
                if n == 0:
                    return 0
                return a(n - 1)
            """
        )
        assert sigs["repro.m.a"].writes_global
        assert sigs["repro.m.b"].writes_global

    def test_float_accum_shared_propagates(self):
        sigs = infer(
            """\
            class Stats:
                def charge(self, j):
                    self.energy_j += j

                def settle(self, j):
                    self.charge(j)
            """
        )
        assert sigs["repro.m.Stats.charge"].float_accum_shared
        assert sigs["repro.m.Stats.settle"].float_accum_shared


class TestClassifyIter:
    def cases(self, expr):
        import ast

        return classify_iter(ast.parse(expr, mode="eval").body)[0]

    def test_items_on_name(self):
        assert self.cases("d.items()") == ITER_DICT

    def test_items_on_call_receiver(self):
        # The receiver is itself a call — the merge_snapshots shape.
        assert self.cases("snap.get('c', {}).items()") == ITER_DICT

    def test_sorted_wrapping_items(self):
        assert self.cases("sorted(d.items())") == ITER_SORTED

    def test_set_literal(self):
        assert self.cases("{a, b}") == ITER_SET


class TestDeclaredPureMarker:
    def test_marker_and_registry(self):
        @declared_pure
        def f(x):
            return x

        assert is_declared_pure(f)
        name = f"{f.__module__}.{f.__qualname__}"
        assert name in declared_pure_functions()

    def test_reason_form_returns_function(self):
        @declared_pure(reason="closed-form")
        def g(x):
            return x

        assert is_declared_pure(g)
        assert g(3) == 3

    def test_static_extraction_sees_marker(self):
        summary = extract_facts(
            "repro/m.py",
            "repro.m",
            "from repro.lint.effects.contracts import declared_pure\n"
            "@declared_pure\n"
            "def f(x):\n    return x\n",
        ).effects
        (fn,) = [f for f in summary.functions if f.qualname.endswith(".f")]
        assert fn.declared_pure


# ---------------------------------------------------------------------------
# RL016 — order-sensitive float reductions
# ---------------------------------------------------------------------------
RL016_TP = """\
    def merge(snaps):
        totals = {}
        for snap in snaps:
            for key, value in snap.items():
                totals[key] = totals.get(key, 0.0) + value
        return totals
"""


class TestRL016:
    def test_dict_order_float_reduction_fires(self, tmp_path):
        write(tmp_path, "repro/sim/agg.py", RL016_TP)
        findings = effects_findings(tmp_path, "RL016")
        assert len(findings) == 1
        assert "dict-order" in findings[0].message

    def test_sorted_iteration_is_clean(self, tmp_path):
        write(
            tmp_path,
            "repro/sim/agg.py",
            RL016_TP.replace("snap.items()", "sorted(snap.items())"),
        )
        assert effects_findings(tmp_path, "RL016") == []

    def test_integer_tally_is_clean(self, tmp_path):
        write(
            tmp_path,
            "repro/sim/agg.py",
            """\
            def tally(snaps):
                counts = {}
                for snap in snaps:
                    for key in snap.items():
                        counts[key] = counts.get(key, 0) + 1
                return counts
            """,
        )
        assert effects_findings(tmp_path, "RL016") == []

    def test_interprocedural_accumulation_fires(self, tmp_path):
        write(
            tmp_path,
            "repro/sim/sched.py",
            """\
            class Manager:
                def __init__(self):
                    self.energy_j = 0.0
                    self.residents = {}

                def _charge(self, resident):
                    self.energy_j += resident.cost_j

                def tick(self):
                    for resident in self.residents.values():
                        self._charge(resident)
            """,
        )
        findings = effects_findings(tmp_path, "RL016")
        assert len(findings) == 1
        assert "self._charge" in findings[0].message
        assert "energy_j" in findings[0].message

    def test_scoped_to_determinism_critical_modules(self, tmp_path):
        # Same pattern outside the sim import closure: the engine stays
        # silent, but an ungated standalone run still sees it.
        write(tmp_path, "repro/reportutil.py", RL016_TP)
        assert effects_findings(tmp_path, "RL016") == []
        findings = analyze([tmp_path], repo_root=tmp_path).new
        assert [f for f in findings if f.rule_id == "RL016"]

    def test_suppression_pragma_applies(self, tmp_path):
        write(
            tmp_path,
            "repro/sim/agg.py",
            RL016_TP.replace(
                "totals[key] = totals.get(key, 0.0) + value",
                "totals[key] = totals.get(key, 0.0) + value"
                "  # repro-lint: disable=RL016",
            ),
        )
        result = lint_paths([tmp_path], repo_root=tmp_path)
        assert [f for f in result.new if f.rule_id == "RL016"] == []
        assert [f for f in result.suppressed if f.rule_id == "RL016"]


# ---------------------------------------------------------------------------
# RL017 — hidden effects behind @declared_pure
# ---------------------------------------------------------------------------
class TestRL017:
    def test_hidden_mutation_fires(self, tmp_path):
        write(
            tmp_path,
            "repro/model.py",
            """\
            from repro.lint.effects.contracts import declared_pure

            CACHE = {}

            def remember(x):
                CACHE[x] = True

            @declared_pure
            def lookup(x):
                remember(x)
                return x
            """,
        )
        findings = effects_findings(tmp_path, "RL017")
        assert len(findings) == 1
        assert "@declared_pure" in findings[0].message
        assert "remember" in findings[0].message

    def test_hidden_rng_fires(self, tmp_path):
        write(
            tmp_path,
            "repro/model.py",
            """\
            from repro.lint.effects.contracts import declared_pure

            @declared_pure
            def jitter(rng, x):
                return x + rng.random()
            """,
        )
        findings = effects_findings(tmp_path, "RL017")
        assert len(findings) == 1
        assert "RNG" in findings[0].message

    def test_actually_pure_function_is_clean(self, tmp_path):
        write(
            tmp_path,
            "repro/model.py",
            """\
            from repro.lint.effects.contracts import declared_pure

            @declared_pure
            def scale(x, k):
                return x * k
            """,
        )
        assert effects_findings(tmp_path, "RL017") == []


# ---------------------------------------------------------------------------
# RL018 — shared-mutable-default hazards
# ---------------------------------------------------------------------------
class TestRL018:
    def test_sim_process_mutable_default_fires(self, tmp_path):
        write(
            tmp_path,
            "repro/sim/procs.py",
            """\
            def worker(sim, trace=[]):
                trace.append(sim)
                yield Timeout(1.0)
            """,
        )
        findings = effects_findings(tmp_path, "RL018")
        assert len(findings) == 1
        assert "sim process" in findings[0].message

    def test_mutated_default_fires_outside_processes(self, tmp_path):
        write(
            tmp_path,
            "repro/util.py",
            """\
            def collect(x, acc={}):
                acc[x] = True
                return acc
            """,
        )
        findings = effects_findings(tmp_path, "RL018")
        assert len(findings) == 1
        assert "mutable default" in findings[0].message

    def test_unmutated_default_is_clean(self, tmp_path):
        write(
            tmp_path,
            "repro/util.py",
            """\
            def render(x, labels=()):
                return [x, *labels]
            """,
        )
        assert effects_findings(tmp_path, "RL018") == []


# ---------------------------------------------------------------------------
# RL019 — vectorization blockers on the hot path
# ---------------------------------------------------------------------------
CLOSURE_SRC = """\
    def dispatch(events):
        out = []
        for event in events:
            out.append(lambda: event.fire())
        return out
"""


class TestRL019:
    def test_hot_path_closure_warns(self, tmp_path):
        write(tmp_path, "repro/sim/kernel.py", CLOSURE_SRC)
        findings = effects_findings(tmp_path, "RL019")
        assert len(findings) == 1
        assert findings[0].severity.value == "warning"
        assert "closure" in findings[0].message

    def test_cold_path_closure_is_silent(self, tmp_path):
        write(tmp_path, "repro/analysis.py", CLOSURE_SRC)
        assert effects_findings(tmp_path, "RL019") == []


# ---------------------------------------------------------------------------
# The kernel-readiness report over the real tree
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def real_tree(tree_analysis):
    """(findings, report) of the ungated standalone run over the tree."""
    cold = tree_analysis.cold
    return cold.new, cold.effects_report


@pytest.fixture(scope="module")
def real_sigs(tree_analysis):
    """Whole-program signatures for the real tree (all functions, not
    just the hot closure), linked from the session's warm facts."""
    entries = read_entries([REPO_ROOT / "src" / "repro"], REPO_ROOT)
    facts, _ = load_facts(entries, tree_analysis.cache_dir)
    return Linked(facts, entries).signatures


class TestRealTreeReport:
    #: Functions that unquestionably have effects; the day inference
    #: calls one of these pure, the layer is broken.
    KNOWN_IMPURE = [
        "repro.sim.stats.Counter.add",
        "repro.sim.stats.Histogram.observe",
        "repro.sim.stats.TimeWeightedValue.set",
        "repro.sim.events.EventQueue.push",
        "repro.sim.kernel.Simulator.schedule",
        "repro.tiering.scheduler.TierManager._migrate",
        "repro.tiering.scheduler.TierManager.tick",
        "repro.obs.registry.ObsCounter.add",
    ]

    def test_known_impure_never_classified_pure(self, real_sigs):
        for qualname in self.KNOWN_IMPURE:
            assert qualname in real_sigs, f"{qualname} not analyzed"
            assert not real_sigs[qualname].pure, qualname

    def test_report_covers_kernel_event_loop(self, real_tree):
        _, report = real_tree
        names = {e["qualname"] for e in report["hot_functions"]}
        # The event loop itself and what it reaches through dispatch.
        assert "repro.sim.kernel.Simulator.run" in names
        assert "repro.sim.process.Process._step" in names
        assert "repro.sim.events.EventQueue.pop" in names
        assert "repro.sim.events.EventQueue.push" in names

    def test_report_is_ranked_and_summarized(self, real_tree, tree_lint):
        _, report = real_tree
        stats = json.loads(render_json(tree_lint))["effects"]
        counts = [e["blocker_count"] for e in report["hot_functions"]]
        assert all(
            counts[i] >= counts[i + 1] for i in range(len(counts) - 1)
        )
        summary = report["summary"]
        assert summary["hot_functions"] == len(report["hot_functions"])
        assert summary["hot_functions"] == stats["hot_functions"]
        # No blockers at all implies pure (the converse does not hold:
        # a pure generator still carries a ``yields`` blocker).
        for entry in report["hot_functions"]:
            if entry["blocker_count"] == 0:
                assert entry["pure"], entry["qualname"]

    def test_report_is_deterministic(self, real_tree, tree_lint):
        # Two independent cold runs: the standalone analysis and the
        # engine's full lint.
        _, first = real_tree
        assert first == tree_lint.effects_report

    def test_repo_lints_clean_of_new_effects_findings(self, real_tree):
        findings, _ = real_tree
        # RL019 hits are baselined with justifications; RL016-18 must
        # be fixed at source (acceptance criterion).
        errors = [f for f in findings if f.rule_id in ("RL016", "RL017", "RL018")]
        assert errors == []


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------
class TestEffectsCLI:
    def test_select_effects_rule_only(self, tmp_path, monkeypatch):
        write(tmp_path, "repro/sim/agg.py", RL016_TP)
        monkeypatch.chdir(tmp_path)
        assert main(["--select", "RL016", str(tmp_path)]) == EXIT_FINDINGS

    def test_no_effects_skips_the_pass(self, tmp_path, monkeypatch, capsys):
        write(tmp_path, "repro/sim/agg.py", RL016_TP)
        monkeypatch.chdir(tmp_path)
        assert main(["--no-effects", str(tmp_path)]) == EXIT_CLEAN
        assert "effects:" not in capsys.readouterr().out

    def test_unknown_effects_rule_id_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["--select", "RL099", str(tmp_path)]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_effects_report_written(self, tmp_path, monkeypatch):
        write(tmp_path, "repro/sim/kernel.py", CLOSURE_SRC)
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "report.json"
        main(["--effects-report", str(out), str(tmp_path)])
        report = json.loads(out.read_text())
        assert report["schema"].startswith("repro-lint-effects/")
        assert any(
            e["qualname"].endswith(".dispatch") for e in report["hot_functions"]
        )

    def test_effects_report_missing_parent_exits_two(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "no" / "such" / "dir" / "report.json"
        assert main(["--effects-report", str(bad), str(tmp_path)]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_effects_report_onto_directory_exits_two(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "adir"
        target.mkdir()
        assert main(["--effects-report", str(target), str(tmp_path)]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_effects_report_with_no_effects_exits_two(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "report.json"
        assert (
            main(["--no-effects", "--effects-report", str(out), str(tmp_path)])
            == EXIT_USAGE
        )
        assert "error:" in capsys.readouterr().err

    def test_list_rules_includes_effects_ids(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in EFFECTS_RULE_IDS:
            assert rule_id in out

    def test_json_output_has_effects_block(self, tmp_path, monkeypatch, capsys):
        write(tmp_path, "repro/m.py", "x = 1\n")
        monkeypatch.chdir(tmp_path)
        assert main(["--format", "json", str(tmp_path)]) == EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        assert payload["effects"]["files"] == 1
        assert "hot_functions" in payload["effects"]
