"""The races layer (RL021-RL025): access extraction unit tests, the
may-co-schedule relation (timer chains, fan-out, zero-delay
inheritance), true-positive/true-negative fixture pairs per rule, the
runtime cohort sanitizer, and CLI wiring."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main
from repro.lint.dataflow.linker import Program
from repro.lint.effects.infer import EffectsProgram, infer_signatures
from repro.lint.engine import analyze
from repro.lint.facts import extract_facts
from repro.lint.races import RACES_RULE_IDS
from repro.lint.races import sanitizer as sanitizer_mod
from repro.lint.races.hb import RacesProgram
from repro.lint.races.model import (
    COMM_EXTREMUM,
    COMM_INT_ACCUM,
    COMM_SET,
    ORDERED_FLOAT,
    ORDERED_SEQ,
    ORDERED_STORE,
    USE_CONTROL,
    USE_ITERATION,
    USE_METRIC,
)
from repro.lint.races.report import build_report
from repro.lint.races.rules import check_races, races_catalog
from repro.lint.races.sanitizer import CohortSanitizer, get_sanitizer
from repro.sim import Simulator, Timeout

REPO_ROOT = Path(__file__).resolve().parents[2]


def write(tmp_path: Path, relpath: str, source: str) -> Path:
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return target


def races_findings(tmp_path, rule_id=None):
    """New findings from a full engine run, filtered to races ids."""
    result = lint_paths([tmp_path], repo_root=tmp_path)
    wanted = {rule_id} if rule_id else set(RACES_RULE_IDS)
    return [f for f in result.new if f.rule_id in wanted]


def build(source, module="repro.sim.scen", path="repro/sim/scen.py"):
    """(RacesProgram, effect signatures) of a one-file fixture, via
    the real extract+link path."""
    facts = extract_facts(path, module, textwrap.dedent(source))
    program = Program([facts.dataflow])
    races_program = RacesProgram(program, [facts.races])
    sigs = infer_signatures(EffectsProgram(program, [facts.effects]))
    return races_program, sigs


def summarize(source, module="repro.sim.scen", path="repro/sim/scen.py"):
    return extract_facts(path, module, textwrap.dedent(source)).races


def fn_of(summary, name):
    for fn in summary.functions:
        if fn.qualname.endswith(name):
            return fn
    raise AssertionError(f"no function {name!r} in {summary.path}")


def pair_map(races_program):
    return {(p.a, p.b): p for p in races_program.may_co_schedule()}


# ---------------------------------------------------------------------------
# Access extraction
# ---------------------------------------------------------------------------
class TestExtraction:
    def test_yield_segmentation(self):
        fn = fn_of(
            summarize(
                """\
                TOTALS = {}

                def run(sim):
                    TOTALS["before"] = 1
                    yield Timeout(1.0)
                    TOTALS["after"] = 1
                """
            ),
            ".run",
        )
        assert fn.has_yield and fn.segments == 2
        segments = {a.target: a.segment for a in fn.accesses if a.write}
        assert segments["TOTALS['before']"] == 0
        assert segments["TOTALS['after']"] == 1

    def test_sim_process_detection(self):
        summary = summarize(
            """\
            def proc(sim):
                yield Timeout(1.0)

            def plain_gen():
                yield 1
            """
        )
        assert fn_of(summary, ".proc").is_sim_process
        gen = fn_of(summary, ".plain_gen")
        assert gen.has_yield and not gen.is_sim_process

    def test_commutativity_classification(self):
        summary = summarize(
            """\
            COUNTS = {}
            SEEN = set()
            LOG = []
            PEAK = 0
            TOTAL = 0.0

            def handle(evt):
                global PEAK, TOTAL
                COUNTS[evt] = COUNTS.get(evt, 0) + 1
                SEEN.add(evt)
                LOG.append(evt)
                PEAK = max(PEAK, evt)
                TOTAL += 0.5
            """
        )
        fn = fn_of(summary, ".handle")
        by_root = {a.root: a for a in fn.accesses if a.write}
        assert by_root["COUNTS"].commutes
        assert by_root["COUNTS"].comm_reason == COMM_INT_ACCUM
        assert by_root["SEEN"].comm_reason == COMM_SET
        assert not by_root["LOG"].commutes
        assert by_root["LOG"].comm_reason == ORDERED_SEQ
        assert by_root["PEAK"].comm_reason == COMM_EXTREMUM
        assert by_root["TOTAL"].comm_reason == ORDERED_FLOAT

    def test_plain_store_tags_arg_dependence(self):
        summary = summarize(
            """\
            class Engine:
                def _restart(self):
                    self.up = True

                def _assign(self, request):
                    self.current = request
            """
        )
        restart = fn_of(summary, "._restart")
        assign = fn_of(summary, "._assign")
        store = next(a for a in restart.accesses if a.write)
        arg_store = next(a for a in assign.accesses if a.write)
        assert store.comm_reason == ORDERED_STORE and store.via == "assign"
        assert arg_store.via == "assign:arg"

    def test_read_use_classes(self):
        summary = summarize(
            """\
            PENDING = []
            TABLE = {}

            class H:
                def check(self, stats):
                    if PENDING:
                        stats.observe(len(PENDING))
                    for key in TABLE.keys():
                        pass
                    for key in sorted(TABLE):
                        pass
            """
        )
        fn = fn_of(summary, ".check")
        reads = [a for a in fn.accesses if not a.write]
        uses = {(a.root, a.use) for a in reads}
        assert ("PENDING", USE_CONTROL) in uses
        assert ("PENDING", USE_METRIC) in uses
        assert ("TABLE", USE_ITERATION) in uses
        # Sorted iteration never observes container order.
        iters = [a for a in reads if a.use == USE_ITERATION]
        assert len(iters) == 1

    def test_registration_receiver_gate(self):
        # numpy's SeedSequence.spawn must not read as a sim spawn.
        summary = summarize(
            """\
            def seeds(root):
                children = root.spawn(2)
                return children

            def drive(sim):
                sim.spawn(worker(sim))

            def worker(sim):
                yield Timeout(1.0)
            """
        )
        assert fn_of(summary, ".seeds").registrations == []
        regs = fn_of(summary, ".drive").registrations
        assert [r.op for r in regs] == ["spawn"]

    def test_timeout_self_registration(self):
        fn = fn_of(
            summarize(
                """\
                def poll(sim):
                    while True:
                        yield Timeout(2.0)
                """
            ),
            ".poll",
        )
        (reg,) = fn.registrations
        assert reg.op == "timeout"
        assert reg.delay_class == "const:2.0"
        assert not reg.in_loop  # while-loops are not fan-out sites


# ---------------------------------------------------------------------------
# The may-co-schedule relation
# ---------------------------------------------------------------------------
class TestMayCoSchedule:
    def test_timer_coincidence_between_periodic_processes(self):
        races_program, _ = build(
            """\
            def poll(sim):
                while True:
                    yield Timeout(2.0)

            def scrub(sim):
                while True:
                    yield Timeout(3.0)
            """
        )
        pairs = pair_map(races_program)
        pair = pairs[("repro.sim.scen.poll", "repro.sim.scen.scrub")]
        assert pair.evidence == "timer-coincidence" and not pair.strong

    def test_fan_out_is_strong_self_evidence(self):
        races_program, _ = build(
            """\
            def start(sim, jobs):
                for job in jobs:
                    sim.spawn(_drain(sim, job))

            def _drain(sim, job):
                yield Timeout(1.0)
            """
        )
        pair = pair_map(races_program)[
            ("repro.sim.scen._drain", "repro.sim.scen._drain")
        ]
        assert pair.strong and pair.evidence.startswith("fan-out")

    def test_timeout_in_loop_is_not_fan_out(self):
        # A `yield Timeout` inside a for-loop suspends the generator
        # until each timer fires: strictly sequential, no self-pair.
        races_program, _ = build(
            """\
            def replay(sim, delays):
                for delay in delays:
                    yield Timeout(delay)
            """
        )
        assert ("repro.sim.scen.replay", "repro.sim.scen.replay") not in (
            pair_map(races_program)
        )

    def test_multi_instance_for_plain_callbacks_only(self):
        races_program, _ = build(
            """\
            LOG = []

            def arm(sim):
                sim.schedule(1.0, fire)
                sim.spawn(tick(sim))

            def fire():
                LOG.append(1)

            def tick(sim):
                yield Timeout(1.0)
            """
        )
        pairs = pair_map(races_program)
        fire = ("repro.sim.scen.fire", "repro.sim.scen.fire")
        assert pairs[fire].evidence == "multi-instance"
        # Generators are exempt: the kernel's wait-generation guard
        # allows one pending wakeup per process.
        assert ("repro.sim.scen.tick", "repro.sim.scen.tick") not in pairs

    def test_module_level_registration_is_not_multi_instance(self):
        races_program, _ = build(
            """\
            LOG = []

            def fire():
                LOG.append(1)

            sim.schedule(1.0, fire)
            """
        )
        assert ("repro.sim.scen.fire", "repro.sim.scen.fire") not in (
            pair_map(races_program)
        )

    def test_same_delay_distinct_targets(self):
        races_program, _ = build(
            """\
            class Driver:
                def __init__(self, sim):
                    self.sim = sim

                def start(self):
                    self.sim.schedule(1.0, self._flush)
                    self.sim.schedule(1.0, self._rotate)

                def _flush(self):
                    pass

                def _rotate(self):
                    pass
            """
        )
        pair = pair_map(races_program)[
            (
                "repro.sim.scen.Driver._flush",
                "repro.sim.scen.Driver._rotate",
            )
        ]
        assert pair.evidence == "same-delay:const:1.0"

    def test_same_delay_self_skips_generators(self):
        # Two sites arming the same generator are serial within one
        # instance; a plain callback re-armed twice is not.
        races_program, _ = build(
            """\
            def boot(sim):
                sim.schedule(5.0, run)
                sim.schedule(5.0, run)
                sim.schedule(5.0, ping)
                sim.schedule(5.0, ping)

            def run(sim):
                yield Timeout(1.0)

            def ping():
                pass
            """
        )
        pairs = pair_map(races_program)
        assert ("repro.sim.scen.run", "repro.sim.scen.run") not in pairs
        assert ("repro.sim.scen.ping", "repro.sim.scen.ping") in pairs

    def test_zero_delay_inheritance(self):
        # Domain fan-out shape: _strike is strongly self-paired, and
        # zero-delay spawns _repair, which inherits the concurrency.
        races_program, _ = build(
            """\
            def start(sim, domains):
                for domain in domains:
                    sim.spawn(_strike(sim, domain))

            def _strike(sim, domain):
                yield Timeout(1.0)
                sim.spawn(_repair(domain))

            def _repair(domain):
                yield Timeout(2.0)
            """
        )
        pairs = pair_map(races_program)
        inherited = pairs[
            ("repro.sim.scen._repair", "repro.sim.scen._strike")
        ]
        assert inherited.strong
        assert inherited.evidence.startswith("zero-delay<")


# ---------------------------------------------------------------------------
# RL021 — write-write cohort conflicts
# ---------------------------------------------------------------------------
RL021_TP = """\
LOG = []

class Driver:
    def __init__(self, sim):
        self.sim = sim

    def start(self):
        self.sim.schedule(1.0, self._flush)
        self.sim.schedule(1.0, self._rotate)

    def _flush(self):
        LOG.append("flush")

    def _rotate(self):
        LOG.append("rotate")
"""


class TestRL021:
    def test_conflicting_seq_writes_fire(self, tmp_path):
        write(tmp_path, "repro/sim/scen.py", RL021_TP)
        findings = races_findings(tmp_path, "RL021")
        assert findings
        assert any("LOG" in f.message for f in findings)

    def test_commuting_writes_stay_silent(self, tmp_path):
        write(
            tmp_path,
            "repro/sim/scen.py",
            RL021_TP.replace("LOG = []", "LOG = set()").replace(
                ".append(", ".add("
            ),
        )
        assert races_findings(tmp_path, "RL021") == []

    def test_dict_insert_needs_an_order_observer(self, tmp_path):
        # Pure key insertion only diverges in iteration order; with no
        # non-canonical iteration the divergence is unobservable.
        unobserved = textwrap.dedent(
            """\
            TABLE = {}

            class Driver:
                def __init__(self, sim):
                    self.sim = sim

                def start(self):
                    self.sim.schedule(1.0, self._a)
                    self.sim.schedule(1.0, self._b)

                def _a(self):
                    TABLE["a"] = 1

                def _b(self):
                    TABLE["b"] = 1
            """
        )
        write(tmp_path, "repro/sim/scen.py", unobserved)
        assert races_findings(tmp_path, "RL021") == []
        observed = unobserved + (
            "\n"
            "    def dump(self, out):\n"
            "        for key in TABLE.keys():\n"
            "            out.append(key)\n"
        )
        write(tmp_path, "repro/sim/scen.py", observed)
        assert races_findings(tmp_path, "RL021")

    def test_suppression_pragma_applies(self, tmp_path):
        # RL024_TP produces exactly one finding, anchored at the
        # accumulation line — suppress it there.
        write(
            tmp_path,
            "repro/sim/scen.py",
            RL024_TP.replace(
                "TOTAL += 0.5",
                "TOTAL += 0.5  # repro-lint: disable=RL024",
            ),
        )
        result = lint_paths([tmp_path], repo_root=tmp_path)
        assert [f for f in result.new if f.rule_id in RACES_RULE_IDS] == []
        assert [f for f in result.suppressed if f.rule_id == "RL024"]


# ---------------------------------------------------------------------------
# RL022 — read-write conflicts feeding control flow / metrics
# ---------------------------------------------------------------------------
RL022_TP = """\
PENDING = []

def start(sim, jobs):
    for job in jobs:
        sim.spawn(_drain(sim, job))

def _drain(sim, job):
    yield Timeout(1.0)
    if PENDING:
        PENDING.pop()
"""


class TestRL022:
    def test_control_read_vs_coscheduled_write(self, tmp_path):
        write(tmp_path, "repro/sim/scen.py", RL022_TP)
        findings = races_findings(tmp_path, "RL022")
        assert findings
        assert "control-flow" in findings[0].message

    def test_weak_evidence_stays_silent(self, tmp_path):
        # Same-delay siblings are weak evidence; RL022 requires a
        # pinned coincidence mechanism.
        write(
            tmp_path,
            "repro/sim/scen.py",
            """\
            LOG = []

            class Driver:
                def __init__(self, sim):
                    self.sim = sim

                def start(self):
                    self.sim.schedule(1.0, self._check)
                    self.sim.schedule(1.0, self._rotate)

                def _check(self):
                    if LOG:
                        return True
                    return False

                def _rotate(self):
                    LOG.append("x")
            """,
        )
        assert races_findings(tmp_path, "RL022") == []

    def test_metric_read_with_commuting_write_stays_silent(self, tmp_path):
        # The recorded total is the same either way when the
        # co-scheduled write commutes.
        write(
            tmp_path,
            "repro/sim/scen.py",
            RL022_TP.replace("PENDING = []", "PENDING = set()")
            .replace("if PENDING:\n        PENDING.pop()",
                     "stats.observe(len(PENDING))")
            .replace("def _drain(sim, job):",
                     "def _drain(sim, job, stats=None):")
            + "\ndef _mark(sim, job):\n"
            "    yield Timeout(1.0)\n"
            "    PENDING.add(job)\n",
        )
        assert races_findings(tmp_path, "RL022") == []

    @pytest.mark.parametrize(
        "source",
        [
            """\
            PEAK = 0

            def start(sim, jobs):
                for job in jobs:
                    sim.spawn(_track(sim, job))

            def _track(sim, job):
                global PEAK
                yield Timeout(1.0)
                if job.size > PEAK:
                    PEAK = job.size
            """,
            """\
            class Tracker:
                def __init__(self, sim):
                    self.sim = sim
                    self.peak = 0

                def start(self, jobs):
                    for job in jobs:
                        self.sim.spawn(self._track(job))

                def _track(self, job):
                    yield Timeout(1.0)
                    if job.size > self.peak:
                        self.peak = job.size
            """,
        ],
        ids=["global", "self"],
    )
    def test_extremum_fold_guard_is_not_a_control_read(self, tmp_path, source):
        # ``if v > x: x = v`` is a max-fold: its guard read is part of
        # the commuting fold, not a control-flow read of shared state.
        write(tmp_path, "repro/sim/scen.py", source)
        assert races_findings(tmp_path, "RL022") == []


# ---------------------------------------------------------------------------
# RL023 — same-instant registrations without an ordering key
# ---------------------------------------------------------------------------
RL023_TP = """\
REGISTRY = {}
LOG = []

def kick(sim):
    for name in REGISTRY.keys():
        sim.spawn(_strike(sim, name))

def _strike(sim, name):
    yield Timeout(1.0)
    LOG.append(name)
"""


class TestRL023:
    def test_dict_order_fan_out_fires(self, tmp_path):
        write(tmp_path, "repro/sim/scen.py", RL023_TP)
        findings = races_findings(tmp_path, "RL023")
        assert findings
        assert "iteration order" in findings[0].message

    def test_sorted_fan_out_stays_silent(self, tmp_path):
        write(
            tmp_path,
            "repro/sim/scen.py",
            RL023_TP.replace("REGISTRY.keys()", "sorted(REGISTRY)"),
        )
        assert races_findings(tmp_path, "RL023") == []

    def test_same_delay_siblings_with_conflict_fire(self, tmp_path):
        write(tmp_path, "repro/sim/scen.py", RL021_TP)
        findings = races_findings(tmp_path, "RL023")
        assert findings
        assert "_flush" in findings[0].message
        assert "_rotate" in findings[0].message

    def test_same_delay_siblings_without_conflict_stay_silent(
        self, tmp_path
    ):
        write(
            tmp_path,
            "repro/sim/scen.py",
            RL021_TP.replace("LOG = []", "LOG = set()").replace(
                ".append(", ".add("
            ),
        )
        assert races_findings(tmp_path, "RL023") == []


# ---------------------------------------------------------------------------
# RL024 — non-commutative float accumulation
# ---------------------------------------------------------------------------
RL024_TP = """\
TOTAL = 0.0

def start(sim, jobs):
    for job in jobs:
        sim.spawn(_bill(sim, job))

def _bill(sim, job):
    yield Timeout(1.0)
    global TOTAL
    TOTAL += 0.5
"""


class TestRL024:
    def test_float_accumulation_fires(self, tmp_path):
        write(tmp_path, "repro/sim/scen.py", RL024_TP)
        findings = races_findings(tmp_path, "RL024")
        assert findings
        assert "float" in findings[0].message
        # The float carve-out belongs to RL024, not RL021.
        assert races_findings(tmp_path, "RL021") == []

    def test_integer_accumulation_stays_silent(self, tmp_path):
        write(
            tmp_path,
            "repro/sim/scen.py",
            RL024_TP.replace("TOTAL = 0.0", "TOTAL = 0").replace(
                "TOTAL += 0.5", "TOTAL += 1"
            ),
        )
        assert races_findings(tmp_path) == []

    def test_through_call_accumulation_fires(self, tmp_path):
        write(
            tmp_path,
            "repro/sim/scen.py",
            """\
            class Meter:
                def __init__(self, sim):
                    self.sim = sim
                    self.total = 0.0

                def start(self):
                    self.sim.schedule(1.0, self._tick)

                def _tick(self):
                    self._bump()

                def _bump(self):
                    self.total += 0.5
            """,
        )
        findings = races_findings(tmp_path, "RL024")
        assert findings
        assert any("call chain" in f.message for f in findings)


# ---------------------------------------------------------------------------
# RL025 — runtime-only; the static pass never fires it
# ---------------------------------------------------------------------------
class TestRL025Static:
    def test_static_pass_never_fires_rl025(self):
        races_program, sigs = build(RL021_TP)
        findings = check_races(races_program, sigs)
        assert findings  # RL021/RL023 fire...
        assert all(f.rule_id != "RL025" for f in findings)

    def test_catalog_and_registry_know_all_ids(self):
        catalog = races_catalog()
        assert set(catalog) == set(RACES_RULE_IDS)
        from repro.lint.rules import all_rule_ids, rule_catalog

        assert set(RACES_RULE_IDS) <= all_rule_ids()
        assert set(RACES_RULE_IDS) <= set(rule_catalog())


# ---------------------------------------------------------------------------
# The runtime cohort sanitizer
# ---------------------------------------------------------------------------
def _fake_generator(path="src/repro/fake/mod.py", name="g", line=1):
    """A live generator whose code object claims a src/repro path."""
    source = "\n" * (line - 1) + f"def {name}():\n    yield 1\n"
    namespace = {}
    exec(compile(source, path, "exec"), namespace)
    return namespace[name]()


class _Proc:
    def __init__(self, generator):
        self.generator = generator


class _Event:
    def __init__(self, callbacks):
        self.callbacks = callbacks


class TestSanitizer:
    def test_known_generator_is_not_an_escape(self):
        model = {
            "processes": [
                {"qualname": "repro.fake.mod.g",
                 "path": "src/repro/fake/mod.py", "line": 1}
            ]
        }
        sanitizer = CohortSanitizer(model=model)
        payloads = [
            (0, _Proc(_fake_generator())),
            (0, _Proc(_fake_generator())),
        ]
        sanitizer.observe_cohort(1.0, payloads)
        assert sanitizer.multi_cohorts == 1
        assert sanitizer.generators_seen == 2
        assert sanitizer.escape_count == 0
        assert sanitizer.findings() == []

    def test_unknown_generator_escapes(self):
        sanitizer = CohortSanitizer(model={"processes": []})
        sanitizer.observe_cohort(
            2.0,
            [(0, _Proc(_fake_generator())), (0, _Proc(_fake_generator()))],
        )
        assert sanitizer.escape_count == 2
        (finding,) = sanitizer.findings()  # distinct generators dedup
        assert finding["rule_id"] == "RL025"
        assert finding["path"] == "src/repro/fake/mod.py"

    def test_name_fallback_matches_moved_lines(self):
        # The committed model may be a few lines stale; (path, name)
        # still identifies the generator.
        model = {
            "processes": [
                {"qualname": "repro.fake.mod.g",
                 "path": "src/repro/fake/mod.py", "line": 999}
            ]
        }
        sanitizer = CohortSanitizer(model=model)
        sanitizer.observe_cohort(1.0, [(0, _Proc(_fake_generator()))] * 2)
        assert sanitizer.escape_count == 0

    def test_foreign_generators_are_ignored(self):
        def local():
            yield 1

        sanitizer = CohortSanitizer(model={"processes": []})
        sanitizer.observe_cohort(
            1.0, [(0, _Proc(local())), (0, _Proc(local()))]
        )
        assert sanitizer.generators_seen == 0
        assert sanitizer.escape_count == 0

    def test_grant_payloads_carry_the_process_at_index_two(self):
        model = {
            "processes": [
                {"qualname": "repro.fake.mod.g",
                 "path": "src/repro/fake/mod.py", "line": 1}
            ]
        }
        sanitizer = CohortSanitizer(model=model)
        resource = object()  # no .generator attribute
        sanitizer.observe_cohort(
            1.0,
            [
                ("grant", resource, _Proc(_fake_generator()), 3),
                (0, _Proc(_fake_generator())),
            ],
        )
        assert sanitizer.generators_seen == 2
        assert sanitizer.escape_count == 0

    def test_event_payloads_walk_callbacks(self):
        sanitizer = CohortSanitizer(model={"processes": []})
        event = _Event([(_Proc(_fake_generator()), 7)])
        sanitizer.observe_cohort(1.0, [event, (0, _Proc(_fake_generator()))])
        assert sanitizer.generators_seen == 2

    def test_pair_counts_accumulate(self):
        model = {
            "processes": [
                {"qualname": "repro.fake.mod.a",
                 "path": "src/repro/fake/mod.py", "line": 1},
                {"qualname": "repro.fake.mod.b",
                 "path": "src/repro/fake/mod.py", "line": 5},
            ]
        }
        sanitizer = CohortSanitizer(model=model)
        for _ in range(3):
            sanitizer.observe_cohort(
                1.0,
                [
                    (0, _Proc(_fake_generator(name="a", line=1))),
                    (0, _Proc(_fake_generator(name="b", line=5))),
                ],
            )
        (top,) = sanitizer.summary()["top_pairs"]
        assert top["count"] == 3
        assert top["a"].endswith(":a") and top["b"].endswith(":b")

    def test_get_sanitizer_is_env_gated(self, monkeypatch, tmp_path):
        monkeypatch.setattr(sanitizer_mod, "_instance", None)
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert get_sanitizer() is None
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"processes": []}))
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setenv("REPRO_SANITIZE_MODEL", str(model))
        sanitizer = get_sanitizer()
        assert sanitizer is not None and sanitizer.model_loaded
        assert get_sanitizer() is sanitizer  # shared instance
        monkeypatch.setattr(sanitizer_mod, "_instance", None)

    def test_kernel_wiring_observes_cohorts(self, monkeypatch, tmp_path):
        monkeypatch.setattr(sanitizer_mod, "_instance", None)
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"processes": []}))
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setenv("REPRO_SANITIZE_MODEL", str(model))

        def proc(delay):
            yield Timeout(delay)
            yield Timeout(delay)

        sim = Simulator()
        sim.spawn(proc(1.0))
        sim.spawn(proc(1.0))
        sim.run()
        sanitizer = get_sanitizer()
        assert sanitizer is not None
        assert sanitizer.multi_cohorts >= 2
        # Test-defined generators are foreign: never escapes.
        assert sanitizer.escape_count == 0
        monkeypatch.setattr(sanitizer_mod, "_instance", None)

    def test_kernel_disabled_path_binds_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert Simulator()._sanitizer is None


# ---------------------------------------------------------------------------
# The cohort-conflict report
# ---------------------------------------------------------------------------
class TestReport:
    def test_report_shape_and_hot_spots(self):
        races_program, _ = build(RL021_TP)
        report = build_report(races_program)
        assert report["schema"].startswith("repro-lint-races/")
        assert report["summary"]["members"] == len(report["members"])
        assert report["summary"]["pairs"] == len(report["pairs"])
        (spot,) = [
            s for s in report["hot_conflicts"] if "LOG" in s["key"]
        ]
        assert spot["collisions"] >= 1 and spot["sites"]

    def test_generator_inventory_lists_processes(self):
        races_program, _ = build(RL024_TP)
        report = build_report(races_program)
        names = {p["qualname"] for p in report["processes"]}
        assert "repro.sim.scen._bill" in names
        assert all(p["line"] > 0 for p in report["processes"])


# ---------------------------------------------------------------------------
# Scope and CLI wiring
# ---------------------------------------------------------------------------
class TestScopeAndCLI:
    def test_scoped_to_determinism_critical_modules(self, tmp_path):
        # Same pattern outside the sim import closure: the engine stays
        # silent, but an ungated standalone run still sees it.
        write(tmp_path, "repro/reportutil.py", RL021_TP)
        assert races_findings(tmp_path, "RL021") == []
        findings = analyze([tmp_path], repo_root=tmp_path).new
        assert [f for f in findings if f.rule_id == "RL021"]

    def test_select_races_rule_only(self, tmp_path, monkeypatch):
        write(tmp_path, "repro/sim/scen.py", RL021_TP)
        monkeypatch.chdir(tmp_path)
        assert main(["--select", "RL021", str(tmp_path)]) == EXIT_FINDINGS

    def test_no_races_skips_the_pass(self, tmp_path, monkeypatch, capsys):
        write(tmp_path, "repro/sim/scen.py", RL021_TP)
        monkeypatch.chdir(tmp_path)
        assert main(["--no-races", str(tmp_path)]) == EXIT_CLEAN
        assert "races:" not in capsys.readouterr().out

    def test_races_report_written(self, tmp_path, monkeypatch):
        write(tmp_path, "repro/sim/scen.py", RL024_TP)
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "report.json"
        main(["--races-report", str(out), str(tmp_path)])
        report = json.loads(out.read_text())
        assert report["schema"].startswith("repro-lint-races/")
        assert any(
            p["qualname"].endswith("._bill") for p in report["processes"]
        )

    def test_races_report_with_no_races_exits_two(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "report.json"
        assert (
            main(["--no-races", "--races-report", str(out), str(tmp_path)])
            == EXIT_USAGE
        )
        assert "error:" in capsys.readouterr().err

    def test_list_rules_includes_races_ids(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in RACES_RULE_IDS:
            assert rule_id in out

    def test_json_output_has_races_block(self, tmp_path, monkeypatch, capsys):
        write(tmp_path, "repro/m.py", "x = 1\n")
        monkeypatch.chdir(tmp_path)
        assert main(["--format", "json", str(tmp_path)]) == EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        assert payload["races"]["files"] == 1
        assert "pairs" in payload["races"]

    def test_sarif_driver_lists_races_rules(self, tmp_path, monkeypatch, capsys):
        write(tmp_path, "repro/m.py", "x = 1\n")
        monkeypatch.chdir(tmp_path)
        assert main(["--format", "sarif", str(tmp_path)]) == EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        rules = {
            r["id"]
            for r in payload["runs"][0]["tool"]["driver"]["rules"]
        }
        assert set(RACES_RULE_IDS) <= rules
