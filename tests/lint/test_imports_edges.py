"""Import-graph edge cases: cycles, namespace packages, and the
stability of the determinism-critical set that RL003-RL005 scope on."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import random

from repro.lint.imports import (
    SIM_PACKAGE,
    ImportGraph,
    imported_modules,
    module_name_for,
)


def build_graph(modules: dict) -> ImportGraph:
    """``{"repro/sim/kernel.py": source}`` -> parsed ImportGraph."""
    graph = ImportGraph()
    for relpath, source in sorted(modules.items()):
        graph.add(Path(relpath), ast.parse(textwrap.dedent(source)))
    return graph


class TestModuleNames:
    def test_namespace_package_file_resolves(self, tmp_path):
        # A directory with no __init__.py (PEP 420 namespace package)
        # still yields the dotted name — resolution is purely lexical.
        target = tmp_path / "src" / "repro" / "nspkg" / "inner.py"
        target.parent.mkdir(parents=True)
        target.write_text("x = 1\n")
        assert not (target.parent / "__init__.py").exists()
        assert module_name_for(target) == "repro.nspkg.inner"

    def test_init_maps_to_package(self):
        assert module_name_for(Path("src/repro/sim/__init__.py")) == "repro.sim"

    def test_outside_repro_root_is_none(self):
        assert module_name_for(Path("scripts/run.py")) is None


class TestImportedModules:
    def test_relative_import_resolves_against_package(self):
        tree = ast.parse("from . import kernel\nfrom .events import Timeout\n")
        found = imported_modules(tree, "repro.sim.engine")
        assert "repro.sim.kernel" in found
        assert "repro.sim.events" in found

    def test_two_level_relative_import(self):
        tree = ast.parse("from ..units import GiB\n")
        found = imported_modules(tree, "repro.sim.engine")
        assert "repro.units" in found


CYCLE = {
    "src/repro/sim/kernel.py": "from repro.sim.events import Event\n",
    "src/repro/sim/events.py": "import repro.sim.kernel\n",
    "src/repro/driver.py": "import repro.sim.kernel\n",
    "src/repro/units.py": "x = 1\n",
}


class TestCycles:
    def test_dependency_closure_terminates_on_cycle(self):
        graph = build_graph(CYCLE)
        deps = graph.dependencies_of({"repro.sim.kernel"})
        assert "repro.sim.events" in deps
        assert "repro.sim.kernel" in deps

    def test_dependents_closure_terminates_on_cycle(self):
        graph = build_graph(CYCLE)
        dependents = graph.dependents_of({"repro.sim.events"})
        assert "repro.sim.kernel" in dependents
        assert "repro.driver" in dependents

    def test_self_import_does_not_loop(self):
        graph = build_graph({"src/repro/weird.py": "import repro.weird\n"})
        assert graph.dependencies_of({"repro.weird"}) == {"repro.weird"}

    def test_three_module_cycle_through_sim(self):
        graph = build_graph(
            {
                "src/repro/sim/a.py": "import repro.util.b\n",
                "src/repro/util/b.py": "import repro.util.c\n",
                "src/repro/util/c.py": "import repro.sim.a\n",
            }
        )
        critical = graph.determinism_critical()
        # The whole cycle runs inside (or drives) the sim: all critical.
        assert {"repro.sim.a", "repro.util.b", "repro.util.c"} <= critical


class TestDeterminismCriticalStability:
    def test_critical_set_unchanged_by_cycle_direction(self):
        forward = build_graph(CYCLE)
        # Reverse one cycle edge: kernel <-> events swap importer role.
        reversed_cycle = dict(CYCLE)
        reversed_cycle["src/repro/sim/kernel.py"] = "import repro.sim.events\n"
        reversed_cycle["src/repro/sim/events.py"] = (
            "from repro.sim.kernel import Kernel\n"
        )
        backward = build_graph(reversed_cycle)
        assert forward.determinism_critical() == backward.determinism_critical()

    def test_critical_set_is_deterministic_across_insert_order(self):
        graph_a = build_graph(CYCLE)
        graph_b = ImportGraph()
        for relpath, source in sorted(CYCLE.items(), reverse=True):
            graph_b.add(Path(relpath), ast.parse(source))
        assert graph_a.determinism_critical() == graph_b.determinism_critical()

    def test_leaf_module_stays_out(self):
        graph = build_graph(CYCLE)
        critical = graph.determinism_critical()
        assert "repro.units" not in critical

    def test_namespace_package_modules_participate(self):
        graph = build_graph(
            {
                # repro/ns has no __init__.py anywhere in this set.
                "src/repro/ns/driver.py": "import repro.sim.kernel\n",
                "src/repro/sim/kernel.py": "x = 1\n",
            }
        )
        critical = graph.determinism_critical()
        assert "repro.ns.driver" in critical


def brute_force_critical(imports: dict) -> set:
    """The critical set by the definition: resolve every import against
    every known module, then take both closures to a fixpoint."""

    def is_or_under(module, package):
        return module == package or module.startswith(package + ".")

    def targets(module):
        return {
            known
            for name in imports.get(module, ())
            for known in imports
            if is_or_under(name, known) or is_or_under(known, name)
        }

    sim = {m for m in imports if is_or_under(m, SIM_PACKAGE)}
    deps = set(sim)
    changed = True
    while changed:
        grown = deps | {t for m in deps for t in targets(m)}
        changed, deps = grown != deps, grown
    dependents = set(sim)
    changed = True
    while changed:
        grown = dependents | {m for m in imports if targets(m) & dependents}
        changed, dependents = grown != dependents, grown
    return deps | dependents


class TestCriticalSetMatchesDefinition:
    NAMES = [
        "repro.sim",
        "repro.sim.kernel",
        "repro.sim.events",
        "repro.units",
        "repro.core",
        "repro.core.banks",
        "repro.core.banks.Bank",
        "repro.fleet.router",
        "repro.fleet",
        "repro.inference.engine",
        "numpy",
    ]

    def test_random_graphs_match_the_brute_force_closure(self):
        rng = random.Random(20261018)
        for _ in range(200):
            modules = rng.sample(self.NAMES[:-1], rng.randint(1, 8))
            imports = {
                module: set(rng.sample(self.NAMES, rng.randint(0, 4)))
                for module in modules
            }
            graph = build_graph(
                {
                    "src/" + module.replace(".", "/") + ".py": "".join(
                        f"import {name}\n" for name in sorted(names)
                    )
                    for module, names in imports.items()
                }
            )
            assert graph.determinism_critical() == brute_force_critical(imports)
