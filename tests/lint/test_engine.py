"""Engine-level behaviour: suppressions, the baseline, the CLI, and the
tier-1 gate that keeps the real tree clean."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.baseline import Baseline, BaselineError
from repro.lint.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main

REPO_ROOT = Path(__file__).resolve().parents[2]

VIOLATION = "import random\nx = random.random()\n"


def write(tmp_path: Path, relpath: str, source: str) -> Path:
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return target


class TestSuppressions:
    def test_same_line_suppression(self, tmp_path):
        write(
            tmp_path,
            "repro/m.py",
            "import random\n"
            "x = random.random()  # repro-lint: disable=RL003 -- test fixture\n",
        )
        result = lint_paths([tmp_path], repo_root=tmp_path)
        assert not result.new
        assert len(result.suppressed) == 1

    def test_line_above_suppression(self, tmp_path):
        write(
            tmp_path,
            "repro/m.py",
            "import random\n"
            "# repro-lint: disable=RL003 -- justified here\n"
            "x = random.random()\n",
        )
        result = lint_paths([tmp_path], repo_root=tmp_path)
        assert not result.new

    def test_disable_all(self, tmp_path):
        write(
            tmp_path,
            "repro/m.py",
            "import random\nx = random.random()  # repro-lint: disable=all\n",
        )
        result = lint_paths([tmp_path], repo_root=tmp_path)
        assert not result.new

    def test_wrong_id_does_not_suppress(self, tmp_path):
        write(
            tmp_path,
            "repro/m.py",
            "import random\nx = random.random()  # repro-lint: disable=RL006\n",
        )
        result = lint_paths([tmp_path], repo_root=tmp_path)
        assert [f.rule_id for f in result.new] == ["RL003"]

    def test_file_level_suppression(self, tmp_path):
        write(
            tmp_path,
            "repro/m.py",
            "# repro-lint: disable-file=RL003\n"
            "import random\n"
            "x = random.random()\n"
            "y = random.random()\n",
        )
        result = lint_paths([tmp_path], repo_root=tmp_path)
        assert not result.new
        assert len(result.suppressed) == 2


class TestBaseline:
    def test_baselined_findings_do_not_fail(self, tmp_path):
        write(tmp_path, "repro/m.py", VIOLATION)
        first = lint_paths([tmp_path], repo_root=tmp_path)
        assert len(first.new) == 1

        baseline = Baseline.from_findings(first.new, justification="seed-era code")
        second = lint_paths([tmp_path], baseline=baseline, repo_root=tmp_path)
        assert not second.new
        assert len(second.baselined) == 1
        assert not second.failures()

    def test_new_violation_escapes_baseline(self, tmp_path):
        write(tmp_path, "repro/m.py", VIOLATION)
        first = lint_paths([tmp_path], repo_root=tmp_path)
        baseline = Baseline.from_findings(first.new, justification="seed-era code")

        write(tmp_path, "repro/m.py", VIOLATION + "y = random.random()\n")
        second = lint_paths([tmp_path], baseline=baseline, repo_root=tmp_path)
        # The duplicate line is absorbed once; the extra draw is new.
        assert len(second.baselined) == 1
        assert len(second.new) == 1

    def test_fingerprint_survives_line_shift(self, tmp_path):
        write(tmp_path, "repro/m.py", VIOLATION)
        baseline = Baseline.from_findings(
            lint_paths([tmp_path], repo_root=tmp_path).new,
            justification="seed-era code",
        )
        # Push the violation three lines down; fingerprint still matches.
        write(tmp_path, "repro/m.py", "# a\n# b\n# c\n" + VIOLATION)
        result = lint_paths([tmp_path], baseline=baseline, repo_root=tmp_path)
        assert not result.new
        assert len(result.baselined) == 1

    def test_justification_required(self):
        with pytest.raises(BaselineError, match="justification"):
            Baseline(
                [{"fingerprint": "abc", "rule_id": "RL003", "justification": "  "}]
            )

    def test_stale_entries_reported(self, tmp_path):
        write(tmp_path, "repro/m.py", VIOLATION)
        baseline = Baseline.from_findings(
            lint_paths([tmp_path], repo_root=tmp_path).new,
            justification="seed-era code",
        )
        write(tmp_path, "repro/m.py", "x = 1\n")  # violation fixed
        result = lint_paths([tmp_path], baseline=baseline, repo_root=tmp_path)
        assert len(result.stale_baseline_entries) == 1

    def test_load_rejects_bad_json(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("{not json")
        with pytest.raises(BaselineError):
            Baseline.load(bad)

    def test_dump_load_roundtrip(self, tmp_path):
        entries = [
            {
                "fingerprint": "deadbeefdeadbeef",
                "rule_id": "RL001",
                "path": "repro/m.py",
                "line": 3,
                "source_line": "x = 1024",
                "justification": "count, not a size",
            }
        ]
        path = tmp_path / "baseline.json"
        Baseline(entries).dump(path)
        loaded = Baseline.load(path)
        assert loaded.entries == entries
        assert json.loads(path.read_text())["version"] == 1


class TestCLI:
    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch, capsys):
        write(tmp_path, "repro/m.py", "x = 1\n")
        monkeypatch.chdir(tmp_path)
        assert main([str(tmp_path)]) == EXIT_CLEAN
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_violation_exits_one(self, tmp_path, monkeypatch, capsys):
        write(tmp_path, "repro/m.py", VIOLATION)
        monkeypatch.chdir(tmp_path)
        assert main([str(tmp_path)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "RL003" in out and "repro/m.py" in out

    def test_unknown_rule_id_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["--select", "RL999", str(tmp_path)]) == EXIT_USAGE

    def test_select_narrows_rules(self, tmp_path, monkeypatch):
        write(tmp_path, "repro/m.py", VIOLATION + "ok = x == 0.5\n")
        monkeypatch.chdir(tmp_path)
        # Only the float rule selected: the RL003 draw is not reported.
        assert main(["--select", "RL006", str(tmp_path)]) == EXIT_FINDINGS
        assert main(["--select", "RL003,RL006", str(tmp_path)]) == EXIT_FINDINGS

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in ("RL001", "RL008"):
            assert rule_id in out

    def test_write_baseline_then_clean(self, tmp_path, monkeypatch, capsys):
        write(tmp_path, "repro/m.py", VIOLATION)
        # Give the tmp dir a repo marker so the root (and the default
        # baseline location) resolve to it.
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        monkeypatch.chdir(tmp_path)
        assert main([str(tmp_path)]) == EXIT_FINDINGS
        assert main(["--write-baseline", str(tmp_path)]) == EXIT_CLEAN
        capsys.readouterr()
        assert main([str(tmp_path)]) == EXIT_CLEAN
        assert "1 baselined" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--dataflow", "--effects", "--races"])
    def test_layer_flag_prefixes_are_rejected(self, flag, tmp_path, monkeypatch):
        # Not a silent abbreviation of --dataflow-cache / --*-report,
        # which would take the path as its value.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main([flag, str(tmp_path)])
        assert exit_info.value.code == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    def test_parse_error_is_usage_error(self, tmp_path, monkeypatch):
        write(tmp_path, "repro/bad.py", "def broken(:\n")
        monkeypatch.chdir(tmp_path)
        assert main([str(tmp_path)]) == EXIT_USAGE


class TestRepoTreeIsClean:
    """The tier-1 gate: linting the real src/repro must stay clean, so
    any PR introducing a violation fails the suite."""

    def test_src_repro_has_no_new_findings(self, tree_lint):
        assert (REPO_ROOT / "src" / "repro").is_dir()
        assert not tree_lint.parse_errors
        rendered = "\n".join(f.render() for f in tree_lint.new)
        assert not tree_lint.failures(), f"new repro-lint findings:\n{rendered}"

    def test_no_stale_baseline_entries(self, tree_lint):
        baseline_path = REPO_ROOT / ".repro-lint-baseline.json"
        if not baseline_path.exists():
            pytest.skip("no baseline checked in")
        assert not tree_lint.stale_baseline_entries
