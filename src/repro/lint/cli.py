"""Command-line front end: ``repro-lint`` / ``python -m repro.lint``.

Exit codes: 0 clean (or everything suppressed/baselined), 1 new
findings, 2 usage errors, parse errors, or malformed/unknown-id
suppression pragmas.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.baseline import Baseline, BaselineError, DEFAULT_BASELINE_NAME
from repro.lint.dataflow.rules import DATAFLOW_RULE_IDS
from repro.lint.effects.rules import EFFECTS_RULE_IDS
from repro.lint.engine import AUTO_CACHE_DIR, LintEngine, LintResult
from repro.lint.output import OUTPUT_FORMATS, render_json, render_sarif
from repro.lint.races.rules import RACES_RULE_IDS
from repro.lint.rules import rule_catalog, split_selection

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def _find_repo_root(start: Path) -> Optional[Path]:
    """Nearest ancestor holding a .git dir or pyproject.toml."""
    current = start.resolve()
    for candidate in (current, *current.parents):
        if (candidate / ".git").exists() or (candidate / "pyproject.toml").exists():
            return candidate
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant checker for this repo: unit discipline, "
            "determinism, float hygiene, sim-process hygiene, and device-"
            "parameter provenance."
        ),
        # No prefix matching: ``--dataflow``/``--effects``/``--races``
        # would otherwise silently mean ``--dataflow-cache``/
        # ``--effects-report``/``--races-report`` and eat the next path.
        allow_abbrev=False,
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to check (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RLxxx",
        help="run only these rule ids (repeatable / comma-separated)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="RLxxx",
        help="skip these rule ids (repeatable / comma-separated)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help=f"baseline file (default: <repo-root>/{DEFAULT_BASELINE_NAME} if present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file: report every finding as new",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help=(
            "accept all current findings into the baseline file and exit 0; "
            "each generated entry gets a TODO justification to fill in"
        ),
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat WARNING findings as failures too",
    )
    parser.add_argument(
        "--show-baselined",
        action="store_true",
        help="also print findings absorbed by the baseline",
    )
    parser.add_argument(
        "--no-hints",
        action="store_true",
        help="omit the fix-hint line under each finding",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--format",
        choices=OUTPUT_FORMATS,
        default="text",
        help="report format (default: text); json and sarif print one "
        "document to stdout",
    )
    parser.add_argument(
        "--no-dataflow",
        action="store_true",
        help="skip the interprocedural dataflow pass, RL012-RL015",
    )
    parser.add_argument(
        "--dataflow-cache",
        metavar="DIR",
        help="facts cache directory for the interprocedural passes "
        "(default: <repo-root>/.repro-lint-cache); 'none' disables caching",
    )
    parser.add_argument(
        "--no-effects",
        action="store_true",
        help="skip the effect-inference pass, RL016-RL019 (and the "
        "kernel-readiness report)",
    )
    parser.add_argument(
        "--effects-report",
        metavar="FILE",
        help="write the kernel-readiness report JSON to FILE "
        "(requires the effects pass; parent directory must exist)",
    )
    parser.add_argument(
        "--no-races",
        action="store_true",
        help="skip the happens-before races pass, RL021-RL024 (and the "
        "cohort-conflict report)",
    )
    parser.add_argument(
        "--races-report",
        metavar="FILE",
        help="write the cohort-conflict report JSON to FILE — also the "
        "REPRO_SANITIZE=1 model (requires the races pass; parent "
        "directory must exist)",
    )
    return parser


def _split_ids(values: Optional[List[str]]) -> Optional[List[str]]:
    if not values:
        return None
    out: List[str] = []
    for value in values:
        out.extend(part.strip() for part in value.split(",") if part.strip())
    return out


def _effects_extra(result: LintResult) -> str:
    if result.effects_report is None:
        return ""
    return f", {len(result.effects_report['hot_functions'])} hot-path function(s)"


def _races_extra(result: LintResult) -> str:
    if result.races_report is None:
        return ""
    summary = result.races_report["summary"]
    return (
        f", {summary['members']} cohort member(s), "
        f"{summary['pairs']} may-co-schedule pair(s)"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, summary in sorted(rule_catalog().items()):
            print(f"{rule_id}  {summary}")
        return EXIT_CLEAN

    try:
        rule_classes, inter_ids = split_selection(
            _split_ids(args.select), _split_ids(args.ignore)
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for skipped, layer_ids in (
        (args.no_dataflow, DATAFLOW_RULE_IDS),
        (args.no_effects, EFFECTS_RULE_IDS),
        (args.no_races, RACES_RULE_IDS),
    ):
        if skipped:
            inter_ids -= set(layer_ids)

    report_path: Optional[Path] = None
    if args.effects_report:
        if args.no_effects:
            print(
                "error: --effects-report requires the effects pass "
                "(drop --no-effects)",
                file=sys.stderr,
            )
            return EXIT_USAGE
        report_path = Path(args.effects_report)
        if report_path.is_dir():
            print(
                f"error: --effects-report target {report_path} is a directory",
                file=sys.stderr,
            )
            return EXIT_USAGE
        if not report_path.parent.is_dir():
            print(
                f"error: --effects-report parent directory "
                f"{report_path.parent} does not exist",
                file=sys.stderr,
            )
            return EXIT_USAGE

    races_report_path: Optional[Path] = None
    if args.races_report:
        if args.no_races:
            print(
                "error: --races-report requires the races pass "
                "(drop --no-races)",
                file=sys.stderr,
            )
            return EXIT_USAGE
        races_report_path = Path(args.races_report)
        if races_report_path.is_dir():
            print(
                f"error: --races-report target {races_report_path} is a directory",
                file=sys.stderr,
            )
            return EXIT_USAGE
        if not races_report_path.parent.is_dir():
            print(
                f"error: --races-report parent directory "
                f"{races_report_path.parent} does not exist",
                file=sys.stderr,
            )
            return EXIT_USAGE

    repo_root = _find_repo_root(Path.cwd())

    cache_dir: object = AUTO_CACHE_DIR
    if args.dataflow_cache:
        cache_dir = (
            None if args.dataflow_cache.lower() == "none"
            else Path(args.dataflow_cache)
        )

    baseline_path: Optional[Path] = None
    if args.baseline:
        baseline_path = Path(args.baseline)
    elif repo_root is not None:
        candidate = repo_root / DEFAULT_BASELINE_NAME
        if candidate.exists():
            baseline_path = candidate

    baseline = Baseline()
    if not args.no_baseline and not args.write_baseline and baseline_path:
        if not baseline_path.exists():
            print(f"error: baseline {baseline_path} not found", file=sys.stderr)
            return EXIT_USAGE
        try:
            baseline = Baseline.load(baseline_path)
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE

    engine = LintEngine(
        rule_classes=rule_classes,
        baseline=baseline,
        repo_root=repo_root,
        rule_ids=inter_ids,
        dataflow_cache_dir=cache_dir,
    )
    result = engine.run([Path(p) for p in args.paths])

    if report_path is not None and result.effects_report is not None:
        report_path.write_text(
            json.dumps(result.effects_report, indent=2, sort_keys=False)
            + "\n",
            encoding="utf-8",
        )
    if races_report_path is not None and result.races_report is not None:
        races_report_path.write_text(
            json.dumps(result.races_report, indent=2, sort_keys=False)
            + "\n",
            encoding="utf-8",
        )

    for display, error in result.parse_errors:
        print(f"{display}: parse error: {error}", file=sys.stderr)
    for display, lineno, token in result.suppression_errors:
        print(
            f"{display}:{lineno}: bad suppression pragma: "
            f"unknown or malformed rule id {token!r}",
            file=sys.stderr,
        )

    if args.write_baseline:
        target = baseline_path or Path(DEFAULT_BASELINE_NAME)
        fresh = Baseline.from_findings(
            result.new + result.baselined,
            justification="TODO: justify or fix (auto-generated by --write-baseline)",
        )
        fresh.dump(target)
        print(f"wrote {len(fresh)} finding(s) to {target}")
        return EXIT_CLEAN

    failures = result.failures(strict=args.strict)

    if args.format == "json":
        sys.stdout.write(render_json(result))
    elif args.format == "sarif":
        sys.stdout.write(render_sarif(result))
    else:
        shown = list(result.new)
        if args.show_baselined:
            shown += result.baselined
        for finding in shown:
            tag = " (baselined)" if finding in result.baselined else ""
            print(finding.render(show_hint=not args.no_hints) + tag)

        summary = (
            f"repro-lint: {result.files_checked} file(s), "
            f"{len(result.new)} new finding(s), "
            f"{len(result.baselined)} baselined, "
            f"{len(result.suppressed)} suppressed"
        )
        if result.stale_baseline_entries:
            summary += (
                f"; {len(result.stale_baseline_entries)} stale baseline "
                "entry(ies) — prune them"
            )
        print(summary)
        for layer, stats, extra in (
            ("dataflow", result.dataflow_stats, ""),
            ("effects", result.effects_stats, _effects_extra(result)),
            ("races", result.races_stats, _races_extra(result)),
        ):
            if stats is not None:
                print(
                    f"{layer}: {stats.files} file(s) summarized, "
                    f"cache {stats.cache_hits} hit(s) / "
                    f"{stats.cache_misses} miss(es) "
                    f"({stats.hit_rate():.0%} hit rate){extra}"
                )

    if result.parse_errors or result.suppression_errors:
        return EXIT_USAGE
    return EXIT_FINDINGS if failures else EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
