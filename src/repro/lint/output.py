"""Report renderers: text (default), ``--format json``, ``--format sarif``.

The JSON form is a stable machine-readable dump of everything the run
partitioned (new / baselined / suppressed / parse errors), for scripts
like ``tools/lint_stats.py``.  The SARIF form is the 2.1.0 static
analysis interchange format GitHub code scanning ingests; baselined
and suppressed findings are included with SARIF ``suppressions``
markers so the upload shows them as handled rather than hiding them.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.lint.engine import LintResult
from repro.lint.findings import Finding, Severity
from repro.lint.rules import rule_catalog

OUTPUT_FORMATS = ("text", "json", "sarif")

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
TOOL_NAME = "repro-lint"


def _finding_json(finding: Finding, status: str) -> Dict[str, Any]:
    return {
        "rule_id": finding.rule_id,
        "severity": finding.severity.value,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
        "fix_hint": finding.fix_hint,
        "fingerprint": finding.fingerprint(),
        "status": status,
    }


def render_json(result: LintResult) -> str:
    findings: List[Dict[str, Any]] = []
    for status, group in (
        ("new", result.new),
        ("baselined", result.baselined),
        ("suppressed", result.suppressed),
    ):
        findings.extend(_finding_json(f, status) for f in group)
    payload = {
        "tool": TOOL_NAME,
        "files_checked": result.files_checked,
        "findings": findings,
        "parse_errors": [
            {"path": path, "error": message}
            for path, message in result.parse_errors
        ],
        "suppression_errors": [
            {"path": path, "line": line, "token": token}
            for path, line, token in result.suppression_errors
        ],
    }
    for layer, stats in (
        ("dataflow", result.dataflow_stats),
        ("effects", result.effects_stats),
        ("races", result.races_stats),
    ):
        payload[layer] = None if stats is None else {
            "files": stats.files,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "cache_hit_rate": round(stats.hit_rate(), 4),
        }
    # A layer's report is set exactly when its stats are.
    if result.effects_report is not None:
        payload["effects"]["hot_functions"] = len(
            result.effects_report["hot_functions"]
        )
    if result.races_report is not None:
        summary = result.races_report["summary"]
        payload["races"]["members"] = summary["members"]
        payload["races"]["pairs"] = summary["pairs"]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _sarif_level(severity: Severity) -> str:
    return "error" if severity is Severity.ERROR else "warning"


def _sarif_result(finding: Finding, status: str) -> Dict[str, Any]:
    result: Dict[str, Any] = {
        "ruleId": finding.rule_id,
        "level": _sarif_level(finding.severity),
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": finding.line,
                        # SARIF columns are 1-based; ours are 0-based.
                        "startColumn": finding.col + 1,
                    },
                }
            }
        ],
        "partialFingerprints": {"reproLint/v1": finding.fingerprint()},
    }
    if status == "baselined":
        result["suppressions"] = [
            {"kind": "external", "justification": "accepted in lint baseline"}
        ]
    elif status == "suppressed":
        result["suppressions"] = [
            {"kind": "inSource", "justification": "inline repro-lint pragma"}
        ]
    return result


def render_sarif(result: LintResult) -> str:
    catalog = rule_catalog()
    rules = [
        {
            "id": rule_id,
            "shortDescription": {"text": summary},
            "helpUri": "docs/STATIC_ANALYSIS.md",
        }
        for rule_id, summary in sorted(catalog.items())
    ]
    results: List[Dict[str, Any]] = []
    for status, group in (
        ("new", result.new),
        ("baselined", result.baselined),
        ("suppressed", result.suppressed),
    ):
        results.extend(_sarif_result(f, status) for f in group)
    payload = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "informationUri": "docs/STATIC_ANALYSIS.md",
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
