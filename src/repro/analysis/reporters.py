"""Text, JSON, and SARIF renderings of an analysis report.

Every rendering sorts findings — live, suppressed, and stale baseline
entries alike — by (path, line, col, code) at this boundary, so baseline
files, CI logs, and uploaded SARIF diff stably whatever order checkers
produced them in.
"""

from __future__ import annotations

import json

from repro.analysis.finding import Finding


def _stale_key(entry) -> tuple:
    return (entry.path, entry.code, entry.symbol, entry.message)


def render_text(report, verbose: bool = False) -> str:
    """Human-readable report, grouped by file, ruff/gcc-style lines."""
    lines: list[str] = []
    for finding in sorted(report.findings, key=Finding.sort_key):
        lines.append(
            f"{finding.location}: {finding.code} [{finding.severity}] {finding.message}"
        )
    if verbose and report.suppressed:
        lines.append("")
        lines.append(f"suppressed by baseline ({len(report.suppressed)}):")
        for finding in sorted(report.suppressed, key=Finding.sort_key):
            lines.append(f"  {finding.location}: {finding.code} {finding.message}")
    if report.stale_baseline:
        lines.append("")
        lines.append(
            f"stale baseline entries ({len(report.stale_baseline)}) — "
            "no longer matched, remove them:"
        )
        for entry in sorted(report.stale_baseline, key=_stale_key):
            lines.append(f"  {entry.code} {entry.path} [{entry.symbol}] {entry.message}")
    lines.append("")
    lines.append(summary_line(report))
    return "\n".join(lines).lstrip("\n")


def summary_line(report) -> str:
    checked = f"{report.files_checked} file{'s' if report.files_checked != 1 else ''}"
    if not report.findings and not report.suppressed:
        return f"pqtls-lint: {checked} checked, clean"
    parts = [f"{len(report.findings)} finding{'s' if len(report.findings) != 1 else ''}"]
    if report.suppressed:
        parts.append(f"{len(report.suppressed)} baselined")
    if report.pragma_suppressed:
        parts.append(f"{report.pragma_suppressed} pragma-allowed")
    return f"pqtls-lint: {checked} checked, " + ", ".join(parts)


def render_json(report) -> str:
    payload = {
        "files_checked": report.files_checked,
        "findings": [f.to_dict() for f in sorted(report.findings, key=Finding.sort_key)],
        "suppressed": [
            f.to_dict() for f in sorted(report.suppressed, key=Finding.sort_key)
        ],
        "pragma_suppressed": report.pragma_suppressed,
        "stale_baseline": [
            entry.to_dict()
            for entry in sorted(report.stale_baseline, key=_stale_key)
        ],
        "summary": summary_line(report),
    }
    return json.dumps(payload, indent=2)


def _rule_meanings() -> dict[str, str]:
    from repro.analysis.registry import all_checkers
    from repro.analysis.runner import ANA_CODES

    meanings = {"SYNTAX": "file cannot be parsed"}
    for checker in all_checkers():
        meanings.update(checker.codes)
    meanings.update(ANA_CODES)
    return meanings


def render_sarif(report) -> str:
    """SARIF 2.1.0 for code-scanning upload (live findings only, sorted).

    Baseline-suppressed findings are deliberately absent: the committed
    baseline is this repo's review surface for accepted findings, and
    re-surfacing them in code scanning would just demand a second
    dismissal in the web UI.
    """
    meanings = _rule_meanings()
    findings = sorted(report.findings, key=Finding.sort_key)
    rule_ids = sorted({f.code for f in findings})
    rule_index = {code: i for i, code in enumerate(rule_ids)}
    rules = [
        {
            "id": code,
            "shortDescription": {"text": meanings.get(code, code)},
        }
        for code in rule_ids
    ]
    results = [
        {
            "ruleId": finding.code,
            "ruleIndex": rule_index[finding.code],
            "level": finding.severity.value,
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": max(finding.line, 1),
                            "startColumn": finding.col + 1,
                        },
                    },
                    "logicalLocations": (
                        [{"fullyQualifiedName": finding.symbol}]
                        if finding.symbol else []
                    ),
                }
            ],
        }
        for finding in findings
    ]
    sarif = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "pqtls-lint",
                        "rules": rules,
                    }
                },
                "columnKind": "unicodeCodePoints",
                "results": results,
            }
        ],
    }
    return json.dumps(sarif, indent=2)
