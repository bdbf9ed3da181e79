"""Walk files, run every checker, apply pragmas and the baseline.

The run is one serial pass in this process, structured as per-file
records plus one project-scope pass:

1. every file maps to a record of raw file-scope findings and pragma
   tables plus its parsed context
   (:func:`repro.analysis.parallel.build_record`), served from the
   content-addressed cache under ``.cache/lint/`` when the file and the
   analyzer are unchanged;
2. the project-scope checkers (wire audit and the flow-engine clients)
   run once over all parsed contexts (those of step 1, re-parsing only
   cache hits), cached under a key covering every file, so a warm run
   never builds the flow engine;
3. *assembly* is deterministic and selection-aware: findings are
   filtered to the selected checkers, pragma suppression is applied
   (attributing each suppression to its declaring pragma line), the
   baseline splits the rest, and everything sorts by (path, line, col,
   code) — which is why a warm report is byte-identical to a cold one.

When the cache is enabled, records always hold *every* checker's
findings and ``--select`` filters at assembly, so one record serves any
selection. ``--check-pragmas`` turns the suppression attribution around:
a pragma declaration that suppressed nothing this run is reported as
ANA001, a baseline entry matching nothing as ANA002.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis import parallel
from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.context import FileContext
from repro.analysis.finding import Finding, Severity
from repro.analysis.lintcache import LintCache
from repro.analysis.registry import Checker, all_checkers

_SKIP_DIRS = {"__pycache__", ".git", ".cache", ".venv", "build", "dist"}

# pragma/baseline hygiene findings produced by the runner itself
ANA_CODES = {
    "ANA001": "stale pragma: `pqtls: allow[...]` that suppresses no finding",
    "ANA002": "stale baseline entry: accepted finding that no longer occurs",
}


@dataclass
class Report:
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)      # by baseline
    pragma_suppressed: int = 0
    stale_baseline: list[BaselineEntry] = field(default_factory=list)
    files_checked: int = 0
    from_cache: int = 0          # file records served by the lint cache

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def ok(self) -> bool:
        return not self.errors


def iter_python_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    files.append(candidate)
        elif path.suffix == ".py":
            files.append(path)
    # de-dup while preserving order (overlapping path arguments)
    seen: set[Path] = set()
    unique = []
    for file in files:
        resolved = file.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(file)
    return unique


def find_project_root(start: Path) -> Path:
    """Nearest ancestor holding pyproject.toml / .git (else the start)."""
    start = start.resolve()
    if start.is_file():
        start = start.parent
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").exists() or (candidate / ".git").exists():
            return candidate
    return start


def _project_findings(records: list[dict], contexts: dict[str, FileContext],
                      files_by_rel: dict[str, Path], project_root: Path,
                      project_checkers: list[Checker],
                      cache: LintCache | None) -> list[dict]:
    """Raw project-scope findings, cached over the full file-key set."""
    project_key = None
    if cache is not None and all(r.get("key") for r in records):
        project_key = cache.project_key([r["key"] for r in records])
        cached = cache.load("project", project_key)
        if cached is not None:
            return cached["findings"]
    for record in records:
        rel = record["relpath"]
        if record["syntax_error"] or rel in contexts:
            continue
        try:
            contexts[rel] = FileContext.load(files_by_rel[rel], project_root)
        except SyntaxError:  # raced edit since the record was built
            continue
    ordered = [contexts[r["relpath"]] for r in records
               if not r["syntax_error"] and r["relpath"] in contexts]
    engine = None
    if ordered and any(checker.needs_engine for checker in project_checkers):
        from repro.analysis.flow import FlowEngine

        engine = FlowEngine(ordered).solve()
    findings: list[dict] = []
    for checker in project_checkers:
        findings.extend(f.to_dict()
                        for f in checker.check_project(ordered, engine=engine))
    if project_key is not None:
        cache.store("project", project_key, {"findings": findings})
    return findings


def _pragma_table(record: dict) -> dict[int, dict[str, list[int]]]:
    table: dict[int, dict[str, list[int]]] = {}
    for line, code, decls in record["pragmas"]:
        table.setdefault(line, {})[code] = decls
    return table


def analyze(paths: list[Path], project_root: Path | None = None,
            select: list[str] | None = None,
            baseline: Baseline | None = None,
            jobs: int = 1, use_cache: bool = True,
            check_pragmas: bool = False) -> Report:
    """Run checkers over *paths* and return the filtered report.

    Findings land in the report in three buckets: live findings, findings
    suppressed by the *baseline*, and a count of pragma-allowed ones
    (``# pqtls: allow[CODE]``). Syntax errors surface as SYNTAX findings
    rather than crashing the run.

    *use_cache* serves unchanged files from ``.cache/lint``;
    *check_pragmas* adds ANA001/ANA002 findings for pragmas and baseline
    entries that suppressed nothing. *jobs* is ignored: files are checked
    serially in this process. Only perfbench's lint workload still passes
    it, and the keyword goes with ROADMAP item 9 ("One benchmark
    harness").
    """
    if project_root is None:
        anchor = paths[0] if paths else Path.cwd()
        project_root = find_project_root(anchor)
    selected = all_checkers(select)
    cache = LintCache(project_root) if use_cache else None
    # cache-backed records must be selection-independent: run everything,
    # filter at assembly
    active = all_checkers() if cache is not None else selected
    file_scope = [c for c in active if c.scope != "project"]
    project_scope = [c for c in active if c.scope == "project"]

    files = iter_python_files(paths)
    report = Report()
    records: list[dict] = []
    contexts: dict[str, FileContext] = {}
    for path in files:
        record, ctx = parallel.build_record(path, project_root, cache,
                                            file_scope)
        records.append(record)
        if ctx is not None:
            contexts[record["relpath"]] = ctx
    files_by_rel = {record["relpath"]: file
                    for record, file in zip(records, files)}
    report.files_checked = sum(1 for r in records if not r["syntax_error"])
    report.from_cache = sum(1 for r in records if r.get("cached"))

    project_raw: list[dict] = []
    if project_scope:
        project_raw = _project_findings(records, contexts, files_by_rel,
                                        project_root, project_scope, cache)

    # -- assembly: select, pragma-filter, baseline-split, sort ---------------
    selected_names = {c.name for c in selected}
    selected_codes = {code for c in selected for code in c.codes}
    pragma_tables = {r["relpath"]: _pragma_table(r) for r in records}
    pragma_used: set[tuple[str, int, str]] = set()
    visible: list[Finding] = []

    def admit(finding: Finding) -> None:
        if finding.checker not in selected_names and finding.checker != "runner":
            return
        decls = pragma_tables.get(finding.path, {}) \
                             .get(finding.line, {}).get(finding.code)
        if decls:
            report.pragma_suppressed += 1
            for decl in decls:
                pragma_used.add((finding.path, decl, finding.code))
            return
        visible.append(finding)

    for record in records:
        for data in record["findings"]:
            admit(Finding.from_dict(data))
    for data in project_raw:
        admit(Finding.from_dict(data))

    if baseline is not None:
        new, suppressed, stale = baseline.split(visible)
        report.findings.extend(new)
        report.suppressed = suppressed
        # an entry is only stale if this run could have re-produced it:
        # its file was analyzed (and parsed) and its checker was selected
        analyzed = {r["relpath"] for r in records if not r["syntax_error"]}
        report.stale_baseline = [
            entry for entry in stale
            if entry.path in analyzed and entry.code in selected_codes
        ]
    else:
        report.findings.extend(visible)

    if check_pragmas:
        report.findings.extend(
            _stale_pragma_findings(records, selected_codes, pragma_used))
        for entry in report.stale_baseline:
            report.findings.append(Finding(
                code="ANA002", path=entry.path, line=1, symbol=entry.symbol,
                message=f"stale baseline entry: {entry.code} "
                        f"({entry.message!r}) no longer matches any "
                        "finding; remove it (or run --prune-baseline)",
                checker="runner"))

    report.findings.sort(key=Finding.sort_key)

    if cache is not None:
        cache.prune("files", {r["key"] for r in records if r.get("key")})
    return report


def _stale_pragma_findings(records: list[dict], selected_codes: set[str],
                           pragma_used: set[tuple[str, int, str]]) -> list[Finding]:
    """ANA001 for every pragma declaration that suppressed nothing.

    A declaration is only judged when its code belongs to a selected
    checker (a ``--select det`` run cannot tell whether a CT pragma is
    live) — except that a code no registered checker can ever emit is
    always stale, catching typos like ``allow[CT01]``.
    """
    known_codes = {code for checker in all_checkers() for code in checker.codes}
    known_codes.update(ANA_CODES)
    known_codes.add("SYNTAX")
    findings = []
    for record in records:
        for decl_line, codes in record["pragma_decls"]:
            for code in codes:
                unknown = code not in known_codes
                if not unknown and code not in selected_codes:
                    continue
                if (record["relpath"], decl_line, code) in pragma_used:
                    continue
                detail = ("no checker emits this code" if unknown
                          else "it suppresses no finding")
                findings.append(Finding(
                    code="ANA001", path=record["relpath"], line=decl_line,
                    message=f"stale pragma: allow[{code}] — {detail}; "
                            "remove the pragma",
                    checker="runner"))
    return findings
