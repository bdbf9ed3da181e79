"""``pqtls-lint``: the command-line front end.

Exit codes: 0 clean (or baselined), 1 findings, 2 usage/configuration
error — so CI can gate on any non-baselined contract violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.analysis.registry import all_checkers
from repro.analysis.reporters import render_json, render_sarif, render_text
from repro.analysis.runner import analyze, find_project_root


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqtls-lint",
        description="Domain static analysis for the post-quantum TLS reproduction: "
                    "constant-time discipline (CT, intra- and interprocedural), "
                    "secret-leak-to-observability (LEAK), flow-API misuse (FLOW), "
                    "determinism (DET), layering (LAYER), wire sizes (WIRE), and "
                    "exception hygiene (EXC).",
    )
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories (default: src/repro under the project root)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--select", action="append", metavar="CODE",
                        help="run only matching checkers (name or code prefix, repeatable)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and don't write the content-addressed result "
                             "cache under .cache/lint/")
    parser.add_argument("--sarif", type=Path, metavar="FILE", default=None,
                        help="also write findings as SARIF 2.1.0 to FILE "
                             "(for code-scanning upload)")
    parser.add_argument("--check-pragmas", action="store_true",
                        help="flag `pqtls: allow[...]` pragmas and baseline entries "
                             "that no longer suppress anything (ANA001/ANA002)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help=f"baseline file (default: <project root>/{DEFAULT_BASELINE_NAME} if present)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write current findings to the baseline file and exit 0; "
                             "each new entry still needs a hand-written justification")
    parser.add_argument("--prune-baseline", action="store_true",
                        help="rewrite the baseline file without its stale entries "
                             "and exit 0")
    parser.add_argument("--list-checkers", action="store_true")
    parser.add_argument("--verbose", action="store_true",
                        help="also show baseline-suppressed findings")
    return parser


def _list_checkers() -> str:
    lines = []
    for checker in all_checkers():
        lines.append(f"{checker.name:8s} {checker.description}")
        for code, meaning in sorted(checker.codes.items()):
            lines.append(f"         {code}: {meaning}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_checkers:
        print(_list_checkers())
        return 0

    paths = args.paths
    if not paths:
        root = find_project_root(Path.cwd())
        default = root / "src" / "repro"
        if not default.exists():
            parser.error("no paths given and no src/repro under the project root")
        paths = [default]
    for path in paths:
        if not path.exists():
            parser.error(f"no such path: {path}")

    project_root = find_project_root(paths[0])
    baseline_path = args.baseline or (project_root / DEFAULT_BASELINE_NAME)
    baseline = None
    if not args.no_baseline and not args.update_baseline and baseline_path.exists():
        try:
            baseline = Baseline.load(baseline_path)
        except ValueError as exc:
            print(f"pqtls-lint: bad baseline: {exc}", file=sys.stderr)
            return 2
    if args.prune_baseline and baseline is None:
        print("pqtls-lint: --prune-baseline needs a loadable baseline file",
              file=sys.stderr)
        return 2

    try:
        report = analyze(paths, project_root=project_root, select=args.select,
                         baseline=baseline,
                         use_cache=not args.no_cache,
                         check_pragmas=args.check_pragmas)
    except KeyError as exc:
        print(f"pqtls-lint: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.update_baseline:
        new_baseline = Baseline.from_findings(report.findings)
        if baseline_path.exists():
            # keep existing justifications for entries that still match
            old = {e.identity(): e for e in Baseline.load(baseline_path).entries}
            new_baseline.entries = [old.get(e.identity(), e) for e in new_baseline.entries]
        new_baseline.save(baseline_path)
        print(f"pqtls-lint: wrote {len(new_baseline.entries)} entries to {baseline_path}")
        todo = [e for e in new_baseline.entries if e.justification.startswith("TODO")]
        if todo:
            print(f"pqtls-lint: {len(todo)} entries need a justification before "
                  "the baseline will load", file=sys.stderr)
        return 0

    if args.prune_baseline:
        stale = {entry.identity() for entry in report.stale_baseline}
        kept = [e for e in baseline.entries if e.identity() not in stale]
        baseline.entries = kept
        baseline.save(baseline_path)
        print(f"pqtls-lint: pruned {len(stale)} stale entries from "
              f"{baseline_path}; {len(kept)} remain")
        return 0

    if args.sarif is not None:
        args.sarif.write_text(render_sarif(report), encoding="utf-8")

    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report, verbose=args.verbose))
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
