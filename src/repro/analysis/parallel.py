"""Per-file records for the lint runner.

One file's work is :func:`build_record`: hash the file, consult the lint
cache, and on a miss parse it and run every file-scope checker, giving a
JSON-serializable record (findings + pragma tables) and the parsed
context. The runner calls it for each file in turn, in its own process,
and hands the parsed contexts to the project-scope pass, so that pass
re-parses only the files served from the cache. The module name predates
the one-process runner; perfbench's layer trace wraps ``build_record``
under this name.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.context import FileContext
from repro.analysis.finding import Finding
from repro.analysis.lintcache import LintCache
from repro.analysis.registry import Checker


def relpath_for(path: Path, project_root: Path) -> str:
    try:
        return path.resolve().relative_to(project_root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def build_record(path: Path, project_root: Path, cache: LintCache | None,
                 checkers: list[Checker]) -> tuple[dict, FileContext | None]:
    """One file's lint record, from the cache when its key matches.

    Returns ``(record, context)``; the context is only populated when the
    file was actually parsed this call (cache miss), letting the runner
    reuse it for the project-scope pass.
    """
    relpath = relpath_for(path, project_root)
    record_key = ""
    if cache is not None:
        record_key = cache.file_key(relpath, path.read_bytes())
        record = cache.load("files", record_key)
        if record is not None:
            record["cached"] = True
            return record, None
    ctx: FileContext | None = None
    try:
        ctx = FileContext.load(path, project_root)
    except SyntaxError as exc:
        syntax = Finding(code="SYNTAX", message=f"cannot parse: {exc.msg}",
                         path=path.as_posix(), line=exc.lineno or 1,
                         checker="runner")
        record = {"key": record_key, "relpath": relpath, "module": "",
                  "syntax_error": True, "findings": [syntax.to_dict()],
                  "pragmas": [], "pragma_decls": []}
    else:
        findings = []
        for checker in checkers:
            findings.extend(f.to_dict() for f in checker.check_file(ctx))
        record = {
            "key": record_key,
            "relpath": relpath,
            "module": ctx.module,
            "syntax_error": False,
            "findings": findings,
            "pragmas": [
                [line, code, sorted(decls)]
                for line, slot in sorted(ctx.pragmas.items())
                for code, decls in sorted(slot.items())
            ],
            "pragma_decls": [
                [line, sorted(codes)]
                for line, codes in sorted(ctx.pragma_declarations().items())
            ],
        }
    if cache is not None:
        cache.store("files", record_key, record)
    record["cached"] = False
    return record, ctx

