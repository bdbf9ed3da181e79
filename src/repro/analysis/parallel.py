"""Per-file checking units for the lint runner.

One *unit* of work is :func:`build_record`: hash a file, consult the lint
cache, and on a miss parse it and run every file-scope checker, giving a
JSON-serializable record (findings + pragma tables) and the parsed
context. The runner maps :func:`check_unit` over its files through
:func:`repro.core.fanout.run_sharded`, the stack's one worker pool, at
every ``--jobs``: ``--jobs 1`` runs the units inline, and otherwise
workers are spawned (clean interpreters, no inherited state), requested
jobs clamp to the host core count, and results merge in the input file
order — so a parallel run is byte-identical to a serial one, whatever
order workers finish in. A worker ships its parsed contexts back with
the records, so the project-scope pass never re-parses a file a unit
already parsed. Workers coordinate only through the content-addressed
cache, whose writes are atomic.
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


def check_unit(path: Path, *, project_root: Path, cache: LintCache | None,
               checkers: list[Checker]) -> tuple[dict, FileContext | None]:
    """Fan-out entry point: one file -> :func:`build_record`'s pair.

    Looks :func:`build_record` up as a module global at call time, so a
    wrapper installed on this module (e.g. a tracing boundary) sees
    every unit, inline or in a worker that imports it the same way.
    """
    return build_record(path, project_root, cache, checkers)
