"""FLOW00x — misuse of the repo's own security-sensitive APIs.

Two contracts that only make sense with whole-program context:

``FLOW001`` — ``drbg.fork(label)`` derives an independent deterministic
stream per label.  A label built *entirely* from runtime values (no
literal component at all) makes stream separation data-dependent: two
call sites can silently collide on the same child stream, which breaks
the reproducibility contract the DRBG tree exists for.  Labels may embed
runtime parts (``f"client-{i}"``) as long as a literal prefix keeps the
namespace explicit.

``FLOW002`` — ``declassify(value)`` marks a deliberate publication of
secret-derived data.  Calling it on a value the taint analysis never saw
as secret means one of two things: the taint was already laundered
upstream (worth auditing — the declassify is guarding nothing), or the
call is dead weight that trains readers to sprinkle declassify
reflexively.  Either way it deserves a look, so it is a WARNING, not an
error.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.finding import Finding, Severity
from repro.analysis.flow.engine import FlowEngine
from repro.analysis.flow.taint import call_name
from repro.analysis.registry import Checker, register


def _has_literal_component(label: ast.expr) -> bool:
    return any(
        isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value
        for node in ast.walk(label)
    )


@register
class FlowApiChecker(Checker):
    name = "flowapi"
    description = ("DRBG fork labels need a literal component; declassify() "
                   "must be applied to values that are actually tainted")
    codes = {
        "FLOW001": "drbg.fork() label has no literal string component",
        "FLOW002": "declassify() of a value that is never secret-tainted",
    }
    scope = "project"
    needs_engine = True

    def check_project(self, ctxs: list[FileContext],
                      engine: FlowEngine | None = None) -> Iterator[Finding]:
        # FLOW001 is purely syntactic, so it also covers module-level code
        # the function-grained engine never analyzes.
        for ctx in ctxs:
            yield from self._check_fork_labels(ctx)
        if engine is None:
            return
        engine.solve()
        for qualname in sorted(engine.functions.functions):
            info = engine.functions.functions[qualname]
            analysis = engine.analysis(qualname, "ct")
            seen: set[int] = set()
            for stmt, env in analysis.iter_env():
                for header in analysis.headers(stmt):
                    for node in header.calls:
                        if (call_name(node) == "declassify"
                                and node.args and node.lineno not in seen):
                            tokens = analysis.tokens(node.args[0], env)
                            if not tokens:
                                seen.add(node.lineno)
                                yield Finding(
                                    code="FLOW002",
                                    message=("declassify() argument is never "
                                             "secret-tainted here — either the "
                                             "taint was laundered upstream or "
                                             "the call is unnecessary"),
                                    path=info.ctx.relpath, line=node.lineno,
                                    col=node.col_offset, symbol=info.symbol,
                                    severity=Severity.WARNING,
                                    checker=self.name)

    def _check_fork_labels(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "fork" and node.args):
                label = node.args[0]
                if not _has_literal_component(label):
                    yield Finding(
                        code="FLOW001",
                        message=("fork() label has no literal string "
                                 "component; stream separation becomes "
                                 "data-dependent and two call sites can "
                                 "collide on the same child stream"),
                        path=ctx.relpath, line=node.lineno,
                        col=node.col_offset, symbol=ctx.symbol_at(node),
                        checker=self.name)
