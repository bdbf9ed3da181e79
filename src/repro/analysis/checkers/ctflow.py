"""CT1xx — interprocedural constant-time findings.

The per-function CT checker (``repro.analysis.checkers.ct``) can only see
secrets that are *named* like secrets inside one function.  The moment a
secret key crosses a call boundary into a parameter called ``data`` or
``value``, the intraprocedural analysis loses it — and the callee happily
branches on it.  This checker closes that gap using the whole-program
:class:`~repro.analysis.flow.engine.FlowEngine` summaries: for every
function in the crypto/pqc scope it runs the flow-sensitive ``"ct"``
taint profile and reports call sites where a secret-derived argument
reaches a live variable-time sink inside the callee (transitively, via
the summary fixpoint).

To avoid double-reporting, sinks the intraprocedural checker already
flags are skipped: a callee parameter that is itself secret-named inside
the crypto scope (the intra checker seeds it), and callees in the strict
kernel scope (every parameter is seeded there).  What remains is exactly
the interprocedural residue.

``CT110`` is the summary-driven strict mode for kernel callers: a NOTE
when a ``repro.crypto.kernels`` function routes a secret into a
*pragma-allowed* variable-time sink elsewhere — the pragma was judged at
the sink, and this note keeps the judgement visible at every kernel call
site that relies on it.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.finding import Finding, Severity
from repro.analysis.flow.engine import FlowEngine, origin_text
from repro.analysis.flow.taint import (
    CRYPTO_SCOPES,
    STRICT_SCOPES,
    in_scope,
    is_secret_name,
)
from repro.analysis.registry import Checker, register

_KIND_CODE = {"branch": "CT101", "loop-bound": "CT102", "subscript": "CT103"}
_KIND_TEXT = {"branch": "a branch", "loop-bound": "a loop bound",
              "subscript": "a memory index"}


@register
class InterproceduralCtChecker(Checker):
    name = "ctflow"
    description = ("secrets must stay constant-time across call boundaries: "
                   "summary-driven taint from the whole-program flow engine")
    codes = {
        "CT101": "secret-derived argument reaches a branch inside a callee",
        "CT102": "secret-derived argument reaches a loop bound inside a callee",
        "CT103": "secret-derived argument indexes memory inside a callee",
        "CT110": "kernel caller routes a secret into a pragma-allowed "
                 "variable-time sink",
    }
    scope = "project"
    needs_engine = True

    def check_project(self, ctxs: list[FileContext],
                      engine: FlowEngine | None = None) -> Iterator[Finding]:
        if engine is None:
            return
        engine.solve()
        for info in engine.functions_in_scope(CRYPTO_SCOPES):
            analysis = engine.analysis(info.qualname, "ct")
            call_map = info.call_map
            seen: set[tuple] = set()
            for stmt, env in analysis.iter_env():
                for header in analysis.headers(stmt):
                    for node in header.calls:
                        if node in call_map:
                            yield from self._check_call(
                                engine, info, analysis, node,
                                call_map[node], env, seen)

    def _check_call(self, engine, info, analysis, call, callees, env, seen):
        strict_caller = in_scope(info.module, STRICT_SCOPES)
        for qualname in sorted(callees):
            summary = engine.summary(qualname)
            callee = engine.functions.get(qualname)
            if summary is None or callee is None:
                continue
            records = [(index, record, False)
                       for index, record in sorted(summary.param_sinks.items())]
            if strict_caller:
                records += [(index, record, True) for index, record
                            in sorted(summary.param_allowed_sinks.items())]
            for index, record, allowed in records:
                code = _KIND_CODE.get(record.kind)
                if code is None:
                    continue  # observability sinks belong to the LEAK checker
                if not allowed and self._intra_covers(callee, index):
                    continue
                arg = FlowEngine._arg_for_index(call, callee, index)
                if arg is None:
                    continue
                tokens = analysis.tokens(arg, env)
                secret = frozenset(t for t in tokens if t[0] == "secret")
                if not secret:
                    continue
                final = "CT110" if allowed else code
                key = (final, call.lineno, qualname, index)
                if key in seen:
                    continue
                seen.add(key)
                param = (callee.param_names[index]
                         if index < len(callee.param_names) else f"#{index}")
                if allowed:
                    message = (
                        f"{origin_text(secret)} flows into "
                        f"{callee.name}({param}=...), reaching a variable-time "
                        f"sink that is pragma-allowed there "
                        f"({record.description}); the kernel caller inherits "
                        "that timing behaviour")
                    severity = Severity.NOTE
                else:
                    message = (
                        f"{origin_text(secret)} flows into "
                        f"{callee.name}({param}=...) and reaches "
                        f"{_KIND_TEXT[record.kind]} there "
                        f"({record.description}); the intraprocedural CT "
                        "checker cannot see across this call")
                    severity = Severity.ERROR
                yield Finding(
                    code=final, message=message, path=info.ctx.relpath,
                    line=call.lineno, col=call.col_offset,
                    symbol=info.symbol, severity=severity, checker=self.name)

    @staticmethod
    def _intra_covers(callee, index: int) -> bool:
        """True when the per-function CT checker already flags this sink."""
        if not in_scope(callee.module, CRYPTO_SCOPES):
            return False
        if in_scope(callee.module, STRICT_SCOPES):
            return True  # strict mode seeds every parameter
        if index < len(callee.param_names):
            return is_secret_name(callee.param_names[index])
        return False
