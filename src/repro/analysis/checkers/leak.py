"""LEAK00x — secret-derived values must never reach observability.

The telemetry stack (PR 6) exports span names, metric namespaces and
flight-recorder JSONL off the box; exception messages end up in logs and
CI output.  A secret key fragment formatted into any of those is a real
disclosure, not a style problem.  This checker runs the flow engine's
``"leak"`` taint profile over *every* function — secrets seed from
secret-named parameters in the crypto/pqc/tls units and from
unambiguously secret attribute reads anywhere — and reports when a
secret-derived value reaches:

- ``LEAK001`` a tracer track/span/instant name (Perfetto export),
- ``LEAK002`` a metric name or label (aggregated registry dump),
- ``LEAK003`` a flight-recorder event field (session JSONL),
- ``LEAK004`` an exception message (f-string into ``raise``),
- ``LEAK005`` ``print()`` / ``repr()`` output.

Call-boundary leaks are caught through summaries: passing a secret into
a helper whose innocuously-named parameter reaches a recorder field is
reported at the call site, where the secret is still recognisable.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.finding import Finding, Severity
from repro.analysis.flow.engine import LEAK_SEED_SCOPES, FlowEngine, origin_text
from repro.analysis.flow.taint import in_scope, is_secret_name, iter_leak_sinks
from repro.analysis.registry import Checker, register

_WARNING_CODES = {"LEAK005"}  # stdout is loud but stays on the box


@register
class SecretLeakChecker(Checker):
    name = "leak"
    description = ("secret-derived values must not reach tracer/metric names, "
                   "flight-recorder fields, exception text, or stdout")
    codes = {
        "LEAK001": "secret-derived value in a tracer track/span name",
        "LEAK002": "secret-derived value in a metric name or label",
        "LEAK003": "secret-derived value in a flight-recorder field",
        "LEAK004": "secret-derived value formatted into an exception message",
        "LEAK005": "secret-derived value printed or repr()ed",
    }
    scope = "project"
    needs_engine = True

    def check_project(self, ctxs: list[FileContext],
                      engine: FlowEngine | None = None) -> Iterator[Finding]:
        if engine is None:
            return
        engine.solve()
        for qualname in sorted(engine.functions.functions):
            info = engine.functions.functions[qualname]
            analysis = engine.analysis(qualname, "leak")
            call_map = info.call_map
            seen: set[tuple] = set()
            for stmt, env in analysis.iter_env():
                for code, node, tokens, what in iter_leak_sinks(
                        stmt, env, analysis):
                    secret = frozenset(t for t in tokens if t[0] == "secret")
                    if not secret:
                        continue
                    key = (code, node.lineno, what)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield self._finding(code, info, node.lineno,
                                        getattr(node, "col_offset", 0),
                                        f"{origin_text(secret)} reaches {what}")
                for header in analysis.headers(stmt):
                    for node in header.calls:
                        if node in call_map:
                            yield from self._check_call(
                                engine, info, analysis, node,
                                call_map[node], env, seen)

    def _check_call(self, engine, info, analysis, call, callees, env, seen):
        for qualname in sorted(callees):
            summary = engine.summary(qualname)
            callee = engine.functions.get(qualname)
            if summary is None or callee is None:
                continue
            for index, record in sorted(summary.param_sinks.items()):
                if record.kind != "observability":
                    continue
                if self._direct_covers(callee, index):
                    continue  # the finding inside the callee already fires
                arg = FlowEngine._arg_for_index(call, callee, index)
                if arg is None:
                    continue
                tokens = analysis.tokens(arg, env)
                secret = frozenset(t for t in tokens if t[0] == "secret")
                if not secret:
                    continue
                key = (record.code, call.lineno, qualname, index)
                if key in seen:
                    continue
                seen.add(key)
                param = (callee.param_names[index]
                         if index < len(callee.param_names) else f"#{index}")
                yield self._finding(
                    record.code, info, call.lineno, call.col_offset,
                    f"{origin_text(secret)} flows into "
                    f"{callee.name}({param}=...) and reaches an observability "
                    f"sink there ({record.description})")

    def _finding(self, code: str, info, line: int, col: int,
                 message: str) -> Finding:
        severity = (Severity.WARNING if code in _WARNING_CODES
                    else Severity.ERROR)
        return Finding(code=code, message=message, path=info.ctx.relpath,
                       line=line, col=col, symbol=info.symbol,
                       severity=severity, checker=self.name)

    @staticmethod
    def _direct_covers(callee, index: int) -> bool:
        """True when the leak profile seeds this parameter in the callee."""
        if index < len(callee.param_names):
            return (in_scope(callee.module, LEAK_SEED_SCOPES)
                    and is_secret_name(callee.param_names[index]))
        return False
