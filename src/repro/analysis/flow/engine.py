"""The whole-program engine: summaries solved to a deterministic fixpoint.

:class:`FlowEngine` ties the pieces together.  Construction builds the
module index and the (purely syntactic, hence iteration-stable) call
graph; :meth:`FlowEngine.solve` then runs a worklist over every indexed
function, recomputing its :class:`~repro.analysis.flow.taint.TaintSummary`
from its callees' current summaries and re-enqueuing callers whenever a
summary grows.  Summaries form a finite lattice and only ever grow, so
the fixpoint exists, is unique, and is independent of worklist order —
which is what makes ``--jobs 1`` and ``--jobs N`` findings bit-identical.

Checkers then ask for per-function *profile* analyses:

- ``"summary"`` — every parameter seeded with its own token (used
  internally to build summaries);
- ``"ct"`` — secret-named parameters (every parameter in the strict
  ``repro.crypto.kernels`` scope) seeded as secrets; crypto scope only;
- ``"leak"`` — secret-named parameters seeded in the crypto/pqc/tls
  units, secret-named attribute reads everywhere.

Soundness limits (see DESIGN.md §11): closures over outer locals,
container element tracking, attribute flow through object graphs, and
``*args``/``**kwargs`` forwarding are over- or under-approximated; the
engine is a reviewer that never sleeps, not a verifier.
"""

from __future__ import annotations

import ast
from collections import deque

from repro.analysis.context import FileContext
from repro.analysis.flow.callgraph import FunctionIndex, FunctionInfo
from repro.analysis.flow.imports import ModuleIndex
from repro.analysis.flow.taint import (
    CRYPTO_SCOPES,
    STRICT_SCOPES,
    SECRET_ATTR_RE,
    SECRET_RETURNING,
    FunctionAnalysis,
    SinkRecord,
    TaintSummary,
    _ExprTaint,
    analyze_dataflow,
    ct_seeds,
    in_scope,
    is_secret_name,
    iter_ct_sinks,
    iter_leak_sinks,
    token_text,
)

# units whose secret-named parameters seed the leak analysis; elsewhere a
# parameter called `seed` is public campaign configuration
LEAK_SEED_SCOPES = ("repro.crypto", "repro.pqc", "repro.tls")

_SINK_KIND_TEXT = {"branch": "branch", "loop-bound": "loop bound",
                   "subscript": "subscript index", "observability": "sink"}


class FlowEngine:
    """Build once per run over the analyzed contexts, then query."""

    def __init__(self, ctxs: list[FileContext]):
        self.ctxs = ctxs
        self.modules = ModuleIndex(ctxs)
        self.functions = FunctionIndex(ctxs, self.modules)
        self.summaries: dict[str, TaintSummary] = {}
        self._analyses: dict[tuple[str, str], FunctionAnalysis] = {}
        self._solved = False

    # -- public API ---------------------------------------------------------

    def solve(self) -> "FlowEngine":
        """Run the interprocedural fixpoint (idempotent)."""
        if self._solved:
            return self
        order = sorted(self.functions.functions)
        for qualname in order:
            info = self.functions.functions[qualname]
            self.summaries[qualname] = TaintSummary(
                qualname=qualname, param_names=info.param_names)
        callers: dict[str, set[str]] = {}
        for qualname in order:
            for _, callees in self.functions.functions[qualname].call_sites:
                for callee in callees:
                    callers.setdefault(callee, set()).add(qualname)
        pending = deque(order)
        queued = set(order)
        rounds, cap = 0, 20 * max(1, len(order))
        while pending and rounds < cap:
            rounds += 1
            qualname = pending.popleft()
            queued.discard(qualname)
            summary = self._compute_summary(qualname)
            if summary.state() != self.summaries[qualname].state():
                self.summaries[qualname] = summary
                for caller in sorted(callers.get(qualname, ())):
                    if caller not in queued:
                        pending.append(caller)
                        queued.add(caller)
            else:
                self.summaries[qualname] = summary
        self._solved = True
        return self

    def functions_in_scope(self, scopes: tuple[str, ...]) -> list[FunctionInfo]:
        return [self.functions.functions[q]
                for q in sorted(self.functions.functions)
                if in_scope(self.functions.functions[q].module, scopes)]

    def analysis(self, qualname: str, profile: str) -> FunctionAnalysis:
        """Solved dataflow for one function under a seed profile (cached)."""
        key = (qualname, profile)
        if key not in self._analyses:
            self._analyses[key] = self._analyze(
                self.functions.functions[qualname], profile)
        return self._analyses[key]

    def summary(self, qualname: str) -> TaintSummary | None:
        return self.summaries.get(qualname)

    # -- seeds and expression taint ----------------------------------------

    def _seeds(self, info: FunctionInfo, profile: str) -> dict[str, frozenset]:
        if profile == "ct":
            return ct_seeds(info.node, in_scope(info.module, STRICT_SCOPES))
        env: dict[str, frozenset] = {}
        for index, name in enumerate(info.param_names):
            if profile == "summary":
                env[name] = frozenset({("param", index, name)})
            elif profile == "leak":
                if in_scope(info.module, LEAK_SEED_SCOPES) and is_secret_name(name):
                    env[name] = frozenset({("secret", f"parameter {name!r}")})
        return env

    @staticmethod
    def _attr_sources(node: ast.AST) -> frozenset:
        # `shared_secret_bytes` and friends are *wire-size* constants the
        # algorithm registry publishes, not key material
        if (isinstance(node, ast.Attribute)
                and SECRET_ATTR_RE.search(node.attr)
                and not node.attr.endswith("_bytes")):
            return frozenset({("secret", f"attribute {node.attr!r}")})
        return frozenset()

    def _expr_taint(self, info: FunctionInfo) -> _ExprTaint:
        # the closure holds the tables, not the engine: the engine caches
        # analyses that hold this closure, and a cycle through it would
        # keep every parsed tree of the run alive until a full collection
        call_map, summaries, functions = (info.call_map, self.summaries,
                                          self.functions)

        def call_tokens(call: ast.Call, env: dict, expr: _ExprTaint):
            callees = call_map.get(call)
            if not callees:
                return None  # unresolved: caller falls back to pass-through
            if any(isinstance(arg, ast.Starred) for arg in call.args) \
                    or any(kw.arg is None for kw in call.keywords):
                return None  # *args/**kwargs forwarding: stay conservative
            out: set = set()
            for qualname in callees:
                summary = summaries.get(qualname)
                callee = functions.get(qualname)
                if summary is None or callee is None:
                    return None
                for index in sorted(summary.flows_to_return):
                    arg = FlowEngine._arg_for_index(call, callee, index)
                    if arg is not None:
                        out |= expr.tokens(arg, env)
                if summary.secret_return and (
                        in_scope(callee.module, LEAK_SEED_SCOPES)
                        or callee.name in SECRET_RETURNING):
                    # only crypto/pqc/tls units originate secrets; a netsim
                    # wrapper whose return merely *touched* a secret object
                    # (e.g. Testbed.run_handshake) must not taint every
                    # campaign call site that logs its outcome
                    out.add(("secret", f"{callee.name}() result"))
            return frozenset(out)

        return _ExprTaint(self._attr_sources, call_tokens)

    @staticmethod
    def _arg_for_index(call: ast.Call, callee: FunctionInfo,
                       index: int) -> ast.expr | None:
        offset = 1 if (callee.implicit_self
                       and isinstance(call.func, ast.Attribute)) else 0
        position = index - offset
        if 0 <= position < len(call.args):
            return call.args[position]
        if 0 <= index < len(callee.param_names):
            wanted = callee.param_names[index]
            for keyword in call.keywords:
                if keyword.arg == wanted:
                    return keyword.value
        return None

    def _analyze(self, info: FunctionInfo, profile: str) -> FunctionAnalysis:
        return analyze_dataflow(info.ctx.function_syntax(info.node),
                                self._seeds(info, profile),
                                self._expr_taint(info),
                                parents=info.ctx.parents)

    # -- summary construction ----------------------------------------------

    def _compute_summary(self, qualname: str) -> TaintSummary:
        info = self.functions.functions[qualname]
        analysis = self._analyze(info, "summary")
        flows: set[int] = set()
        secret_return = False
        for token in analysis.return_tokens:
            if token[0] == "param":
                flows.add(token[1])
            elif token[0] == "secret":
                secret_return = True
        sinks: dict[int, SinkRecord] = {}
        allowed_sinks: dict[int, SinkRecord] = {}
        ct_scoped = in_scope(info.module, CRYPTO_SCOPES)
        call_map = info.call_map
        for stmt, env in analysis.iter_env():
            if ct_scoped:
                for kind, code, node, tokens in iter_ct_sinks(stmt, env, analysis):
                    self._record_param_sinks(
                        info, sinks, allowed_sinks, tokens, kind, code,
                        node.lineno,
                        f"`{_SINK_KIND_TEXT[kind]}` at "
                        f"{info.ctx.relpath}:{node.lineno}")
            for code, node, tokens, what in iter_leak_sinks(stmt, env, analysis):
                self._record_param_sinks(
                    info, sinks, allowed_sinks, tokens, "observability", code,
                    node.lineno,
                    f"{what} at {info.ctx.relpath}:{node.lineno}")
            # transitive: an argument that reaches a sink inside a callee
            for header in analysis.headers(stmt):
                for node in header.calls:
                    if node in call_map:
                        self._record_transitive(info, node, call_map[node],
                                                env, analysis, sinks,
                                                allowed_sinks)
        return TaintSummary(
            qualname=qualname, param_names=info.param_names,
            flows_to_return=frozenset(flows), secret_return=secret_return,
            param_sinks=sinks, param_allowed_sinks=allowed_sinks)

    def _record_param_sinks(self, info: FunctionInfo, sinks: dict,
                            allowed_sinks: dict, tokens: frozenset, kind: str,
                            code: str, line: int, description: str) -> None:
        allowed = info.ctx.is_allowed(line, code)
        bucket = allowed_sinks if allowed else sinks
        for token in sorted(tokens):
            if token[0] != "param":
                continue
            index = token[1]
            if index not in bucket:
                bucket[index] = SinkRecord(kind=kind, code=code, line=line,
                                           allowed=allowed,
                                           description=description)

    def _record_transitive(self, info: FunctionInfo, call: ast.Call,
                           callees: list[str], env: dict,
                           analysis: FunctionAnalysis, sinks: dict,
                           allowed_sinks: dict) -> None:
        for qualname in callees:
            summary = self.summaries.get(qualname)
            callee = self.functions.get(qualname)
            if summary is None or callee is None:
                continue
            for callee_index, record in sorted(
                    [*summary.param_sinks.items(),
                     *summary.param_allowed_sinks.items()],
                    key=lambda pair: pair[0]):
                arg = self._arg_for_index(call, callee, callee_index)
                if arg is None:
                    continue
                tokens = analysis.tokens(arg, env)
                bucket = allowed_sinks if record.allowed else sinks
                for token in sorted(tokens):
                    if token[0] != "param" or token[1] in bucket:
                        continue
                    bucket[token[1]] = SinkRecord(
                        kind=record.kind, code=record.code, line=call.lineno,
                        allowed=record.allowed,
                        description=f"via {callee.name}() -> {record.description}")


def origin_text(tokens: frozenset) -> str:
    """Deterministic human origin for a token set (first sorted token)."""
    for token in sorted(tokens):
        return token_text(token)
    return "secret data"
