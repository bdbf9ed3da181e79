"""Function index and call-site resolution over the analyzed tree.

Every ``def`` (module-level, method, nested) gets a *qualname* of the
form ``module:Symbol.path`` (``repro.pqc.kyber.kem:KyberKem.decaps``).
Call sites resolve through, in order:

1. **local bindings** — a ``Name`` call to a function defined at module
   level in the same module;
2. **imports** — a ``Name`` or ``module.attr`` call whose base resolves
   through :func:`~repro.analysis.flow.imports.import_bindings` into the
   :class:`~repro.analysis.flow.imports.ModuleIndex`;
3. **self/cls dispatch** — ``self.m(...)`` inside a class body binds to
   that class's own method when it exists;
4. **name-based dispatch** — ``obj.m(...)`` on an unknown receiver links
   to *every* method named ``m`` in the index (bounded class-hierarchy
   analysis without types).  The union of candidate summaries is taken,
   which over-approximates but never silently drops a secret flow; sites
   with more than :data:`MAX_CANDIDATES` candidates stay unresolved
   rather than union half the codebase.

Resolution is purely syntactic, so the call graph is stable across
summary iterations and safe to build once up front.  A call belongs to
its nearest enclosing ``def``, so one pass over each file's node list
attributes every call site.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property

from repro.analysis.context import FileContext
from repro.analysis.flow.imports import ModuleIndex, import_bindings
from repro.analysis.flow.taint import function_params

MAX_CANDIDATES = 10

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class FunctionInfo:
    """One indexed function definition."""

    qualname: str                 # "repro.pqc.kyber.kem:KyberKem.decaps"
    module: str
    symbol: str                   # "KyberKem.decaps" (dotted def chain)
    name: str                     # "decaps"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    ctx: FileContext
    class_name: str | None        # immediate enclosing class, if a method
    param_names: tuple[str, ...] = ()
    call_sites: list = field(default_factory=list)   # [(ast.Call, [qualnames])]

    @property
    def implicit_self(self) -> bool:
        return (self.class_name is not None and bool(self.param_names)
                and self.param_names[0] in ("self", "cls"))

    @cached_property
    def call_map(self) -> dict[ast.Call, list[str]]:
        """Resolved call node -> callee qualnames (read after indexing)."""
        return dict(self.call_sites)


class FunctionIndex:
    """All functions in the analyzed tree, with resolved call sites."""

    def __init__(self, ctxs: list[FileContext], modules: ModuleIndex):
        self.modules = modules
        self.functions: dict[str, FunctionInfo] = {}
        self._methods_by_name: dict[str, list[str]] = {}
        self._bindings: dict[str, dict[str, str]] = {}
        ordered = sorted(ctxs, key=lambda c: c.module)
        for ctx in ordered:
            self._bindings[ctx.module] = import_bindings(ctx)
            self._index_file(ctx)
        # a redefined qualname keeps only its last def; calls inside the
        # shadowed one stay unattributed
        by_node = {info.node: info for info in self.functions.values()}
        for ctx in ordered:
            self._resolve_calls(ctx, by_node)

    # -- indexing -----------------------------------------------------------

    def _index_file(self, ctx: FileContext) -> None:
        for node in ctx.nodes:
            if not isinstance(node, _DEFS):
                continue
            enclosing = ctx.symbol_at(node)
            symbol = f"{enclosing}.{node.name}" if enclosing else node.name
            parent = ctx.parents.get(node)
            class_name = parent.name if isinstance(parent, ast.ClassDef) else None
            info = FunctionInfo(
                qualname=f"{ctx.module}:{symbol}",
                module=ctx.module, symbol=symbol, name=node.name,
                node=node, ctx=ctx, class_name=class_name,
                param_names=tuple(function_params(node)),
            )
            self.functions[info.qualname] = info
            if class_name is not None:
                self._methods_by_name.setdefault(node.name, []).append(info.qualname)

    def get(self, qualname: str) -> FunctionInfo | None:
        return self.functions.get(qualname)

    def lookup(self, module: str, symbol: str) -> FunctionInfo | None:
        return self.functions.get(f"{module}:{symbol}")

    # -- call resolution ----------------------------------------------------

    def _resolve_calls(self, ctx: FileContext,
                       by_node: dict[ast.AST, FunctionInfo]) -> None:
        """Attach each call in *ctx* to its nearest enclosing def's sites.

        The file's node list is in ``ast.walk`` order, so each function's
        sites come out in the order a walk of that function visits them.
        """
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            owner = ctx.parents.get(node)
            while owner is not None and not isinstance(owner, _DEFS):
                owner = ctx.parents.get(owner)
            info = by_node.get(owner)
            if info is not None:
                callees = self.resolve_call(node, info)
                if callees:
                    info.call_sites.append((node, callees))

    def resolve_call(self, call: ast.Call, enclosing: FunctionInfo) -> list[str]:
        """Qualnames a call may reach (sorted; empty when unresolvable)."""
        func = call.func
        bindings = self._bindings.get(enclosing.module, {})
        if isinstance(func, ast.Name):
            local = self.lookup(enclosing.module, func.id)
            if local is not None and func.id not in bindings:
                return [local.qualname]
            return self._resolve_dotted(bindings.get(func.id))
        if isinstance(func, ast.Attribute):
            method = func.attr
            base = func.value
            if isinstance(base, ast.Name):
                if base.id in ("self", "cls") and enclosing.class_name:
                    own = self.lookup(enclosing.module,
                                      f"{enclosing.class_name}.{method}")
                    if own is not None:
                        return [own.qualname]
                bound = bindings.get(base.id)
                if bound is not None:
                    return self._resolve_dotted(f"{bound}.{method}")
            candidates = sorted(self._methods_by_name.get(method, []))
            if 0 < len(candidates) <= MAX_CANDIDATES:
                return candidates
        return []

    def _resolve_dotted(self, dotted: str | None) -> list[str]:
        if not dotted:
            return []
        resolved = self.modules.resolve(dotted)
        if resolved is None:
            return []
        module, symbol = resolved
        if not symbol:
            return []
        info = self.lookup(module, symbol)
        if info is not None:
            return [info.qualname]
        # `from pkg import helper` re-exported through an __init__: follow
        # one level of the target module's own import bindings
        target_bindings = self._bindings.get(module, {})
        forwarded = target_bindings.get(symbol.split(".")[0])
        if forwarded:
            tail = symbol.split(".", 1)
            dotted = forwarded if len(tail) == 1 else f"{forwarded}.{tail[1]}"
            resolved = self.modules.resolve(dotted)
            if resolved is not None:
                info = self.lookup(*resolved)
                if info is not None:
                    return [info.qualname]
        return []
