"""EXC — exception and default-argument hygiene.

Broad catches are how contract violations hide: the original
``except Exception`` around cache reads and handshake driving masked
programming errors as cache misses / handshake failures.  A broad
handler is allowed only when it re-raises (cleanup pattern).  Mutable
default arguments are the classic shared-state bug and ride along here.

The simulation layers (``tls``/``faults``/``netsim``) additionally may
not raise bare ``RuntimeError``: a raw RuntimeError escaping the event
loop aborts an entire campaign with no typed outcome (the failure mode
this repo's fault model exists to prevent).  Raise a domain error
(``TlsError`` subtypes, ``TransportError``, ...) or a named
``RuntimeError`` subclass (``EventLoopRunaway``, ``MissingMarker``)
instead.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.finding import Finding
from repro.analysis.registry import Checker, register

_BROAD = {"Exception", "BaseException"}
_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter"}

# units whose failures must be typed so the testbed can classify outcomes
_NO_BARE_RUNTIME_UNITS = ("repro.tls", "repro.faults", "repro.netsim")


def _reraises(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise) and node.exc is None:
            return True
    return False


def _broad_names(handler: ast.ExceptHandler) -> list[str]:
    if handler.type is None:
        return ["<bare>"]
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    names = []
    for node in types:
        if isinstance(node, ast.Name) and node.id in _BROAD:
            names.append(node.id)
    return names


@register
class ExceptionHygieneChecker(Checker):
    name = "exc"
    description = "no bare/broad `except` without re-raise; no mutable default arguments"
    codes = {
        "EXC001": "bare or broad `except` that does not re-raise",
        "EXC002": "mutable default argument",
        "EXC003": "bare `raise RuntimeError` in a simulation layer",
    }

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not (ctx.module == "repro" or ctx.module.startswith("repro.")):
            return
        sim_unit = any(ctx.module == u or ctx.module.startswith(u + ".")
                       for u in _NO_BARE_RUNTIME_UNITS)

        def finding(code: str, node: ast.AST, message: str) -> Finding:
            return Finding(code=code, message=message, path=ctx.relpath,
                           line=node.lineno, col=node.col_offset,
                           symbol=ctx.symbol_at(node), checker=self.name)

        for node in ctx.nodes:
            if sim_unit and isinstance(node, ast.Raise):
                exc = node.exc
                callee = exc.func if isinstance(exc, ast.Call) else exc
                if isinstance(callee, ast.Name) and callee.id == "RuntimeError":
                    yield finding(
                        "EXC003", node,
                        "bare `raise RuntimeError` in a simulation layer "
                        "escapes the event loop untyped and kills the whole "
                        "campaign; raise a domain error (TlsError subtype, "
                        "TransportError) or a named RuntimeError subclass")
            if isinstance(node, ast.ExceptHandler):
                names = _broad_names(node)
                if names and not _reraises(node):
                    label = "bare `except:`" if names == ["<bare>"] else \
                        f"`except {'/'.join(names)}`"
                    yield finding(
                        "EXC001", node,
                        f"{label} swallows programming errors; catch the specific "
                        "exceptions the operation can raise (or re-raise)")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                        isinstance(default, ast.Call)
                        and isinstance(default.func, ast.Name)
                        and default.func.id in _MUTABLE_CALLS
                    ):
                        yield finding(
                            "EXC002", default,
                            f"mutable default argument in {node.name}(); evaluated "
                            "once and shared across calls — default to None")
