"""LAYER — the declared import DAG of the reproduction.

The dependency order is ``crypto → pqc → tls → faults → netsim → core →
traffic``:
each unit may import itself and anything strictly below.  ``repro.obs``
is importable by every unit but may import nothing from ``repro`` except
itself (it must stay attachable anywhere); ``repro.cache`` sits between
``obs`` and the simulation and is importable by ``netsim``/``core``
only.  The sans-io property is enforced directly: ``crypto``/``pqc``/
``tls`` can never import ``repro.netsim`` — and no simulation unit may
import real-I/O stdlib modules (``socket``, ``asyncio``, ...), which is
what keeps handshakes a deterministic function of the in-order byte
stream (and recorded scripts replayable).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.finding import Finding
from repro.analysis.flow.imports import import_statement_targets
from repro.analysis.registry import Checker, register

# unit -> repro units it may import (besides itself); "*" = anything
# "faults" (plans, outcomes, typed failures) sits between tls and netsim:
# it may read tls (alert names) and below, and netsim/core build on it
ALLOWED_IMPORTS: dict[str, set[str]] = {
    "obs": set(),
    "cache": {"obs"},
    "crypto": {"obs"},
    "pqc": {"crypto", "obs"},
    "tls": {"pqc", "crypto", "obs"},
    "faults": {"tls", "pqc", "crypto", "obs"},
    "netsim": {"faults", "tls", "pqc", "crypto", "obs", "cache"},
    "core": {"netsim", "faults", "tls", "pqc", "crypto", "obs", "cache"},
    # traffic (load engine) sits on top of core: it calibrates via the
    # netsim testbed, prices bursts with tls action costs, forks DRBGs,
    # and fans shards out through core.fanout.  Nothing below imports it.
    "traffic": {"core", "netsim", "tls", "crypto", "obs"},
    "analysis": {"*"},
}

# real-I/O / concurrency stdlib modules forbidden in the simulation units
_IO_STDLIB = {"socket", "asyncio", "selectors", "ssl", "threading", "multiprocessing"}
_IO_FORBIDDEN_UNITS = {"crypto", "pqc", "tls", "faults", "netsim", "obs", "cache",
                       "traffic"}

# named exemptions: (module, stdlib root) pairs allowed despite the rule.
# The self-profiler needs a sampling thread over the *host* clock; it only
# reads interpreter frames and never touches simulation state.
_IO_EXEMPT = {("repro.obs.profiler", "threading")}


def unit_of(module: str) -> str | None:
    """The layer unit of a dotted repro module name (None if not repro)."""
    if module == "repro":
        return ""
    if not module.startswith("repro."):
        return None
    return module.split(".")[1]


@register
class LayerChecker(Checker):
    name = "layer"
    description = ("imports follow the declared DAG crypto → pqc → tls → faults "
                   "→ netsim → core (obs shared, cache for netsim/core); sans-io "
                   "units never import real-I/O stdlib")
    codes = {
        "LAYER001": "repro import that violates the layer DAG",
        "LAYER002": "real-I/O or concurrency stdlib import in a sans-io unit",
    }

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        unit = unit_of(ctx.module)
        if unit is None or unit == "":
            return
        allowed = ALLOWED_IMPORTS.get(unit)
        if allowed is not None and "*" in allowed:
            return

        def finding(code: str, node: ast.AST, message: str) -> Finding:
            return Finding(code=code, message=message, path=ctx.relpath,
                           line=node.lineno, col=node.col_offset,
                           symbol=ctx.symbol_at(node), checker=self.name)

        for node in ctx.nodes:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            # shared resolution with the flow engine: correct for package
            # __init__.py files, where a naive rsplit lands one level high
            targets = import_statement_targets(ctx, node)
            if not targets:
                continue
            for target in targets:
                target_unit = unit_of(target)
                if target_unit is None:
                    root = target.split(".")[0]
                    if root in _IO_STDLIB and unit in _IO_FORBIDDEN_UNITS \
                            and (ctx.module, root) not in _IO_EXEMPT:
                        yield finding(
                            "LAYER002", node,
                            f"repro.{unit} imports `{root}`: the stack is sans-io "
                            "and the testbed is simulated; real I/O breaks "
                            "deterministic replay")
                    continue
                if target_unit in ("", unit):
                    # `from repro import cache` imports the unit named by the
                    # alias, not the root package
                    if isinstance(node, ast.ImportFrom) and target == "repro":
                        for alias in node.names:
                            sub_unit = alias.name
                            if sub_unit != unit and allowed is not None \
                                    and sub_unit not in allowed:
                                yield finding(
                                    "LAYER001", node,
                                    f"repro.{unit} may not import repro.{sub_unit} "
                                    f"(allowed: {', '.join(sorted(allowed)) or 'nothing'})")
                    continue
                if allowed is None or target_unit not in allowed:
                    permitted = ", ".join(sorted(allowed)) if allowed else "nothing"
                    yield finding(
                        "LAYER001", node,
                        f"repro.{unit} may not import repro.{target_unit} "
                        f"(allowed: {permitted})")
