"""DET — no ambient nondeterminism anywhere under `repro`.

The simulation draws all time from the event loop and all randomness
from :class:`~repro.crypto.drbg.Drbg`; given the same seed every
experiment reproduces bit-exactly, which is what makes cached scripts,
recorded traces, and Table 2–4 regeneration trustworthy.  Wall-clock
reads (`time.time`, `perf_counter`) are allowed only inside `repro.obs`,
whose exporters may anchor simulated spans to host time; the stdlib
`random`, `os.urandom`, and `secrets` entropy sources are banned
everywhere — randomness that bypasses the Drbg silently diverges reruns.

Host parallelism is nondeterminism of a third kind: worker pools reorder
events and fork-inherited state diverges reruns, so process-level
primitives (`multiprocessing`, `concurrent.futures`, `os.cpu_count`,
`os.fork`) are confined to `repro.core.fanout`, the one module that owns
a worker pool — campaigns, sharded traffic runs and the lint runner all
fan out through its `run_sharded`, and the sans-io simulation layers
stay process-free by contract.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.finding import Finding
from repro.analysis.registry import Checker, register

_CLOCK_EXEMPT_PREFIX = "repro.obs"
# the one audited module that owns the worker pool
_PROCESS_EXEMPT_MODULES = ("repro.core.fanout",)

_TIME_FUNCS = {
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
}
_DATETIME_AMBIENT = {"now", "today", "utcnow"}
_PROCESS_MODULES = {"multiprocessing", "concurrent"}
_OS_PROCESS_FUNCS = {"cpu_count", "process_cpu_count", "fork", "forkpty"}


@register
class DeterminismChecker(Checker):
    name = "det"
    description = ("all time from the event loop, all randomness from Drbg: "
                   "no ambient clocks, entropy sources, or process-level "
                   "parallelism (outside repro.core.fanout) under repro")
    codes = {
        "DET001": "wall-clock read outside repro.obs (time.time/monotonic/perf_counter/...)",
        "DET002": "stdlib `random` module used (randomness must flow through Drbg)",
        "DET003": "OS entropy used (`os.urandom` / `secrets`); keys would differ per run",
        "DET004": "ambient `datetime.now()`/`today()`/`utcnow()` read",
        "DET005": "process-level parallelism outside repro.core.fanout "
                  "(multiprocessing/concurrent.futures/os.cpu_count)",
    }

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not (ctx.module == "repro" or ctx.module.startswith("repro.")):
            return
        clock_exempt = (ctx.module == _CLOCK_EXEMPT_PREFIX
                        or ctx.module.startswith(_CLOCK_EXEMPT_PREFIX + "."))
        process_exempt = ctx.module in _PROCESS_EXEMPT_MODULES

        def finding(code: str, node: ast.AST, message: str) -> Finding:
            return Finding(code=code, message=message, path=ctx.relpath,
                           line=node.lineno, col=node.col_offset,
                           symbol=ctx.symbol_at(node), checker=self.name)

        # module aliases: {"time": "time", "t": "time", ...}
        aliases: dict[str, str] = {}
        for node in ctx.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    aliases[alias.asname or alias.name.split(".")[0]] = root
                    if root == "random":
                        yield finding("DET002", node, "`import random`; use Drbg instead")
                    elif root == "secrets":
                        yield finding("DET003", node, "`import secrets`; use Drbg instead")
                    elif root in _PROCESS_MODULES and not process_exempt:
                        yield finding("DET005", node,
                                      f"`import {alias.name}`; worker pools live in "
                                      "repro.core.fanout only")
            elif isinstance(node, ast.ImportFrom) and node.module is not None:
                root = node.module.split(".")[0]
                if root == "random":
                    yield finding("DET002", node,
                                  "`from random import ...`; use Drbg instead")
                elif root == "secrets":
                    yield finding("DET003", node,
                                  "`from secrets import ...`; use Drbg instead")
                elif root == "time" and not clock_exempt:
                    names = [a.name for a in node.names if a.name in _TIME_FUNCS]
                    if names:
                        yield finding("DET001", node,
                                      f"`from time import {', '.join(names)}`; "
                                      "simulated time comes from the event loop")
                elif root in _PROCESS_MODULES and not process_exempt:
                    yield finding("DET005", node,
                                  f"`from {node.module} import ...`; worker pools "
                                  "live in repro.core.fanout only")
                elif root == "datetime":
                    # track `from datetime import datetime/date` for call checks
                    for alias in node.names:
                        aliases[alias.asname or alias.name] = f"datetime.{alias.name}"

        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or not isinstance(func.value, ast.Name):
                continue
            base = aliases.get(func.value.id, func.value.id)
            if base == "time" and func.attr in _TIME_FUNCS and not clock_exempt:
                yield finding("DET001", node,
                              f"`time.{func.attr}()` outside repro.obs; "
                              "simulated time comes from the event loop")
            elif base == "os" and func.attr == "urandom":
                yield finding("DET003", node,
                              "`os.urandom()`; draw from Drbg so runs reproduce")
            elif base == "os" and func.attr in _OS_PROCESS_FUNCS \
                    and not process_exempt:
                yield finding("DET005", node,
                              f"`os.{func.attr}()`; host CPU topology and process "
                              "control belong to repro.core.fanout only")
            elif base in ("datetime", "datetime.datetime", "datetime.date") \
                    and func.attr in _DATETIME_AMBIENT and not node.args:
                yield finding("DET004", node,
                              f"ambient `{func.value.id}.{func.attr}()`; pass explicit "
                              "time in or derive it from the simulation")
