"""OBS — telemetry naming and registry discipline.

Every metric flows through the ``repro.obs.metrics`` registry and every
span lands on a tracer track; downstream tooling (snapshot merging,
``counters_with_prefix`` aggregation, Chrome-trace export, the
perf-regression gate's flattened metric paths) all key on those names.
A single ``HandshakeTime`` or ``cache hit`` literal silently forks the
namespace: it merges with nothing, matches no prefix query, and shows up
as a new column in ``BENCH_*.json``.  So metric names must be dotted
lowercase (``tls.handshake.total``), track names likewise (dashes
allowed: ``host-cpu``), and stat accumulation must go through the
registry rather than ad-hoc dicts — a dict is invisible to
``snapshot``/``merge_snapshot`` and therefore silently wrong at
``--jobs N``.

Span *display* names (``tracer.span(track, name, ...)``'s second
argument) are deliberately out of scope: they are human-facing labels
(``"partA (CH..SH)"``) that golden trace outputs depend on.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.finding import Finding
from repro.analysis.registry import Checker, register

METRIC_NAME = re.compile(r"^[a-z0-9_.]+$")
METRIC_CHUNK = re.compile(r"^[a-z0-9_.]*$")   # literal parts of f-strings
TRACK_NAME = re.compile(r"^[a-z0-9_.-]+$")

# registry creation calls: the single positional argument is the metric name
_REGISTRY_METHODS = {"counter", "gauge", "histogram"}
# registry shortcuts: first positional argument is the metric name
_SHORTCUT_METHODS = {"inc", "set", "observe"}
# tracer calls whose first positional argument is a track name
_TRACK_METHODS = {"span", "begin", "instant", "spans_on"}

# variable names that smell like a shadow metrics store when bound to a
# dict literal outside repro.obs
_ADHOC_NAMES = re.compile(r"^(stats|_?[a-z0-9_]*_stats)$")


def _literal_ok(node: ast.expr, pattern: re.Pattern, chunk: re.Pattern) -> bool:
    """True unless *node* is a string literal that violates *pattern*.

    Non-literals (variables, attribute reads) pass: naming is enforced
    where the literal is written down.  f-strings are checked on their
    literal chunks only — the formatted holes are runtime values.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return bool(pattern.match(node.value))
    if isinstance(node, ast.JoinedStr):
        return all(chunk.match(part.value)
                   for part in node.values
                   if isinstance(part, ast.Constant) and isinstance(part.value, str))
    return True


@register
class ObsNamingChecker(Checker):
    name = "obs"
    description = "dotted-lowercase metric/track names; no ad-hoc stats dicts"
    codes = {
        "OBS001": "metric name is not dotted lowercase [a-z0-9_.]",
        "OBS002": "tracer track name is not dotted lowercase [a-z0-9_.-]",
        "OBS003": "ad-hoc stats dict outside repro.obs",
    }

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not (ctx.module == "repro" or ctx.module.startswith("repro.")):
            return
        in_obs = ctx.module == "repro.obs" or ctx.module.startswith("repro.obs.")

        def finding(code: str, node: ast.AST, message: str) -> Finding:
            return Finding(code=code, message=message, path=ctx.relpath,
                           line=node.lineno, col=node.col_offset,
                           symbol=ctx.symbol_at(node), checker=self.name)

        for node in ctx.nodes:
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                method = node.func.attr
                if node.args:
                    first = node.args[0]
                    is_metric = (method in _REGISTRY_METHODS and len(node.args) == 1) \
                        or (method in _SHORTCUT_METHODS and len(node.args) >= 2)
                    if is_metric and not _literal_ok(first, METRIC_NAME, METRIC_CHUNK):
                        yield finding(
                            "OBS001", first,
                            f"metric name {ast.unparse(first)} passed to "
                            f".{method}() must be dotted lowercase "
                            "[a-z0-9_.] — off-pattern names fork the "
                            "registry namespace and break snapshot merging "
                            "and prefix aggregation")
                    if method in _TRACK_METHODS and not _literal_ok(
                            first, TRACK_NAME, TRACK_NAME):
                        yield finding(
                            "OBS002", first,
                            f"track name {ast.unparse(first)} passed to "
                            f".{method}() must match [a-z0-9_.-] — tracks key "
                            "trace export and flame attribution")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and not in_obs:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                value = node.value
                if not isinstance(value, (ast.Dict, ast.DictComp)):
                    continue
                for target in targets:
                    if isinstance(target, ast.Name) and _ADHOC_NAMES.match(target.id):
                        yield finding(
                            "OBS003", node,
                            f"ad-hoc stats dict `{target.id}` — a plain dict "
                            "is invisible to Metrics.snapshot/merge_snapshot "
                            "and silently wrong under --jobs N; create "
                            "instruments through the repro.obs registry")
