"""CT — constant-time discipline for `repro.crypto` / `repro.pqc`.

A per-function view over the flow taint dataflow: taint seeds from
secret-named parameters (``sk``, ``seed``, ``coins``, ``*secret*``, ...)
and from the secret outputs of ``keygen`` / ``decaps`` calls, follows
assignments flow-sensitively (a public reassignment kills it, a loop
carries it), passes straight through calls, and any secret-dependent
``if``/``while`` condition, ``range()`` loop bound, or subscript index is
flagged.  This is the AST-level analogue of the constant-time C
discipline liboqs/OpenSSL rely on (and OpenSSLNTRU emphasises for key
exchange): pure Python can never be cycle-exact, but it *can* refuse
control flow and memory addressing keyed on secrets, which keeps the
reproduction's algorithms structurally faithful to their specs.

Deliberate declassification (e.g. FO-transform outcomes that the
protocol reveals anyway) goes through
:func:`repro.crypto.constanttime.declassify`, which this checker treats
as a sanitizer — grep for callers to audit every such decision.

``repro.crypto.kernels`` is checked in *strict* mode: every function
parameter is seeded as tainted, whatever its name. Kernels are generic
data-plane code (a polynomial, a table index, a block) whose inputs are
secret whenever their caller's inputs are, so name-based seeding would
systematically under-taint them. The kernels trade timing uniformity
for speed on purpose — Python erases it anyway, and the simulated clock
never reads the host clock — so each table lookup or data-dependent
branch carries an explicit ``pqtls: allow[CT00x]`` pragma at the use
site, which keeps every such decision greppable and reviewed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.finding import Finding
from repro.analysis.flow.engine import origin_text
from repro.analysis.flow.taint import (
    CRYPTO_SCOPES,
    KEYGEN_NAMES,
    SECRET_RETURNING,
    STRICT_SCOPES,
    FunctionSyntax,
    _ExprTaint,
    analyze_dataflow,
    call_name,
    ct_seeds,
    in_scope,
    iter_ct_sinks,
)
from repro.analysis.registry import Checker, register


# the sink phrase each finding's message opens with
_WHAT = {ast.If: "`if` condition", ast.While: "`while` condition",
         ast.IfExp: "conditional expression", ast.Match: "`match` subject",
         ast.match_case: "`match` case guard",
         ast.For: "`range()` loop bound", ast.AsyncFor: "`range()` loop bound",
         ast.Subscript: "subscript index"}


def _mints_secrets(syntax: FunctionSyntax) -> bool:
    """True if the function's statements call a ``keygen``/``decaps``-style
    secret source.

    Calls in nested defs, decorators and defaults do not count: the
    dataflow never evaluates them, so they cannot taint anything.
    """
    return any(call_name(node) in KEYGEN_NAMES | SECRET_RETURNING
               for headers in syntax.headers.values()
               for header in headers for node in header.calls)


@register
class ConstantTimeChecker(Checker):
    name = "ct"
    description = ("no secret-dependent control flow or memory indexing in "
                   "repro.crypto / repro.pqc (per-function taint dataflow)")
    codes = {
        "CT001": "branch condition (`if`/`while`/ternary/`match`) depends on secret data",
        "CT002": "loop bound depends on secret data",
        "CT003": "subscript index depends on secret data",
    }

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not in_scope(ctx.module, CRYPTO_SCOPES):
            return
        strict = in_scope(ctx.module, STRICT_SCOPES)
        expr_taint = _ExprTaint()  # no source hook, calls pass through
        for func in ctx.nodes:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            seeds = ct_seeds(func, strict)
            syntax = ctx.function_syntax(func)
            if not seeds and not _mints_secrets(syntax):
                continue  # nothing in it can ever be tainted
            analysis = analyze_dataflow(syntax, seeds, expr_taint,
                                        parents=ctx.parents)
            for stmt, env in analysis.iter_env():
                for _, code, node, tokens in iter_ct_sinks(stmt, env, analysis):
                    sink = stmt if node is getattr(stmt, "guard", None) else node
                    yield Finding(
                        code=code,
                        message=f"{_WHAT[type(sink)]} depends on {origin_text(tokens)}",
                        path=ctx.relpath, line=node.lineno, col=node.col_offset,
                        symbol=ctx.symbol_at(node), checker=self.name)
