"""Each syntax tree is walked once per run: the node list, the per-function
syntax, and the CFG count that keeps a later change from rebuilding them."""

from __future__ import annotations

import ast
import pickle
import textwrap
from collections import Counter

import pytest

from repro.analysis.context import FileContext
from repro.analysis.flow import engine as flow_engine
from repro.analysis.flow import taint
from repro.analysis.flow.taint import header_exprs

# nested comprehensions, a match, walruses and nested defs: the shapes
# whose walk order the sink checks and comprehension binding rely on
SHAPES = '''
def outer(sk, rows):
    grid = [[cell for cell in row if (seen := cell)] for row in rows]

    def inner(flag):
        def innermost():
            return {k: v for k, v in zip(rows, [x for x in sk])}
        return flag[0] if flag else innermost()

    match sk:
        case [first, *rest] if (n := len(rest)):
            return inner(first)[n]
        case {"key": value}:
            return value
        case _:
            pass
    while (chunk := rows.pop()):
        grid.append(sk[chunk] if chunk else (lambda y: y)(chunk))
    return grid, seen


class Holder:
    def method(self, xs=[i for i in range(3)]):
        return sorted({y: [z for z in y] for y in xs}.items())
'''


def _assert_walk_order(ctx: FileContext) -> None:
    expected = list(ast.walk(ctx.tree))
    assert len(ctx.nodes) == len(expected)
    assert all(got is want for got, want in zip(ctx.nodes, expected))
    parents = {child: node for node in expected
               for child in ast.iter_child_nodes(node)}
    assert ctx.parents.keys() == parents.keys()
    assert all(ctx.parents[child] is parent
               for child, parent in parents.items())


def _shapes_context(tmp_path) -> FileContext:
    path = tmp_path / "shapes.py"
    path.write_text(textwrap.dedent(SHAPES), encoding="utf-8")
    return FileContext.load(path, tmp_path)


def _analysis_contexts(repo_root):
    package = repo_root / "src" / "repro" / "analysis"
    return [FileContext.load(path, repo_root)
            for path in sorted(package.rglob("*.py"))]


def test_node_list_is_the_walk_order(tmp_path, repo_root):
    contexts = [_shapes_context(tmp_path), *_analysis_contexts(repo_root)]
    assert len(contexts) > 20
    for ctx in contexts:
        _assert_walk_order(ctx)


def test_node_list_survives_a_pickle_round_trip(tmp_path, repo_root):
    for ctx in [_shapes_context(tmp_path), *_analysis_contexts(repo_root)]:
        for node in ctx.nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                ctx.function_syntax(node)
        restored = pickle.loads(pickle.dumps(ctx))
        _assert_walk_order(restored)
        assert restored._syntax == {}     # per-function syntax never ships


def _of(walk: list[ast.AST], *types: type) -> tuple[ast.AST, ...]:
    return tuple(node for node in walk if isinstance(node, types))


@pytest.mark.parametrize("source", ["shapes", "analysis"])
def test_cached_header_nodes_equal_fresh_walks(tmp_path, repo_root, source):
    contexts = ([_shapes_context(tmp_path)] if source == "shapes"
                else _analysis_contexts(repo_root))
    walruses = 0
    for ctx in contexts:
        for func in ctx.nodes:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            syntax = ctx.function_syntax(func)
            assert ctx.function_syntax(func) is syntax
            stmts = [stmt for block in syntax.cfg.blocks for stmt in block.stmts]
            assert syntax.headers.keys() == set(stmts)
            for stmt in stmts:
                headers = syntax.headers[stmt]
                exprs = header_exprs(stmt)
                assert len(headers) == len(exprs)
                for header, expr in zip(headers, exprs):
                    assert header.expr is expr
                    walk = list(ast.walk(expr))
                    assert header.calls == _of(walk, ast.Call)
                    assert header.sinks == _of(walk, ast.IfExp, ast.Subscript)
                    assert header.comprehensions == _of(
                        walk, ast.ListComp, ast.SetComp, ast.DictComp,
                        ast.GeneratorExp)
                    assert header.walruses == _of(walk, ast.NamedExpr)
                    walruses += len(header.walruses)
            assert syntax.walruses == any(
                h.walruses for hs in syntax.headers.values() for h in hs)
    if source == "shapes":
        # the while test and the comprehension; a case guard is no header
        assert walruses == 2


CALL_CHAIN = {
    "repro/pqc/kem.py": """
        from repro.pqc.helpers import derive, mix

        def decaps(secret_key, ct):
            if secret_key[0]:
                return derive(ct)
            return mix(ct[0])
    """,
    "repro/pqc/helpers.py": """
        def mix(flag):
            if flag:
                return 1
            return 0

        def derive(sk):
            return [mix(b) for b in sk]

        def relay(data):
            return derive(data)
    """,
    "repro/obs/report.py": """
        def show(tracer, value):
            tracer.span(value, "name")
    """,
}


def test_each_function_cfg_is_built_once_per_run(lint_tree, monkeypatch):
    built: Counter = Counter()
    real_build = taint.build_cfg

    def counting_build(func):
        built[func.name] += 1
        return real_build(func)

    summaries: Counter = Counter()
    real_summary = flow_engine.FlowEngine._compute_summary

    def counting_summary(engine, qualname):
        summaries[qualname] += 1
        return real_summary(engine, qualname)

    monkeypatch.setattr(taint, "build_cfg", counting_build)
    monkeypatch.setattr(flow_engine.FlowEngine, "_compute_summary",
                        counting_summary)
    report = lint_tree(CALL_CHAIN)
    assert [f.code for f in report.findings] == ["CT001"]
    # the file-scope CT checker, every summary round and the ct/leak
    # profiles all read the one CFG each function got
    assert built == {name: 1 for name in
                     ("decaps", "mix", "derive", "relay", "show")}
    assert sum(summaries.values()) > len(summaries)
