"""Per-function control-flow graphs for flow-sensitive taint tracking.

A :class:`Cfg` is a list of basic blocks over the *statements* of one
function.  Compound statements appear inside a block as their own
header — the transfer function evaluates only their header expressions
(an ``if``'s test, a ``for``'s iterable, a ``with``'s items, a
``match``'s subject) — while their bodies live in successor blocks.
``except`` handlers and ``match`` cases are represented by their
``ExceptHandler`` / ``match_case`` nodes as pseudo-statements so the
transfer function can model the names they bind.

Loops get a dedicated header block with a back edge from the body, so a
fixpoint over the graph kills taint at a public reassignment
(``x = sk; x = 0`` leaves ``x`` clean) yet carries it around loops.

Conservative choices (documented in DESIGN.md §11): every block inside a
``try`` body edges to every handler (an exception can fly mid-block),
and a ``match`` keeps a fall-through edge even when a wildcard case
exists.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

_LOOPS = (ast.While, ast.For, ast.AsyncFor)


@dataclass
class Block:
    """One basic block: straight-line statements plus edge lists."""

    index: int
    stmts: list[ast.AST] = field(default_factory=list)
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)


@dataclass
class Cfg:
    """Blocks in creation order; block 0 is the entry."""

    blocks: list[Block]

    @property
    def entry(self) -> Block:
        return self.blocks[0]


class _Builder:
    def __init__(self) -> None:
        self.blocks: list[Block] = []
        self.break_collectors: list[list[int]] = []
        self.loop_headers: list[int] = []

    def new_block(self) -> int:
        self.blocks.append(Block(len(self.blocks)))
        return len(self.blocks) - 1

    def link(self, src: int, dst: int) -> None:
        if dst not in self.blocks[src].succs:
            self.blocks[src].succs.append(dst)
            self.blocks[dst].preds.append(src)

    def seq(self, stmts: list[ast.stmt], frontier: list[int]) -> list[int]:
        """Emit *stmts* reachable from *frontier*; return the exit frontier."""
        open_id: int | None = None

        def current() -> int:
            nonlocal open_id, frontier
            if open_id is None:
                open_id = self.new_block()
                for src in frontier:
                    self.link(src, open_id)
                frontier = [open_id]
            return open_id

        for stmt in stmts:
            if isinstance(stmt, ast.If):
                header = current()
                self.blocks[header].stmts.append(stmt)
                then_exit = self.seq(stmt.body, [header])
                else_exit = self.seq(stmt.orelse, [header]) if stmt.orelse else [header]
                open_id, frontier = None, then_exit + else_exit
            elif isinstance(stmt, _LOOPS):
                # dedicated header so the back edge re-evaluates only the
                # loop condition / iterable, never earlier statements
                header = self.new_block()
                for src in frontier:
                    self.link(src, header)
                self.blocks[header].stmts.append(stmt)
                self.break_collectors.append([])
                self.loop_headers.append(header)
                for exit_id in self.seq(stmt.body, [header]):
                    self.link(exit_id, header)
                breaks = self.break_collectors.pop()
                self.loop_headers.pop()
                orelse_exit = self.seq(stmt.orelse, [header]) if stmt.orelse else [header]
                open_id, frontier = None, orelse_exit + breaks
            elif isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
                first_body_block = len(self.blocks)
                body_exit = self.seq(stmt.body, frontier)
                body_blocks = list(range(first_body_block, len(self.blocks)))
                handler_exits: list[int] = []
                for handler in stmt.handlers:
                    entry = self.new_block()
                    self.blocks[entry].stmts.append(handler)
                    for block_id in body_blocks or frontier:
                        self.link(block_id, entry)
                    handler_exits += self.seq(handler.body, [entry])
                orelse_exit = self.seq(stmt.orelse, body_exit) if stmt.orelse else body_exit
                after = orelse_exit + handler_exits
                if stmt.finalbody:
                    after = self.seq(stmt.finalbody, after)
                open_id, frontier = None, after
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                header = current()
                self.blocks[header].stmts.append(stmt)
                body_exit = self.seq(stmt.body, [header])
                open_id, frontier = None, body_exit
            elif isinstance(stmt, ast.Match):
                header = current()
                self.blocks[header].stmts.append(stmt)
                exits: list[int] = [header]
                for case in stmt.cases:
                    entry = self.new_block()
                    self.blocks[entry].stmts.append(case)
                    self.link(header, entry)
                    exits += self.seq(case.body, [entry])
                open_id, frontier = None, exits
            elif isinstance(stmt, (ast.Return, ast.Raise)):
                self.blocks[current()].stmts.append(stmt)
                open_id, frontier = None, []
            elif isinstance(stmt, ast.Break):
                block = current()
                self.blocks[block].stmts.append(stmt)
                if self.break_collectors:
                    self.break_collectors[-1].append(block)
                open_id, frontier = None, []
            elif isinstance(stmt, ast.Continue):
                block = current()
                self.blocks[block].stmts.append(stmt)
                if self.loop_headers:
                    self.link(block, self.loop_headers[-1])
                open_id, frontier = None, []
            else:
                # simple statement (assignments, expressions, nested defs,
                # imports, ...) — straight-line, stays in the open block
                self.blocks[current()].stmts.append(stmt)
        return frontier


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Cfg:
    """Build the CFG of one function; block 0 is always the entry."""
    builder = _Builder()
    entry = builder.new_block()
    builder.seq(func.body, [entry])
    return Cfg(blocks=builder.blocks)
