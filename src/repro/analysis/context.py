"""Per-file analysis context: source, AST, module name, pragmas."""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

# ``allow[CT001]`` or ``allow[CT001,DET002]`` after the pqtls marker; a
# pragma on a line of its own applies to the next statement line (skipping any further
# comment lines, so a pragma may head a multi-line justification). A pragma
# that lands on the first line of a multi-line *simple* statement is widened
# to the whole statement span (see FileContext.load) — findings anchor on
# the AST node, which may sit on a continuation line.
_PRAGMA_RE = re.compile(r"#\s*pqtls:\s*allow\[([A-Z]+\d*(?:\s*,\s*[A-Z]+\d*)*)\]")


def parse_pragmas(source: str) -> dict[int, dict[str, set[int]]]:
    """Map line number -> {allowed code -> declaring pragma lines}.

    The declaring line (where the ``# pqtls: allow[...]`` comment itself
    sits) rides along so the runner can attribute each suppression back
    to its pragma — that attribution is what ``--check-pragmas`` uses to
    flag declarations that no longer suppress anything (ANA001).

    Tokenizing (rather than regexing raw lines) keeps pragma-looking text
    inside string literals from suppressing anything.
    """
    allowed: dict[int, dict[str, set[int]]] = {}

    def cover(line: int, codes: set[str], decl: int) -> None:
        slot = allowed.setdefault(line, {})
        for code in codes:
            slot.setdefault(code, set()).add(decl)

    try:
        tokens = list(tokenize.generate_tokens(StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # half-written file: no pragmas
        return allowed
    lines = source.splitlines()
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.search(tok.string)
        if not match:
            continue
        codes = {code.strip() for code in match.group(1).split(",")}
        line = tok.start[0]
        cover(line, codes, line)
        # a standalone pragma comment covers the next *code* line, so a
        # pragma may open a multi-line comment explaining the allowance
        if lines[line - 1].lstrip().startswith("#"):
            target = line + 1
            while target <= len(lines) and lines[target - 1].lstrip().startswith("#"):
                target += 1
            cover(target, codes, line)
    return allowed


def _widen_pragmas(nodes: list[ast.AST],
                   pragmas: dict[int, dict[str, set[int]]]) -> None:
    """Extend first-line pragmas over their statement's whole line span.

    Simple statements (assignments, returns, expression statements) are
    covered in full. Compound statements extend only over their header —
    the ``if``/``while`` test or ``for`` iterable — never the body, so a
    pragma can't silently blanket a whole block.
    """
    for node in nodes:
        codes = pragmas.get(getattr(node, "lineno", -1))
        if not codes or not isinstance(node, ast.stmt):
            continue
        if isinstance(node, (ast.If, ast.While)):
            end = node.test.end_lineno
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            end = node.iter.end_lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                               ast.With, ast.AsyncWith, ast.Try, ast.Match)):
            continue
        else:
            end = node.end_lineno
        for line in range(node.lineno + 1, (end or node.lineno) + 1):
            slot = pragmas.setdefault(line, {})
            for code, decls in codes.items():
                slot.setdefault(code, set()).update(decls)


def module_name_for(path: Path) -> str:
    """Dotted module name, derived by walking up through __init__.py dirs."""
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts)


def _walk_with_parents(tree: ast.AST) -> tuple[list[ast.AST], dict[ast.AST, ast.AST]]:
    """Every node under *tree* in ``ast.walk`` order, and each one's parent.

    ``ast.walk`` is a breadth-first walk, and so is appending each node's
    children to the list while iterating it: the two orders agree.
    """
    nodes: list[ast.AST] = [tree]
    parents: dict[ast.AST, ast.AST] = {}
    for node in nodes:
        for child in ast.iter_child_nodes(node):
            parents[child] = node
            nodes.append(child)
    return nodes, parents


@dataclass
class FileContext:
    """Everything a file-scoped checker needs about one source file.

    The file is walked once, at load: checkers iterate :attr:`nodes`
    rather than walking :attr:`tree` again. Per-function syntax (CFGs,
    header nodes) is built on first use by :meth:`function_syntax` and
    shared by every analysis of that function in this run.
    """

    path: Path
    relpath: str                      # project-root-relative, posix
    module: str                       # dotted import name ("repro.tls.client")
    source: str
    tree: ast.Module
    # covered line -> {code -> lines of the pragma comments declaring it}
    pragmas: dict[int, dict[str, set[int]]] = field(default_factory=dict)
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)
    nodes: list[ast.AST] = field(default_factory=list, repr=False, compare=False)
    # function node -> FunctionSyntax, filled lazily
    _syntax: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    @classmethod
    def load(cls, path: Path, project_root: Path) -> "FileContext":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        nodes, parents = _walk_with_parents(tree)
        try:
            relpath = path.resolve().relative_to(project_root.resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
        pragmas = parse_pragmas(source)
        _widen_pragmas(nodes, pragmas)
        return cls(
            path=path,
            relpath=relpath,
            module=module_name_for(path),
            source=source,
            tree=tree,
            pragmas=pragmas,
            parents=parents,
            nodes=nodes,
        )

    def function_syntax(self, func: ast.FunctionDef | ast.AsyncFunctionDef):
        """The :class:`~repro.analysis.flow.taint.FunctionSyntax` of *func*,
        built on first use and reused for the rest of the run."""
        syntax = self._syntax.get(func)
        if syntax is None:
            # deferred: the flow package imports this module
            from repro.analysis.flow.taint import FunctionSyntax

            syntax = self._syntax[func] = FunctionSyntax.build(func)
        return syntax

    def symbol_at(self, node: ast.AST) -> str:
        """Dotted enclosing def/class chain for *node* ("" at module level)."""
        chain: list[str] = []
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                chain.insert(0, current.name)
            current = self.parents.get(current)
        return ".".join(chain)

    def is_allowed(self, line: int, code: str) -> bool:
        return code in self.pragmas.get(line, ())

    def pragma_declarations(self) -> dict[int, set[str]]:
        """Every pragma declaration in the file: comment line -> codes."""
        decls: dict[int, set[str]] = {}
        for slot in self.pragmas.values():
            for code, lines in slot.items():
                for decl in lines:
                    decls.setdefault(decl, set()).add(code)
        return decls
