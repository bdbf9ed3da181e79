"""Module discovery and import resolution over the analyzed tree.

Maps each analyzed file to its dotted module name (the
:class:`~repro.analysis.context.FileContext` already carries it) and
resolves every import statement to fully-qualified dotted targets, so
the call graph can link ``from repro.crypto.drbg import Drbg`` /
``drbg.fork(...)`` call sites to the function definitions they reach.
Only modules inside the analyzed set resolve; everything else (stdlib,
third-party) is deliberately opaque.
"""

from __future__ import annotations

import ast

from repro.analysis.context import FileContext


def resolve_relative(ctx: FileContext, level: int, module: str | None) -> str:
    """Absolute dotted target of a level-``level`` relative import.

    Unlike a naive ``rsplit``, this is correct for package
    ``__init__.py`` files, whose module name *is* the package: level 1
    there refers to the package itself, not its parent.
    """
    parts = ctx.module.split(".")
    drops = level - 1 if ctx.path.name == "__init__.py" else level
    if drops:
        parts = parts[:-drops] if drops < len(parts) else []
    prefix = ".".join(parts)
    if module:
        return f"{prefix}.{module}" if prefix else module
    return prefix


def import_statement_targets(ctx: FileContext, node: ast.stmt) -> list[str]:
    """Dotted module targets of one import statement (empty if not one)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        if node.level:
            return [resolve_relative(ctx, node.level, node.module)]
        return [node.module] if node.module else []
    return []


def import_bindings(ctx: FileContext) -> dict[str, str]:
    """Local name -> fully-qualified dotted target for every import.

    ``import a.b as c`` binds ``c -> a.b``; ``import a.b`` binds the root
    ``a -> a``; ``from m import x as y`` binds ``y -> m.x``.  Star
    imports are ignored (nothing under ``repro`` uses them; the LAYER
    checker would reject most anyway).
    """
    bindings: dict[str, str] = {}
    for node in ctx.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bindings[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    bindings[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = resolve_relative(ctx, node.level, node.module)
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{base}.{alias.name}" if base else alias.name
                bindings[alias.asname or alias.name] = target
    return bindings


class ModuleIndex:
    """Dotted module name -> FileContext over the analyzed set."""

    def __init__(self, ctxs: list[FileContext]):
        self.by_module: dict[str, FileContext] = {ctx.module: ctx for ctx in ctxs}

    def context(self, module: str) -> FileContext | None:
        return self.by_module.get(module)

    def resolve(self, dotted: str) -> tuple[str, str] | None:
        """Split a fully-qualified name into ``(module, symbol_path)``.

        Tries the longest module prefix known to the index; the
        remainder is the in-module symbol path (may be empty when the
        name *is* a module). Returns None for names outside the
        analyzed set.
        """
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            module = ".".join(parts[:cut])
            if module in self.by_module:
                return module, ".".join(parts[cut:])
        return None
