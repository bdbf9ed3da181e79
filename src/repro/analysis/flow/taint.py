"""Flow-sensitive taint tracking and per-function taint summaries.

This is the repo's one taint implementation: the file-scoped CT checker
and the whole-program engine both run its dataflow.  It owns:

- which names seed taint (:data:`SECRET_NAME_RE`, applied to parameters
  by :func:`ct_seeds`, and the narrower :data:`SECRET_ATTR_RE` used for
  attribute reads, where ``seed`` / ``coins`` would over-taint public
  configuration),
- which calls return secrets (``decaps``/``decap``), how ``keygen``
  results split into a public and a secret half,
- which calls sanitize (``len``, ``declassify``, ...) — with the rule
  that a sanitizer applied to an *attribute or subscript* of a tainted
  value does **not** launder: the length or projection of a
  secret-selected component may itself be secret-dependent, and
  ``declassify`` must be applied to the binding it actually publishes.

On top of the :mod:`~repro.analysis.flow.cfg` graphs it runs a
reaching-definitions style dataflow: the state maps each local name to
the set of taint *tokens* that may reach it, joins are unions, and an
untainted reassignment kills — so taint survives loops but dies at
``x = 0``.  Tokens are ``("param", index, name)`` during summary
construction and ``("secret", description)`` for genuine secrets; a
:class:`TaintSummary` then records which parameters flow to the return
value, whether the return is secret-derived regardless of arguments,
and which parameters reach a constant-time or observability sink inside
the function (transitively, once the engine's fixpoint closes).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

from repro.analysis.flow.cfg import Cfg, build_cfg

# Parameter / variable names treated as secret seeds (the CT checker's
# historical pattern: broad on purpose for crypto-layer parameters).
SECRET_NAME_RE = re.compile(
    r"(^|_)(sk|secret|secrets|seed|seeds|coins|scalar|private|priv|signing_key|"
    r"shared_secret)(_|$)|secret"
)

# Attribute reads seed taint only on unambiguous names: `cfg.seed` is a
# public campaign parameter, but `conn._signing_key` is not.
SECRET_ATTR_RE = re.compile(
    r"(^|_)(sk|signing_key|shared_secret|private_key|priv)(_|$)|secret_key|_secret$"
)

# Calls whose results are secret: obj.decaps()/decap() shared secrets.
SECRET_RETURNING = {"decaps", "decap"}
# Calls returning a (public, secret) pair.
KEYGEN_NAMES = {"keygen", "generate_keypair"}
# Calls whose results are public regardless of argument taint.
SANITIZERS = {"len", "declassify", "type", "isinstance", "id"}

# Module prefixes the CT discipline applies to, and the strict subset
# where every parameter seeds taint (generic data-plane kernels).
CRYPTO_SCOPES = ("repro.crypto", "repro.pqc")
STRICT_SCOPES = ("repro.crypto.kernels",)

Token = tuple  # ("param", index, name) | ("secret", description)


def is_secret_name(name: str) -> bool:
    return bool(SECRET_NAME_RE.search(name))


def call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def in_scope(module: str, scopes: tuple[str, ...]) -> bool:
    return any(module == s or module.startswith(s + ".") for s in scopes)


def token_text(token: Token) -> str:
    """Human-readable origin for findings ("parameter 'sk'", ...)."""
    if token[0] == "param":
        return f"parameter {token[2]!r}"
    return token[1]


def attr_root(node: ast.AST) -> str | None:
    """The root Name of an attribute/subscript chain, else None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def sanitizer_laundered_tokens(call: ast.Call, env: dict[str, frozenset]) -> frozenset:
    """Tokens that survive a sanitizer call (usually none).

    ``len(sk)`` is public — a whole value's length is a structural wire
    size.  ``len(sk.x)`` / ``declassify(sk[i])`` are *not* sanitized:
    the component was selected out of secret data and its
    length/projection may be secret-dependent, so the taint of the root
    name flows through (the tuple-unpacking laundering fixed alongside
    this rule).
    """
    survived: set = set()
    for arg in [*call.args, *[kw.value for kw in call.keywords]]:
        if isinstance(arg, (ast.Attribute, ast.Subscript)):
            root = attr_root(arg)
            if root is not None and env.get(root):
                survived.update(env[root])
    return frozenset(survived)


@dataclass
class SinkRecord:
    """One constant-time / observability sink inside a function."""

    kind: str        # "branch" | "loop-bound" | "subscript" | "observability"
    code: str        # the intra code a direct finding would carry (CT001, ...)
    line: int
    allowed: bool    # suppressed by a `pqtls: allow` pragma at the sink
    description: str


@dataclass
class TaintSummary:
    """What a caller needs to know about one function's taint behaviour."""

    qualname: str
    param_names: tuple[str, ...] = ()
    flows_to_return: frozenset = frozenset()     # param indices reaching returns
    secret_return: bool = False                  # return secret-derived regardless
    param_sinks: dict = field(default_factory=dict)         # index -> SinkRecord
    param_allowed_sinks: dict = field(default_factory=dict)  # pragma-allowed sinks

    def state(self) -> tuple:
        """Comparable fixpoint state (summaries only ever grow)."""
        return (
            self.flows_to_return,
            self.secret_return,
            tuple(sorted((i, s.kind) for i, s in self.param_sinks.items())),
            tuple(sorted((i, s.kind) for i, s in self.param_allowed_sinks.items())),
        )


def function_params(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = func.args
    return [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]]


def ct_seeds(func: ast.FunctionDef | ast.AsyncFunctionDef,
             strict: bool) -> dict[str, frozenset]:
    """Entry environment of the constant-time profile for *func*.

    Secret-named parameters seed taint; in the strict kernel scope every
    parameter except ``self``/``cls`` does.
    """
    env: dict[str, frozenset] = {}
    for name in function_params(func):
        if strict and name not in ("self", "cls"):
            env[name] = frozenset(
                {("secret", f"parameter {name!r} (strict kernel scope)")})
        elif is_secret_name(name):
            env[name] = frozenset({("secret", f"parameter {name!r}")})
    return env


# ---------------------------------------------------------------------------
# expression taint

# fields holding only context and operator leaves (`Load()`, `Add()`,
# `Eq()`): no taint can come from them, so the walk skips them
_LEAF_FIELDS = frozenset({"ctx", "op", "ops"})


def _push_children(stack: list, node: ast.AST) -> None:
    """``stack.extend(ast.iter_child_nodes(node))`` minus the leaf fields."""
    for name in node._fields:
        if name in _LEAF_FIELDS:
            continue
        value = getattr(node, name, None)
        if isinstance(value, ast.AST):
            stack.append(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.AST):
                    stack.append(item)


class _ExprTaint:
    """Token computation for expressions, given an environment.

    *sources* seeds tokens from a node regardless of the environment
    (secret-named attribute reads); *call_tokens* maps a resolved call
    plus its argument-token callback to result tokens via callee
    summaries.  Calls it does not resolve — every call, when it is
    ``None`` — pass their receiver's and arguments' taint through.
    """

    def __init__(self, sources: Callable[[ast.AST], frozenset] | None = None,
                 call_tokens=None):
        self.sources = sources
        self.call_tokens = call_tokens

    def tokens(self, expr: ast.AST, env: dict[str, frozenset]) -> frozenset:
        out: set = set()
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name in SANITIZERS:
                    out |= sanitizer_laundered_tokens(node, env)
                    continue
                if name in SECRET_RETURNING:
                    out.add(("secret", f"{name}() result"))
                    stack.extend(node.args)
                    stack.extend(kw.value for kw in node.keywords)
                    continue
                if self.call_tokens is not None:
                    resolved = self.call_tokens(node, env, self)
                    if resolved is not None:
                        out |= resolved
                        continue
                _push_children(stack, node)
                continue
            if isinstance(node, ast.Name) and node.id in env:
                out |= env[node.id]
            if self.sources is not None:
                out |= self.sources(node)
            _push_children(stack, node)
        return frozenset(out)


# ---------------------------------------------------------------------------
# statement transfer


def _assign_name(env: dict, name: str, tokens: frozenset) -> None:
    """Strong update: an untainted redefinition kills the old taint."""
    if tokens:
        env[name] = tokens
    else:
        env.pop(name, None)


def _weak_taint(env: dict, name: str, tokens: frozenset) -> None:
    if tokens:
        env[name] = env.get(name, frozenset()) | tokens


def _transfer_target(env: dict, target: ast.AST, tokens: frozenset) -> None:
    if isinstance(target, ast.Name):
        _assign_name(env, target.id, tokens)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _transfer_target(env, element, tokens)
    elif isinstance(target, ast.Starred):
        _transfer_target(env, target.value, tokens)
    elif isinstance(target, (ast.Attribute, ast.Subscript)):
        # obj.f = secret / obj[i] = secret taints the container; a write
        # into a container never clears what it already held.  `self` is
        # exempt: tainting the whole instance on `self._sk = sk` would
        # make every later `self.anything` secret — the SECRET_ATTR_RE
        # read-side seeding covers the attribute itself instead.
        root = attr_root(target)
        if root is not None and root not in ("self", "cls"):
            _weak_taint(env, root, tokens)


class _Transfer:
    """Applies one statement's effect on the environment (in place)."""

    def __init__(self, expr_taint: _ExprTaint,
                 parents: dict[ast.AST, ast.AST] | None,
                 syntax: FunctionSyntax):
        self.expr = expr_taint
        self.parents = parents or {}
        self.syntax = syntax

    def _assign(self, env: dict, targets: list[ast.AST], value: ast.AST) -> None:
        # `pk, sk = scheme.keygen(drbg)`: the pair splits into a public
        # and a secret half; `pair = scheme.keygen(drbg)` keeps the whole
        # binding secret so unpacking it later cannot launder the key
        if isinstance(value, ast.Call) and call_name(value) in KEYGEN_NAMES:
            origin = frozenset({("secret", f"{call_name(value)}() secret key")})
            for target in targets:
                if isinstance(target, ast.Tuple) and len(target.elts) == 2:
                    _transfer_target(env, target.elts[0], frozenset())
                    _transfer_target(env, target.elts[1], origin)
                else:
                    _transfer_target(env, target, origin)
            return
        for target in targets:
            # element-wise tuple transfer: `a, b = sk, pk` taints only a
            if isinstance(target, (ast.Tuple, ast.List)) \
                    and isinstance(value, (ast.Tuple, ast.List)) \
                    and len(target.elts) == len(value.elts) \
                    and not any(isinstance(e, ast.Starred) for e in target.elts):
                for t_elt, v_elt in zip(target.elts, value.elts):
                    _transfer_target(env, t_elt, self.expr.tokens(v_elt, env))
            else:
                _transfer_target(env, target, self.expr.tokens(value, env))

    def bind_captures(self, case: ast.match_case, env: dict) -> None:
        """Bind *case*'s pattern captures to the taint of its subject."""
        match = self.parents.get(case)
        subject_tokens = frozenset()
        if isinstance(match, ast.Match):
            subject_tokens = self.expr.tokens(match.subject, env)
        for sub in ast.walk(case.pattern):
            if isinstance(sub, (ast.MatchAs, ast.MatchStar)) and sub.name:
                _assign_name(env, sub.name, subject_tokens)

    def apply(self, stmt: ast.AST, env: dict) -> None:
        if isinstance(stmt, ast.match_case):
            # the captures bind before the guard (and its walruses) run
            self.bind_captures(stmt, env)
        if self.syntax.walruses:
            for header in self.syntax.headers[stmt]:
                for walrus in header.walruses:
                    _assign_name(env, walrus.target.id,
                                 self.expr.tokens(walrus.value, env))
        if isinstance(stmt, ast.Assign):
            self._assign(env, stmt.targets, stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign(env, [stmt.target], stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            tokens = self.expr.tokens(stmt.value, env)
            if isinstance(stmt.target, ast.Name):
                _weak_taint(env, stmt.target.id, tokens)
            else:
                _transfer_target(env, stmt.target, tokens)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            _transfer_target(env, stmt.target, self.expr.tokens(stmt.iter, env))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    _transfer_target(env, item.optional_vars,
                                     self.expr.tokens(item.context_expr, env))
        elif isinstance(stmt, ast.ExceptHandler):
            if stmt.name:
                _assign_name(env, stmt.name, frozenset())
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            env.pop(stmt.name, None)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                env.pop(bound, None)


def header_exprs(stmt: ast.AST) -> list[ast.expr]:
    """The expressions a block evaluates for *stmt* (bodies excluded)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, ast.match_case):
        return [stmt.guard] if stmt.guard is not None else []
    if isinstance(stmt, (ast.ExceptHandler, ast.FunctionDef,
                         ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    return [node for node in ast.iter_child_nodes(stmt)
            if isinstance(node, ast.expr)]


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


class HeaderNodes(NamedTuple):
    """The nodes under one header expression that the taint clients read.

    Each tuple keeps ``ast.walk(expr)`` order: the sink and call checks
    report in that order, and comprehension targets bind outer-first.
    """

    expr: ast.expr
    calls: tuple[ast.Call, ...]
    sinks: tuple[ast.expr, ...]            # IfExp and Subscript
    comprehensions: tuple[ast.expr, ...]
    walruses: tuple[ast.NamedExpr, ...]

    @classmethod
    def of(cls, expr: ast.expr) -> "HeaderNodes":
        calls, sinks, comprehensions, walruses = [], [], [], []
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                calls.append(node)
            elif isinstance(node, (ast.IfExp, ast.Subscript)):
                sinks.append(node)
            elif isinstance(node, _COMPREHENSIONS):
                comprehensions.append(node)
            elif isinstance(node, ast.NamedExpr):
                walruses.append(node)
        return cls(expr, tuple(calls), tuple(sinks), tuple(comprehensions),
                   tuple(walruses))


@dataclass
class FunctionSyntax:
    """The syntax every analysis of one function reads, built once.

    It is the CFG plus, for each of its statements, the
    :class:`HeaderNodes` of every :func:`header_exprs` entry. None of it
    depends on taint, so one build serves every seed profile and every
    summary round of a run (see ``FileContext.function_syntax``).
    """

    cfg: Cfg
    headers: dict[ast.AST, list[HeaderNodes]]
    walruses: bool                 # any `:=` under a header

    @classmethod
    def build(cls, func: ast.FunctionDef | ast.AsyncFunctionDef) -> "FunctionSyntax":
        cfg = build_cfg(func)
        headers = {stmt: [HeaderNodes.of(expr) for expr in header_exprs(stmt)]
                   for block in cfg.blocks for stmt in block.stmts}
        walruses = any(header.walruses for stmt_headers in headers.values()
                       for header in stmt_headers)
        return cls(cfg, headers, walruses)


# ---------------------------------------------------------------------------
# per-function dataflow


@dataclass
class FunctionAnalysis:
    """Solved dataflow for one function: per-block entry environments."""

    syntax: FunctionSyntax
    in_states: dict[int, dict[str, frozenset]]
    transfer: _Transfer
    expr: _ExprTaint
    return_tokens: frozenset = frozenset()

    def iter_env(self) -> Iterator[tuple[ast.AST, dict[str, frozenset]]]:
        """Yield ``(stmt, env)`` deterministically (block order), where
        *env* is what the statement's header expressions are evaluated in.

        That is the environment before the statement, except for a
        ``match`` case: its guard is evaluated after its pattern's
        captures bind.
        """
        for block in self.syntax.cfg.blocks:
            env = dict(self.in_states.get(block.index, {}))
            for stmt in block.stmts:
                if isinstance(stmt, ast.match_case):
                    guard_env = dict(env)
                    self.transfer.bind_captures(stmt, guard_env)
                    yield stmt, guard_env
                else:
                    yield stmt, env
                self.transfer.apply(stmt, env)

    def tokens(self, expr: ast.AST, env: dict[str, frozenset]) -> frozenset:
        return self.expr.tokens(expr, env)

    def headers(self, stmt: ast.AST) -> list[HeaderNodes]:
        return self.syntax.headers[stmt]


def _join(a: dict[str, frozenset], b: dict[str, frozenset]) -> dict[str, frozenset]:
    out = dict(a)
    for name, tokens in b.items():
        out[name] = out.get(name, frozenset()) | tokens
    return out


def analyze_dataflow(syntax: FunctionSyntax,
                     seed_env: dict[str, frozenset],
                     expr_taint: _ExprTaint,
                     parents: dict | None = None,
                     max_rounds: int = 50) -> FunctionAnalysis:
    """Solve the taint dataflow of one function's *syntax* to a fixpoint.

    The lattice is finite (token sets only grow per join) and transfer is
    monotone in the inputs, so the worklist terminates; *max_rounds*
    bounds pathological graphs.
    """
    cfg = syntax.cfg
    transfer = _Transfer(expr_taint, parents, syntax)
    in_states: dict[int, dict[str, frozenset]] = {0: dict(seed_env)}
    out_states: dict[int, dict[str, frozenset]] = {}
    worklist = [block.index for block in cfg.blocks]
    rounds = 0
    while worklist and rounds < max_rounds * len(cfg.blocks):
        rounds += 1
        index = worklist.pop(0)
        block = cfg.blocks[index]
        env = dict(seed_env) if index == 0 else {}
        for pred in block.preds:
            env = _join(env, out_states.get(pred, {}))
        in_states[index] = dict(env)
        for stmt in block.stmts:
            transfer.apply(stmt, env)
        if out_states.get(index) != env:
            out_states[index] = env
            for succ in sorted(block.succs):
                if succ not in worklist:
                    worklist.append(succ)
    analysis = FunctionAnalysis(syntax=syntax, in_states=in_states,
                                transfer=transfer, expr=expr_taint)
    returns: set = set()
    for stmt, env in analysis.iter_env():
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            returns |= expr_taint.tokens(stmt.value, env)
    analysis.return_tokens = frozenset(returns)
    return analysis


# ---------------------------------------------------------------------------
# sink discovery (shared by the summary builder and the CT/CT1xx checkers)

def comprehension_env(header: HeaderNodes, env: dict[str, frozenset],
                      expr_taint: _ExprTaint) -> dict[str, frozenset]:
    """*env* extended with comprehension targets bound to their iterables.

    Comprehension variables live in their own scope, so the statement
    transfer never binds them — but ``[table[x] for x in sk]`` indexes on
    secret data all the same.  Binding each generator target to its
    iterable's taint before walking for sinks closes that laundering
    hole; ``ast.walk`` visits outer comprehensions before nested ones,
    so chained generators (``for row in sk for x in row``) resolve too.
    """
    extended: dict[str, frozenset] | None = None
    for node in header.comprehensions:
        for gen in node.generators:
            if extended is None:
                extended = dict(env)
            _transfer_target(extended, gen.target,
                             expr_taint.tokens(gen.iter, extended))
    return extended if extended is not None else env


def iter_ct_sinks(stmt: ast.AST, env: dict[str, frozenset],
                  analysis: FunctionAnalysis):
    """Yield ``(kind, code, node, tokens)`` for CT sinks in a header."""
    expr_taint = analysis.expr
    if isinstance(stmt, (ast.If, ast.While)):
        tokens = expr_taint.tokens(stmt.test, env)
        if tokens:
            yield "branch", "CT001", stmt, tokens
    if isinstance(stmt, ast.Match):
        tokens = expr_taint.tokens(stmt.subject, env)
        if tokens:
            yield "branch", "CT001", stmt, tokens
    if isinstance(stmt, ast.match_case) and stmt.guard is not None:
        # a match_case carries no position: the finding anchors on its guard
        tokens = expr_taint.tokens(stmt.guard, env)
        if tokens:
            yield "branch", "CT001", stmt.guard, tokens
    if isinstance(stmt, (ast.For, ast.AsyncFor)) \
            and isinstance(stmt.iter, ast.Call) and call_name(stmt.iter) == "range":
        for arg in stmt.iter.args:
            tokens = expr_taint.tokens(arg, env)
            if tokens:
                yield "loop-bound", "CT002", stmt, tokens
                break
    for header in analysis.headers(stmt):
        if not header.sinks:
            continue
        scope = comprehension_env(header, env, expr_taint)
        for node in header.sinks:
            if isinstance(node, ast.IfExp):
                tokens = expr_taint.tokens(node.test, scope)
                if tokens:
                    yield "branch", "CT001", node, tokens
            else:
                tokens = _slice_tokens(node.slice, scope, expr_taint)
                if tokens:
                    yield "subscript", "CT003", node, tokens


def _slice_tokens(node: ast.AST, env: dict, expr_taint: _ExprTaint) -> frozenset:
    if isinstance(node, ast.Slice):
        out: set = set()
        for part in (node.lower, node.upper, node.step):
            if part is not None:
                out |= expr_taint.tokens(part, env)
        return frozenset(out)
    return expr_taint.tokens(node, env)


# Observability sinks: method names through which a secret-derived value
# would become externally visible (trace exports, metric namespaces,
# flight-recorder JSONL, exception text, stdout).
TRACER_METHODS = {"span", "begin", "instant", "counter"}
METRIC_METHODS = {"inc", "set", "observe", "counter", "gauge", "histogram"}
RECORDER_METHODS = {"event", "task_start", "task_finish", "progress"}
PRINT_FUNCS = {"print", "repr"}


def iter_leak_sinks(stmt: ast.AST, env: dict[str, frozenset],
                    analysis: FunctionAnalysis):
    """Yield ``(code, node, tokens, what)`` for observability sinks.

    ``tracer.counter(track, name, ...)`` and ``metrics.counter(name)``
    share a method name; both the track and name positions are checked,
    so the ambiguity can only over-report, never launder.
    """
    expr_taint = analysis.expr
    if isinstance(stmt, ast.Raise) and isinstance(stmt.exc, ast.Call):
        for arg in [*stmt.exc.args, *[kw.value for kw in stmt.exc.keywords]]:
            tokens = expr_taint.tokens(arg, env)
            if tokens:
                yield "LEAK004", stmt, tokens, "exception message"
                break
    for header in analysis.headers(stmt):
        if not header.calls:
            continue
        scope = comprehension_env(header, env, expr_taint)
        for node in header.calls:
            func = node.func
            if isinstance(func, ast.Attribute):
                method = func.attr
                if method in TRACER_METHODS and node.args:
                    for pos, what in ((0, "track name"), (1, "span/instant name")):
                        if pos < len(node.args):
                            tokens = expr_taint.tokens(node.args[pos], scope)
                            if tokens:
                                yield "LEAK001", node, tokens, what
                if method in METRIC_METHODS and node.args:
                    tokens = expr_taint.tokens(node.args[0], scope)
                    if tokens:
                        yield "LEAK002", node, tokens, "metric name/label"
                if method in RECORDER_METHODS:
                    values = [*node.args, *[kw.value for kw in node.keywords]]
                    for value in values:
                        tokens = expr_taint.tokens(value, scope)
                        if tokens:
                            yield "LEAK003", node, tokens, "flight-recorder field"
                            break
            elif isinstance(func, ast.Name) and func.id in PRINT_FUNCS:
                for arg in node.args:
                    tokens = expr_taint.tokens(arg, env)
                    if tokens:
                        yield "LEAK005", node, tokens, f"{func.id}()"
                        break
