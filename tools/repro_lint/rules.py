"""The repo's domain invariants as lint rules (RL001–RL007).

Each rule encodes something the dimensional checkers (ruff, pytest)
cannot express — the unwritten contracts PRs 1–4 introduced:

* **RL001** — nm coordinates are integers.  Float literals or true
  division flowing into a geometry constructor break slice-exact
  rasterization and content-hash cache keys.
* **RL002** — worker-executed code must be deterministic.  Wall-clock
  reads, global ``random``, ``id()``-keyed lookups, and set-iteration
  ordering make ``jobs=N`` diverge from ``jobs=1``.
* **RL003** — metric names come from :mod:`repro.obs.names`.  A typo'd
  literal silently forks a series.
* **RL004** — no blanket ``except Exception`` in engine code without a
  re-raise or quarantine routing (the PR 3 bug class: a swallowed
  worker error re-ran serially and hid real failures).
* **RL005** — report classes implement the ``BaseReport`` contract and
  never re-introduce the deprecated field spellings.
* **RL006** — ``repro.api`` entry-point options are keyword-only, so
  new options can be added without breaking positional callers.
* **RL007** — the same contract extended to every public callable on
  the client surface: methods of public classes in ``repro.api`` and
  ``repro.service.client`` (plus module-level functions in the
  latter) take options keyword-only.

Rules are heuristic by design: they know this codebase's idioms, not
Python in general.  A deliberate exception to any rule gets a
``# repro-lint: disable=RLnnn`` pragma *with a justifying comment*.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from tools.repro_lint.engine import FileContext, Rule, Violation, register

# ---------------------------------------------------------------------------
# shared AST helpers


def _call_name(node: ast.Call) -> str | None:
    """The terminal name of a call: ``f(...)`` -> f, ``a.b.c(...)`` -> c."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _receiver_name(node: ast.Call) -> str | None:
    """For ``x.m(...)`` the receiver ``x``; for ``f().m(...)`` the ``f``."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Call):
        return _call_name(value)
    return None


def _scopes(tree: ast.Module) -> Iterator[ast.AST]:
    """Yield the module and every (arbitrarily nested) function node."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested function scopes.

    Class bodies are traversed (their statements execute in the
    enclosing scope for our purposes); function and lambda bodies are
    separate scopes and get their own :func:`_scopes` visit.
    """
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# RL001 — integer-nm geometry


@register
class GeometryIntRule(Rule):
    id = "RL001"
    name = "geometry-int-nm"
    summary = (
        "float literals / true division must not flow into geometry "
        "constructors; nm coordinates stay int (use // or int())"
    )

    CTORS = frozenset({"Point", "Rect", "Polygon"})
    INT_COERCIONS = frozenset({"int", "round", "floor", "ceil", "abs", "len"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for scope in _scopes(ctx.tree):
            env = self._single_assignments(scope)
            for node in _walk_scope(scope):
                if not isinstance(node, ast.Call):
                    continue
                name = _call_name(node)
                if name not in self.CTORS and name != "from_center":
                    continue
                if name == "from_center" and not (
                    isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "Rect"
                ):
                    continue
                labelled = [
                    (str(index), arg) for index, arg in enumerate(node.args, start=1)
                ] + [
                    (repr(kw.arg), kw.value) for kw in node.keywords if kw.arg
                ]
                for label, arg in labelled:
                    taint = self._float_taint(arg, env, set())
                    if taint is not None:
                        offender, why = taint
                        yield self.violation(
                            ctx,
                            offender,
                            f"{why} flows into {name}() argument {label}; "
                            "nm coordinates must stay int (use // or int())",
                        )

    def _single_assignments(self, scope: ast.AST) -> dict[str, ast.expr]:
        """Names assigned exactly once in this scope (simple local flow).

        A name that is also the target of an ``x /= k`` aug-assignment
        is mapped to that division so the taint is still seen.
        """
        counts: dict[str, int] = {}
        values: dict[str, ast.expr] = {}
        divisions: dict[str, ast.expr] = {}
        for node in _walk_scope(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    counts[target.id] = counts.get(target.id, 0) + 1
                    values[target.id] = node.value
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                counts[node.target.id] = counts.get(node.target.id, 0) + 2
                if isinstance(node.op, ast.Div):
                    divisions[node.target.id] = node.value
        env = {name: value for name, value in values.items() if counts.get(name) == 1}
        for name, value in divisions.items():
            env[name] = ast.BinOp(
                left=ast.Name(id=name, ctx=ast.Load()), op=ast.Div(), right=value
            )
        return env

    def _float_taint(
        self, node: ast.expr, env: dict[str, ast.expr], visiting: set[str]
    ) -> tuple[ast.expr, str] | None:
        """The offending sub-expression and why, or None when int-safe."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, float):
                return node, f"float literal {node.value!r}"
            return None
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return node, "true division (/)"
            return self._float_taint(node.left, env, visiting) or self._float_taint(
                node.right, env, visiting
            )
        if isinstance(node, ast.UnaryOp):
            return self._float_taint(node.operand, env, visiting)
        if isinstance(node, ast.IfExp):
            return self._float_taint(node.body, env, visiting) or self._float_taint(
                node.orelse, env, visiting
            )
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in self.INT_COERCIONS:
                return None  # explicitly coerced back to int
            if name == "float":
                return node, "float() conversion"
            return None  # unknown call: assume the callee upholds the contract
        if isinstance(node, ast.Name) and node.id not in visiting:
            value = env.get(node.id)
            if value is not None:
                taint = self._float_taint(value, env, visiting | {node.id})
                if taint is not None:
                    _, why = taint
                    # report at the use site so the pragma/fix lands there
                    return node, f"{why} (via local '{node.id}')"
        return None


# ---------------------------------------------------------------------------
# RL002 — deterministic worker code


@register
class WorkerDeterminismRule(Rule):
    id = "RL002"
    name = "worker-determinism"
    summary = (
        "code reachable from TileExecutor payloads must be deterministic: "
        "no wall-clock time, global random, id()-keyed lookups, or bare "
        "set iteration"
    )

    WALL_CLOCK = frozenset({"time", "time_ns"})
    DATETIME_NOW = frozenset({"now", "utcnow", "today"})
    GLOBAL_RANDOM = frozenset(
        {
            "random",
            "randint",
            "randrange",
            "getrandbits",
            "choice",
            "choices",
            "shuffle",
            "sample",
            "uniform",
            "gauss",
            "normalvariate",
            "expovariate",
            "betavariate",
            "triangular",
        }
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.is_worker_code():
            return
        random_imports = self._names_imported_from(ctx.tree, "random")
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, random_imports)
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is not None and self._is_id_call(key):
                        yield self.violation(
                            ctx,
                            key,
                            "id()-keyed dict is address-dependent and differs "
                            "between workers; key by a stable identity",
                        )
            elif isinstance(node, ast.Subscript):
                if self._is_id_call(node.slice):
                    yield self.violation(
                        ctx,
                        node.slice,
                        "id()-keyed lookup is address-dependent and differs "
                        "between workers; key by a stable identity",
                    )
            elif isinstance(node, (ast.For, ast.comprehension)):
                iter_expr = node.iter
                if self._is_set_expr(iter_expr):
                    yield self.violation(
                        ctx,
                        iter_expr,
                        "iteration over a set has no deterministic order; "
                        "wrap in sorted(...) before iterating in worker code",
                    )

    def _check_call(
        self, ctx: FileContext, node: ast.Call, random_imports: frozenset[str]
    ) -> Iterator[Violation]:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            module, attr = func.value.id, func.attr
            if module == "time" and attr in self.WALL_CLOCK:
                yield self.violation(
                    ctx,
                    node,
                    f"time.{attr}() reads the wall clock in worker code; "
                    "results must not depend on when a tile ran "
                    "(time.perf_counter() durations fed to timers are fine)",
                )
            elif module in {"datetime", "date"} and attr in self.DATETIME_NOW:
                yield self.violation(
                    ctx,
                    node,
                    f"{module}.{attr}() reads the wall clock in worker code",
                )
            elif module == "random" and attr in self.GLOBAL_RANDOM:
                yield self.violation(
                    ctx,
                    node,
                    f"random.{attr}() uses the process-global generator, which "
                    "is seeded per worker; pass a seeded random.Random instead",
                )
        elif isinstance(func, ast.Name) and func.id in random_imports:
            yield self.violation(
                ctx,
                node,
                f"{func.id}() from the random module uses the process-global "
                "generator; pass a seeded random.Random instead",
            )

    @staticmethod
    def _names_imported_from(tree: ast.Module, module: str) -> frozenset[str]:
        out: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == module:
                out.update(alias.asname or alias.name for alias in node.names)
        return frozenset(out)

    @staticmethod
    def _is_id_call(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        )

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"set", "frozenset"}
        )


# ---------------------------------------------------------------------------
# RL003 — metric names from the registry


@register
class MetricNameRule(Rule):
    id = "RL003"
    name = "metric-name-registry"
    summary = (
        "metric names at emission sites must come from repro.obs.names "
        "constants, never string literals (a typo silently forks a series)"
    )

    EMIT_METHODS = frozenset({"inc", "gauge", "observe", "observe_hist", "timer"})
    READ_METHODS = frozenset({"counter", "gauge_value", "timer_stat"})
    RECEIVERS = frozenset({"registry", "reg", "metrics", "get_registry"})
    # the registry implementation and the registry of names itself
    EXCLUDED_FILES = ("obs/registry.py", "obs/names.py")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if any(ctx.rel.endswith(suffix) for suffix in self.EXCLUDED_FILES):
            return
        known = ctx.config.metric_names
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "repro.obs.names":
                if ctx.config.metric_helpers:
                    for alias in node.names:
                        if alias.name not in ctx.config.metric_helpers:
                            yield self.violation(
                                ctx,
                                node,
                                f"'{alias.name}' is not defined in "
                                "repro.obs.names; fix the typo or register it",
                            )
                continue
            if not isinstance(node, ast.Call):
                continue
            method = _call_name(node)
            if method not in self.EMIT_METHODS and method not in self.READ_METHODS:
                continue
            if _receiver_name(node) not in self.RECEIVERS:
                continue
            if not node.args:
                continue
            name_arg = node.args[0]
            if isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str):
                literal = name_arg.value
                if known is not None and literal in known:
                    yield self.violation(
                        ctx,
                        name_arg,
                        f"metric name literal {literal!r}: use the "
                        "repro.obs.names constant so the registry stays the "
                        "single source of truth",
                    )
                else:
                    yield self.violation(
                        ctx,
                        name_arg,
                        f"unregistered metric name literal {literal!r}: add it "
                        "to repro.obs.names and emit via the constant",
                    )
            elif isinstance(name_arg, ast.JoinedStr):
                yield self.violation(
                    ctx,
                    name_arg,
                    "metric name built with an f-string at the emission site; "
                    "add a helper to repro.obs.names (declare its prefix in "
                    "DYNAMIC_PREFIXES) and call that instead",
                )
            elif (
                isinstance(name_arg, ast.Attribute)
                and isinstance(name_arg.value, ast.Name)
                and name_arg.value.id == "names"
                and ctx.config.metric_helpers
                and name_arg.attr not in ctx.config.metric_helpers
            ):
                yield self.violation(
                    ctx,
                    name_arg,
                    f"names.{name_arg.attr} is not defined in repro.obs.names; "
                    "fix the typo or register it",
                )


# ---------------------------------------------------------------------------
# RL004 — no blanket except in engine code


@register
class BlanketExceptRule(Rule):
    id = "RL004"
    name = "blanket-except"
    summary = (
        "`except Exception` (or bare except) must re-raise or route to "
        "quarantine; silently swallowing engine errors hides real failures"
    )

    BLANKET = frozenset({"Exception", "BaseException"})
    # call names that count as routing the failure somewhere accounted
    ROUTING = ("quarantine", "fail")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_blanket(node.type):
                continue
            if self._handles_properly(node):
                continue
            caught = "bare except" if node.type is None else f"except {ast.unparse(node.type)}"
            yield self.violation(
                ctx,
                node,
                f"blanket {caught} without re-raise or quarantine routing; "
                "narrow the exception types, re-raise, or add a justified "
                "pragma",
            )

    def _is_blanket(self, type_node: ast.expr | None) -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Name):
            return type_node.id in self.BLANKET
        if isinstance(type_node, ast.Tuple):
            return any(self._is_blanket(elt) for elt in type_node.elts)
        return False

    def _handles_properly(self, handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                name = _call_name(node) or ""
                if any(marker in name for marker in self.ROUTING):
                    return True
        return False


# ---------------------------------------------------------------------------
# RL005 — the BaseReport contract


@register
class ReportContractRule(Rule):
    id = "RL005"
    name = "report-contract"
    summary = (
        "report classes inherit BaseReport; the deprecated field spellings "
        "(is_clean, passed, *_seconds) must not come back"
    )

    DEPRECATED_ATTRS = frozenset({"is_clean", "passed"})
    SECONDS_RE = re.compile(r"^\w+_seconds$")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if node.attr in self.DEPRECATED_ATTRS:
                    yield self.violation(
                        ctx,
                        node,
                        f"deprecated report field spelling .{node.attr}; "
                        "use .ok (every report implements BaseReport)",
                    )

    def _check_class(self, ctx: FileContext, node: ast.ClassDef) -> Iterator[Violation]:
        base_names = {self._base_name(base) for base in node.bases}
        is_report_name = node.name.endswith("Report") and node.name != "BaseReport"
        inherits = "BaseReport" in base_names or any(
            name is not None and name.endswith("Report") for name in base_names
        )
        if is_report_name and not inherits:
            yield self.violation(
                ctx,
                node,
                f"class {node.name} looks like an engine report but does not "
                "inherit repro.core.report.BaseReport",
            )
        if not (is_report_name or "BaseReport" in base_names):
            return
        for item in node.body:
            name = self._member(item)
            if name is None:
                continue
            if name in self.DEPRECATED_ATTRS or self.SECONDS_RE.match(name):
                canonical = {
                    "is_clean": "ok",
                    "passed": "ok",
                    "elapsed_seconds": "elapsed_s",
                    "compute_seconds": "compute_s",
                }.get(name, "the *_s spelling")
                yield self.violation(
                    ctx,
                    item,
                    f"report field {name!r} re-introduces a deprecated "
                    f"spelling; use {canonical}",
                )

    @staticmethod
    def _base_name(base: ast.expr) -> str | None:
        if isinstance(base, ast.Name):
            return base.id
        if isinstance(base, ast.Attribute):
            return base.attr
        return None

    @staticmethod
    def _member(item: ast.stmt) -> str | None:
        """The member name a class-body statement defines, if any."""
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return item.name
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            return item.target.id
        if (
            isinstance(item, ast.Assign)
            and len(item.targets) == 1
            and isinstance(item.targets[0], ast.Name)
        ):
            return item.targets[0].id
        return None


# ---------------------------------------------------------------------------
# RL006 — keyword-only options on the public API


@register
class KeywordOnlyApiRule(Rule):
    id = "RL006"
    name = "api-keyword-only"
    summary = (
        "options (defaulted parameters) on repro.api entry points must be "
        "keyword-only so new options never break positional callers"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.is_public_api():
            return
        for node in ctx.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            args = node.args
            defaulted = args.args[len(args.args) - len(args.defaults) :]
            for param in defaulted:
                yield self.violation(
                    ctx,
                    param,
                    f"option {param.arg!r} on public entry point "
                    f"{node.name}() must be keyword-only (move it behind *)",
                )


# ---------------------------------------------------------------------------
# RL007 — keyword-only options across the whole client surface


@register
class KeywordOnlyClientRule(Rule):
    id = "RL007"
    name = "client-keyword-only"
    summary = (
        "options (defaulted parameters) on every public callable of the "
        "client surface — repro.api and repro.service.client, including "
        "methods of public classes — must be keyword-only"
    )

    SKIP_DECORATORS = frozenset({"property", "cached_property"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        public_api = ctx.is_public_api()
        client_api = ctx.is_client_api()
        if not (public_api or client_api):
            return
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # module-level functions in repro.api are RL006's job;
                # RL007 extends the contract to the client module
                if client_api and not node.name.startswith("_"):
                    yield from self._check_callable(ctx, node, method=False)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield from self._check_class(ctx, node)

    def _check_class(self, ctx: FileContext, node: ast.ClassDef) -> Iterator[Violation]:
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name.startswith("_") and item.name != "__init__":
                continue
            decorators = {
                deco.id if isinstance(deco, ast.Name) else _call_name(deco)
                if isinstance(deco, ast.Call)
                else deco.attr if isinstance(deco, ast.Attribute) else None
                for deco in item.decorator_list
            }
            if decorators & self.SKIP_DECORATORS:
                continue
            yield from self._check_callable(
                ctx, item, method="staticmethod" not in decorators
            )

    def _check_callable(
        self,
        ctx: FileContext,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        method: bool,
    ) -> Iterator[Violation]:
        args = node.args
        defaulted = args.args[len(args.args) - len(args.defaults) :]
        for param in defaulted:
            if method and args.args and param is args.args[0]:
                continue  # self/cls can never be defaulted anyway
            yield self.violation(
                ctx,
                param,
                f"option {param.arg!r} on client-surface callable "
                f"{node.name}() must be keyword-only (move it behind *)",
            )
