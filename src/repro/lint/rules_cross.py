"""Cross-module rules TRD006 — TRD008.

These rules sit on the project call graph (:mod:`repro.lint.callgraph`)
and the intraprocedural CFG/taint walkers (:mod:`repro.lint.dataflow`)
to check the three properties the repo otherwise only enforces
dynamically:

* **TRD006 clock-discipline** — simulated costs are charged to the
  SimClock exactly once: every computed ``*_ns``/``*_cycles`` value that
  is charged at all is charged on every path, never twice on one path,
  and never re-charged at an aggregation point when a callee already
  advanced for it (residual charges — expressions written against
  ``clock.now_ns`` — are the sanctioned aggregation idiom).
* **TRD007 determinism-hazard** — nothing nondeterministic flows into a
  deterministic output surface: wall-clock reads into exports/metrics,
  unordered ``set``/``os.listdir``/``glob`` iteration into
  order-sensitive sinks or float accumulation, ``hash()``/``id()`` as
  keys or sort keys.
* **TRD008 scalar-fallback** — the designated hot-path modules never
  silently degrade to per-element Python loops over numpy-derived data;
  deliberate fallbacks are declared with ``# trd: scalar-fallback[...]``
  on the enclosing function.

All three degrade conservatively: a call the graph cannot resolve, or a
value laundered through a container, simply produces no finding.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.callgraph import (
    CallGraph,
    FunctionInfo,
    FunctionKey,
    get_callgraph,
)
from repro.lint.dataflow import CFG, TaintState, taint_names
from repro.lint.engine import Finding, LintContext, Rule, SourceModule
from repro.lint.rules import _dotted, _identifiers

_COST_SUFFIXES = ("_ns", "_cycles")
_COST_BARE = frozenset({"ns", "cycles"})


def _is_cost_name(name: str) -> bool:
    return name.endswith(_COST_SUFFIXES) or name in _COST_BARE


def _never_seed(expr: ast.expr) -> bool:
    return False


def _is_clock_advance(call: ast.Call) -> bool:
    """``<something clock-ish>.advance(...)``."""
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr != "advance":
        return False
    return any("clock" in ident.lower() for ident in _identifiers(func.value))


def _advance_arg(call: ast.Call) -> ast.expr | None:
    if call.args:
        return call.args[0]
    if call.keywords and call.keywords[0].arg is not None:
        return call.keywords[0].value
    return None


def _own_statements(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.stmt]:
    """Statements of ``func`` at every depth, excluding nested def/class
    bodies (those are analyzed as their own functions)."""
    stack: list[ast.stmt] = list(func.body)
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        for field in ("body", "orelse", "finalbody"):
            stack.extend(getattr(stmt, field, []))
        for handler in getattr(stmt, "handlers", []):
            stack.extend(handler.body)
        for case in getattr(stmt, "cases", []):
            stack.extend(case.body)


def _walk_own(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.AST]:
    """Every node of ``func``'s own body, stopping at nested defs."""
    for stmt in _own_statements(func):
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        yield stmt
        for field_name, value in ast.iter_fields(stmt):
            if field_name in (
                "body",
                "orelse",
                "finalbody",
                "handlers",
                "cases",
            ):
                continue
            if isinstance(value, ast.AST):
                yield from ast.walk(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        yield from ast.walk(item)


def _stmt_parents(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[ast.stmt, ast.stmt | None]:
    """Child statement -> enclosing compound statement (None at top)."""
    parents: dict[ast.stmt, ast.stmt | None] = {}
    for stmt in func.body:
        parents[stmt] = None
    for node in ast.walk(func):
        if not isinstance(node, ast.stmt):
            continue
        for field in ("body", "orelse", "finalbody"):
            for child in getattr(node, field, []):
                if isinstance(child, ast.stmt) and child not in parents:
                    parents[child] = node
        for handler in getattr(node, "handlers", []):
            for child in handler.body:
                if child not in parents:
                    parents[child] = node
        for case in getattr(node, "cases", []):
            for child in case.body:
                if child not in parents:
                    parents[child] = node
    return parents


class ClockDiscipline(Rule):
    """TRD006: every computed simulated cost is charged exactly once.

    The SimClock contract (``repro/obs/clock.py``) is leaf-charges plus
    residual charges at aggregation points.  Dynamically this is only
    checked when a test happens to cross the offending path; statically
    we can demand it of every function in the cost-bearing packages.
    """

    code = "TRD006"
    name = "clock-discipline"
    description = (
        "computed *_ns/*_cycles costs are clock.advance'd on every "
        "path exactly once; aggregation points charge residuals, "
        "not callee-charged totals; now_ns is written only by SimClock"
    )
    rationale = (
        "Latency attribution (PR 4) holds only if every cost-bearing "
        "operation advances the SimClock exactly once. A skipped charge "
        "under-reports latency on one branch; charging a value a callee "
        "already advanced for double-counts it. Aggregation points must "
        "charge the residual — `total - (clock.now_ns - start)` — and "
        "only SimClock itself may write now_ns."
    )
    example_bad = (
        "def access(self, clock, hit):\n"
        "    cost_ns = self.hit_ns if hit else self.miss_ns\n"
        "    if hit:\n"
        "        clock.advance(cost_ns)   # miss path never charged\n"
        "    return cost_ns * 2           # and cost re-derived\n"
    )
    example_good = (
        "def access(self, clock, hit):\n"
        "    cost_ns = self.hit_ns if hit else self.miss_ns\n"
        "    clock.advance(cost_ns)       # charged on every path\n"
        "    return cost_ns\n"
    )

    SCOPES = (
        "repro/sim/",
        "repro/mem/",
        "repro/tlb/",
        "repro/virt/",
        "repro/service/",
        "repro/core/",
    )
    #: the one module allowed to assign ``<x>.now_ns``
    CLOCK_MODULE = "repro/obs/clock.py"
    #: identifier fragments that mark a residual-shaped expression
    RESIDUAL_MARKERS = ("now_ns", "residual")

    def check(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        graph = get_callgraph(ctx)
        advancing = self._advancing_functions(graph)
        in_scope = {
            module.path
            for scope in self.SCOPES
            for module in ctx.under(scope)
        }
        for key in sorted(graph.functions):
            info = graph.functions[key]
            if info.module.path not in in_scope:
                continue
            findings.extend(self._check_function(info, graph, advancing))
        findings.extend(self._check_now_ns_writes(ctx))
        return findings

    # -- (d) now_ns is SimClock-private -------------------------------------
    def _check_now_ns_writes(self, ctx: LintContext) -> Iterator[Finding]:
        for module in ctx.under("repro/"):
            if module.package_path == self.CLOCK_MODULE:
                continue
            for node in ast.walk(module.tree):
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "now_ns"
                    ):
                        yield self.finding(
                            module,
                            node.lineno,
                            "direct write to <clock>.now_ns outside "
                            "repro/obs/clock.py; charge costs via "
                            "clock.advance so periodic tasks fire at "
                            "their deadlines",
                        )

    # -- shared machinery ---------------------------------------------------
    @staticmethod
    def _advancing_functions(graph: CallGraph) -> set[FunctionKey]:
        """Functions that (transitively, via unique edges) advance a clock."""
        direct = {
            key
            for key, info in graph.functions.items()
            if any(
                isinstance(node, ast.Call) and _is_clock_advance(node)
                for node in _walk_own(info.node)
            )
        }
        return graph.transitive_closure(direct)

    def _charge_sites(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> list[tuple[ast.stmt, ast.Call]]:
        sites: list[tuple[ast.stmt, ast.Call]] = []
        for stmt in _own_statements(func):
            if isinstance(
                stmt,
                (
                    ast.If,
                    ast.For,
                    ast.AsyncFor,
                    ast.While,
                    ast.With,
                    ast.AsyncWith,
                    ast.Try,
                    ast.Match,
                    ast.FunctionDef,
                    ast.AsyncFunctionDef,
                    ast.ClassDef,
                ),
            ):
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and _is_clock_advance(node):
                    sites.append((stmt, node))
        return sites

    def _lift_through_guards(
        self,
        stmt: ast.stmt,
        var: str,
        parents: dict[ast.stmt, ast.stmt | None],
    ) -> ast.stmt:
        """A charge under ``if <var-or-clock-guard>:`` counts as charging
        at the guard itself — the untaken branch is "cost is zero" or
        "no clock attached", both sanctioned skips."""
        node: ast.stmt = stmt
        while True:
            parent = parents.get(node)
            if not isinstance(parent, ast.If):
                return node
            mentioned = set(_identifiers(parent.test))
            if var in mentioned or any(
                "clock" in ident.lower() for ident in mentioned
            ):
                node = parent
                continue
            return node

    @staticmethod
    def _assignments_of(
        func: ast.FunctionDef | ast.AsyncFunctionDef, var: str
    ) -> list[ast.stmt]:
        """Own statements that (re)bind ``var`` to a fresh value."""
        out: list[ast.stmt] = []
        for stmt in _own_statements(func):
            if isinstance(stmt, ast.Assign):
                names = {
                    t.id for t in stmt.targets if isinstance(t, ast.Name)
                }
                if var in names:
                    out.append(stmt)
            elif isinstance(stmt, ast.AnnAssign):
                if (
                    isinstance(stmt.target, ast.Name)
                    and stmt.target.id == var
                    and stmt.value is not None
                ):
                    out.append(stmt)
        return out

    @staticmethod
    def _escapes(
        func: ast.FunctionDef | ast.AsyncFunctionDef, var: str
    ) -> bool:
        """``var`` is returned, yielded, or stored on an object — its
        charging is someone else's contract."""
        for node in _walk_own(func):
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = node.value
                if value is not None and var in set(_identifiers(value)):
                    return True
        for stmt in _own_statements(func):
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, (ast.Attribute, ast.Subscript))
                for t in stmt.targets
            ):
                if var in set(_identifiers(stmt.value)):
                    return True
        return False

    # -- per-function checks (a)-(c) ----------------------------------------
    def _check_function(
        self,
        info: FunctionInfo,
        graph: CallGraph,
        advancing: set[FunctionKey],
    ) -> Iterator[Finding]:
        func = info.node
        sites = self._charge_sites(func)
        if not sites:
            return
        cfg = CFG(func)
        parents = _stmt_parents(func)

        charged_vars: dict[str, list[ast.stmt]] = {}
        for stmt, call in sites:
            arg = _advance_arg(call)
            if arg is None:
                continue
            for name in set(_identifiers(arg)):
                if _is_cost_name(name) and self._assignments_of(func, name):
                    charged_vars.setdefault(name, []).append(stmt)

        # (a) a charged cost must be charged on every path onward
        for var in sorted(charged_vars):
            if self._escapes(func, var):
                continue
            assigns = self._assignments_of(func, var)
            first = min(assigns, key=lambda s: (s.lineno, s.col_offset))
            lifted = {
                self._lift_through_guards(stmt, var, parents)
                for stmt in charged_vars[var]
            }
            if not cfg.every_path_hits(first, lifted):
                yield self.finding(
                    info.module,
                    first.lineno,
                    f"cost {var!r} is clock.advance'd on some paths but "
                    "not all: a return path skips the charge, "
                    "under-reporting simulated latency (guard with the "
                    "cost/clock test or charge unconditionally)",
                )

        # (b) no path charges the same cost twice without a re-bind
        for var in sorted(charged_vars):
            stmts = charged_vars[var]
            rebinds = set(self._assignments_of(func, var))
            for src in stmts:
                for dst in stmts:
                    if cfg.reaches(src, dst, forbid=rebinds):
                        yield self.finding(
                            info.module,
                            dst.lineno,
                            f"cost {var!r} can be clock.advance'd twice on "
                            "one path (charged at line "
                            f"{src.lineno} and again here) without being "
                            "recomputed; double-counts simulated latency",
                        )
                        break
                else:
                    continue
                break

        # (c) aggregation points re-charging a callee-charged total
        advancing_calls = {
            site.node
            for site in graph.calls_in(info.key)
            if site.unique and site.callees[0] in advancing
        }
        if not advancing_calls:
            return
        # "Already charged" taint flows through arithmetic on the callee's
        # return, but NOT through other calls: passing a charged value to
        # a function yields a fresh (unknown) value, not a charged one.
        state = taint_names(
            func,
            seed=lambda e: isinstance(e, ast.Call) and e in advancing_calls,
            sanitizer=lambda e: isinstance(e, ast.Call)
            and e not in advancing_calls,
        )
        for stmt, call in sites:
            arg = _advance_arg(call)
            if arg is None or not state.expr_tainted(arg):
                continue
            if self._residual_shaped(func, arg):
                continue
            yield self.finding(
                info.module,
                call.lineno,
                "re-charging a cost whose callee already advanced the "
                "clock; aggregation points must charge the residual "
                "(total - (clock.now_ns - start)), not the callee-"
                "charged total",
            )

    def _residual_shaped(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef, arg: ast.expr
    ) -> bool:
        idents = {ident.lower() for ident in _identifiers(arg)}
        if any(
            marker in ident
            for ident in idents
            for marker in self.RESIDUAL_MARKERS
        ):
            return True
        if isinstance(arg, ast.Name):
            for stmt in self._assignments_of(func, arg.id):
                value = (
                    stmt.value
                    if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                    else None
                )
                if value is None:
                    continue
                mentioned = {ident.lower() for ident in _identifiers(value)}
                if any(
                    marker in ident
                    for ident in mentioned
                    for marker in self.RESIDUAL_MARKERS
                ):
                    return True
        return False


class DeterminismHazard(Rule):
    """TRD007: nondeterminism must not flow into deterministic outputs.

    Byte-identical sweeps at any ``--jobs`` (PRs 2/6/7) die from exactly
    four leaks: wall-clock values in exported artifacts, iteration over
    unordered collections feeding order-sensitive sinks, interpreter-
    dependent ``hash()``/``id()`` used as keys, and float accumulation
    in nondeterministic order.  Each is flagged where the tainted value
    meets the sink, so one reasoned suppression documents one leak.
    """

    code = "TRD007"
    name = "determinism-hazard"
    description = (
        "no wall-clock reads, unordered iteration, or hash()/id() keys "
        "flowing into exports, metrics, or merge/accumulation paths"
    )
    rationale = (
        "Sweep results must be byte-identical at any --jobs. Wall-clock "
        "reads differ per run; set/os.listdir/glob order differs per "
        "process; hash()/id() differ per interpreter (PYTHONHASHSEED); "
        "float addition is not associative, so accumulation order "
        "changes low bits. Any of these reaching an export, metric, or "
        "merge silently breaks reproducibility."
    )
    example_bad = (
        "started = time.time()\n"
        "for shard in shard_set:          # set order varies\n"
        "    total_ns += shard.cost_ns    # order-dependent float sum\n"
        'json.dump({"wall": time.time() - started, "ns": total_ns}, f)\n'
    )
    example_good = (
        "for shard in sorted(shard_set, key=lambda s: s.shard_id):\n"
        "    total_ns += shard.cost_ns    # canonical order\n"
        'json.dump({"ns": total_ns}, f)   # no wall-clock in artifact\n'
    )

    WALLCLOCK = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.process_time",
            "time.process_time_ns",
        }
    )
    WALLCLOCK_METHODS = ("datetime.now", "datetime.utcnow", "date.today")
    UNORDERED_CALLS = frozenset(
        {"set", "frozenset", "os.listdir", "os.scandir", "glob.glob",
         "glob.iglob"}
    )
    #: calls that launder unordered-ness out of a value
    ORDER_SANITIZERS = frozenset(
        {"sorted", "len", "min", "max", "any", "all", "bool"}
    )
    SINK_DOTTED = frozenset({"json.dump", "json.dumps"})
    SINK_METHODS = frozenset(
        {"writerow", "writerows", "write", "observe", "inc", "emit"}
    )
    #: name suffixes marking an order-sensitive float accumulator
    ACCUM_SUFFIXES = (
        "_ns", "_s", "_ms", "_us", "_sum", "_total", "_cycles", "_seconds",
    )

    def check(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        graph = get_callgraph(ctx)
        wall_returning = self._wall_returning(graph)
        sink_params = self._sink_params(graph)
        for key in sorted(graph.functions):
            info = graph.functions[key]
            if not info.module.package_path.startswith("repro/"):
                continue
            findings.extend(
                self._check_wallclock(info, graph, wall_returning, sink_params)
            )
            findings.extend(self._check_unordered(info))
        for module in ctx.under("repro/"):
            findings.extend(self._check_hash_id(module))
        return findings

    # -- wall clock ---------------------------------------------------------
    def _is_wallclock_call(self, expr: ast.expr) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        dotted = _dotted(expr.func)
        if dotted in self.WALLCLOCK:
            return True
        return any(
            dotted == method or dotted.endswith("." + method)
            for method in self.WALLCLOCK_METHODS
        )

    def _wall_returning(self, graph: CallGraph) -> set[FunctionKey]:
        """Functions whose return value carries wall-clock taint,
        propagated to fixpoint over uniquely-resolved call edges."""
        wall: set[FunctionKey] = set()
        changed = True
        while changed:
            changed = False
            for key, info in graph.functions.items():
                if key in wall:
                    continue
                tainted_calls = {
                    site.node
                    for site in graph.calls_in(key)
                    if site.unique and site.callees[0] in wall
                }
                if not tainted_calls and not any(
                    self._is_wallclock_call(node)
                    for node in _walk_own(info.node)
                    if isinstance(node, ast.Call)
                ):
                    continue
                state = taint_names(
                    info.node,
                    seed=lambda e: self._is_wallclock_call(e)
                    or e in tainted_calls,
                )
                for node in _walk_own(info.node):
                    if (
                        isinstance(node, ast.Return)
                        and node.value is not None
                        and state.expr_tainted(node.value)
                    ):
                        wall.add(key)
                        changed = True
                        break
        return wall

    @staticmethod
    def _param_names(
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> list[str]:
        args = func.args
        return [a.arg for a in (*args.posonlyargs, *args.args)]

    def _tainted_args_into(
        self,
        site_call: ast.Call,
        callee: FunctionInfo,
        state: TaintState,
        sink_params: dict[FunctionKey, set[str]],
    ) -> bool:
        """Does this call pass a tainted value into a parameter the
        callee (transitively) forwards to a sink?"""
        hot = sink_params.get(callee.key)
        if not hot:
            return False
        params = self._param_names(callee.node)
        # method receivers consume the leading ``self``/``cls`` slot
        offset = (
            1
            if callee.class_name is not None
            and isinstance(site_call.func, ast.Attribute)
            else 0
        )
        for index, arg in enumerate(site_call.args):
            slot = index + offset
            if slot < len(params) and params[slot] in hot:
                if state.expr_tainted(arg):
                    return True
        for keyword in site_call.keywords:
            if keyword.arg in hot and state.expr_tainted(keyword.value):
                return True
        return False

    def _sink_params(
        self, graph: CallGraph
    ) -> dict[FunctionKey, set[str]]:
        """Parameters that flow into a sink inside their function —
        propagated to fixpoint, so a helper that hands its argument to
        ``write_manifest`` is itself sink-reaching."""
        result: dict[FunctionKey, set[str]] = {}
        changed = True
        while changed:
            changed = False
            for key, info in graph.functions.items():
                known = result.get(key, set())
                candidates = [
                    name
                    for name in self._param_names(info.node)
                    if name not in known and name not in ("self", "cls")
                ]
                if not candidates:
                    continue
                has_sink = any(
                    self._sink_kind(node) is not None
                    for node in _walk_own(info.node)
                    if isinstance(node, ast.Call)
                )
                forwards = has_sink or any(
                    site.unique and result.get(site.callees[0])
                    for site in graph.calls_in(key)
                )
                if not forwards:
                    continue
                for name in candidates:
                    state = taint_names(info.node, _never_seed, initial={name})
                    hit = False
                    for node in _walk_own(info.node):
                        if not isinstance(node, ast.Call):
                            continue
                        values = [
                            *node.args,
                            *(kw.value for kw in node.keywords),
                        ]
                        if self._sink_kind(node) is not None and any(
                            state.expr_tainted(v) for v in values
                        ):
                            hit = True
                            break
                    if not hit:
                        for site in graph.calls_in(key):
                            if not site.unique:
                                continue
                            callee = graph.functions.get(site.callees[0])
                            if callee is not None and self._tainted_args_into(
                                site.node, callee, state, result
                            ):
                                hit = True
                                break
                    if hit:
                        result.setdefault(key, set()).add(name)
                        changed = True
        return result

    def _check_wallclock(
        self,
        info: FunctionInfo,
        graph: CallGraph,
        wall_returning: set[FunctionKey],
        sink_params: dict[FunctionKey, set[str]],
    ) -> Iterator[Finding]:
        tainted_calls = {
            site.node
            for site in graph.calls_in(info.key)
            if site.unique and site.callees[0] in wall_returning
        }
        if not tainted_calls and not any(
            self._is_wallclock_call(node)
            for node in _walk_own(info.node)
            if isinstance(node, ast.Call)
        ):
            return
        state = taint_names(
            info.node,
            seed=lambda e: self._is_wallclock_call(e) or e in tainted_calls,
        )
        sites_by_node = {
            site.node: site
            for site in graph.calls_in(info.key)
            if site.unique
        }
        for node in _walk_own(info.node):
            if not isinstance(node, ast.Call):
                continue
            sink = self._sink_kind(node)
            if sink is not None:
                values = [*node.args, *(kw.value for kw in node.keywords)]
                if any(state.expr_tainted(value) for value in values):
                    yield self.finding(
                        info.module,
                        node.lineno,
                        f"wall-clock-derived value flows into {sink}; host "
                        "timing varies per run and breaks byte-identical "
                        "artifacts — use the SimClock, or keep host timing "
                        "out of deterministic outputs",
                    )
                continue
            site = sites_by_node.get(node)
            if site is None:
                continue
            callee = graph.functions.get(site.callees[0])
            if callee is not None and self._tainted_args_into(
                node, callee, state, sink_params
            ):
                yield self.finding(
                    info.module,
                    node.lineno,
                    "wall-clock-derived value flows into a deterministic "
                    f"export via {callee.name}(); host timing varies per "
                    "run and breaks byte-identical artifacts — keep it "
                    "out of exported payloads",
                )

    def _sink_kind(self, call: ast.Call) -> str | None:
        dotted = _dotted(call.func)
        if dotted in self.SINK_DOTTED or any(
            dotted.endswith("." + s) for s in self.SINK_DOTTED
        ):
            return f"{dotted} export"
        if isinstance(call.func, ast.Attribute):
            attr = call.func.attr
            if attr in ("writerow", "writerows"):
                return "a CSV export"
            if attr == "write":
                return "a file write"
            if attr in ("observe", "inc", "emit"):
                return "a metric emission"
        return None

    # -- unordered iteration ------------------------------------------------
    def _is_unordered_source(self, expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            dotted = _dotted(expr.func)
            if dotted in self.UNORDERED_CALLS:
                return True
            return any(
                dotted.endswith("." + c)
                for c in ("listdir", "scandir", "iglob")
            ) or dotted.endswith(".glob")
        return False

    def _is_order_sanitizer(self, expr: ast.expr) -> bool:
        return (
            isinstance(expr, ast.Call)
            and _dotted(expr.func) in self.ORDER_SANITIZERS
        )

    def _check_unordered(self, info: FunctionInfo) -> Iterator[Finding]:
        func = info.node
        if not any(
            self._is_unordered_source(node)
            for node in _walk_own(func)
            if isinstance(node, ast.expr)
        ):
            return
        state = taint_names(
            func,
            seed=self._is_unordered_source,
            sanitizer=self._is_order_sanitizer,
        )
        for node in _walk_own(func):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                reducer = (
                    dotted == "sum"
                    or (
                        isinstance(node.func, ast.Attribute)
                        and node.func.attr == "join"
                    )
                )
                if reducer and node.args and state.expr_tainted(node.args[0]):
                    yield self.finding(
                        info.module,
                        node.lineno,
                        "order-sensitive reduction over an unordered "
                        "collection (set/listdir/glob); iterate "
                        "sorted(...) so results are byte-stable",
                    )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if not state.expr_tainted(node.iter):
                    continue
                hazard = self._loop_hazard(node)
                if hazard is not None:
                    yield self.finding(
                        info.module,
                        node.lineno,
                        "iteration over an unordered collection "
                        f"(set/listdir/glob) feeds {hazard}; wrap the "
                        "iterable in sorted(...) to fix the order",
                    )

    def _loop_hazard(self, loop: ast.For | ast.AsyncFor) -> str | None:
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    sink = self._sink_kind(node)
                    if sink is not None:
                        return sink
                elif isinstance(node, ast.AugAssign) and isinstance(
                    node.op, ast.Add
                ):
                    target = node.target
                    name = ""
                    if isinstance(target, ast.Name):
                        name = target.id
                    elif isinstance(target, ast.Attribute):
                        name = target.attr
                    if name.endswith(self.ACCUM_SUFFIXES):
                        return (
                            f"float accumulation into {name!r} "
                            "(addition order changes low bits)"
                        )
        return None

    # -- hash()/id() keys ---------------------------------------------------
    def _check_hash_id(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Subscript):
                culprit = self._hash_id_in(node.slice)
                if culprit is not None:
                    yield self._hash_id_finding(module, culprit, "a key")
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is None:
                        continue
                    culprit = self._hash_id_in(key)
                    if culprit is not None:
                        yield self._hash_id_finding(
                            module, culprit, "a dict key"
                        )
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("setdefault", "get")
                    and node.args
                ):
                    culprit = self._hash_id_in(node.args[0])
                    if culprit is not None:
                        yield self._hash_id_finding(
                            module, culprit, "a lookup key"
                        )
                for keyword in node.keywords:
                    if keyword.arg == "key":
                        culprit = self._hash_id_in(keyword.value)
                        if culprit is not None:
                            yield self._hash_id_finding(
                                module, culprit, "a sort key"
                            )

    @staticmethod
    def _hash_id_in(expr: ast.expr) -> ast.Call | None:
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("hash", "id")
            ):
                return node
        return None

    def _hash_id_finding(
        self, module: SourceModule, call: ast.Call, where: str
    ) -> Finding:
        func_name = call.func.id if isinstance(call.func, ast.Name) else "?"
        return self.finding(
            module,
            call.lineno,
            f"{func_name}() used as {where}: values differ per "
            "interpreter run (PYTHONHASHSEED/allocation), so any "
            "ordering or export derived from them is nondeterministic; "
            "key on a stable field instead",
        )


class ScalarFallback(Rule):
    """TRD008: hot-path modules stay vectorized.

    PR 5's 6.8-8.4x came from keeping ``touch_batch`` and the TLB replay
    kernel in numpy; a per-element Python loop over array data anywhere
    in the designated hot modules silently gives that back.  Deliberate,
    budget-gated fallbacks declare themselves with
    ``# trd: scalar-fallback[reason]`` on (or directly above) the
    ``def`` line.
    """

    code = "TRD008"
    name = "scalar-fallback"
    description = (
        "no per-element Python loops over numpy-derived data in "
        "sim/batch.py, tlb/batch.py, service/fleet.py outside marked "
        "scalar-fallback functions"
    )
    rationale = (
        "The batch engine's speedup (BENCH_hotpath.json: 6.8-8.4x) "
        "exists because the hot path never iterates array elements in "
        "Python. A stray `for x in arr.tolist()` reintroduces "
        "interpreter cost per element and erodes the speedup without "
        "failing any correctness test. Fallbacks that must exist "
        "(bounded tails, trace-mode replay) are declared with "
        "`# trd: scalar-fallback[reason]` and covered by the bench "
        "budget gates."
    )
    example_bad = (
        "def charge(self, costs):           # in a hot-path module\n"
        "    for c in costs.tolist():       # per-element Python loop\n"
        "        self.total += c\n"
    )
    example_good = (
        "def charge(self, costs):\n"
        "    self.total += float(costs.sum())   # stays vectorized\n"
        "\n"
        "# trd: scalar-fallback[trace mode replays per-event, budget-gated]\n"
        "def charge_traced(self, costs): ...\n"
    )

    HOT_MODULES = (
        "repro/sim/batch.py",
        "repro/tlb/batch.py",
        "repro/service/fleet.py",
    )
    _MARKER_RE = re.compile(r"#\s*trd:\s*scalar-fallback\[(?P<reason>[^\]]+)\]")
    _NUMPY_ROOTS = frozenset({"np", "numpy"})
    #: calls that pass array-ness through to their result; every other
    #: call is a taint barrier — ``wl.iter_batches(api, ...)`` yields
    #: batches (the hot path's unit of work), not per-element data
    _TRANSPARENT = frozenset(
        {"enumerate", "zip", "reversed", "sorted", "list", "tuple", "iter"}
    )

    def check(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        graph = get_callgraph(ctx)
        hot = {
            module.path
            for module in ctx.modules
            if module.package_path in self.HOT_MODULES
        }
        if not hot:
            return findings
        for key in sorted(graph.functions):
            info = graph.functions[key]
            if info.module.path not in hot:
                continue
            if self._marked_fallback(info):
                continue
            findings.extend(self._check_function(info))
        return findings

    def _marked_fallback(self, info: FunctionInfo) -> bool:
        lines = info.module.source.splitlines()
        candidates = range(
            max(0, info.node.lineno - 2), min(len(lines), info.node.lineno)
        )
        return any(
            self._MARKER_RE.search(lines[i]) for i in candidates
        )

    def _is_numpy_source(self, expr: ast.expr) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        dotted = _dotted(expr.func)
        if dotted.split(".")[0] in self._NUMPY_ROOTS:
            return True
        return (
            isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "tolist"
        )

    @staticmethod
    def _array_params(
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> set[str]:
        names: set[str] = set()
        args = func.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            annotation = arg.annotation
            if annotation is None:
                continue
            idents = set(_identifiers(annotation))
            if isinstance(annotation, ast.Constant) and isinstance(
                annotation.value, str
            ):
                idents.update(annotation.value.replace(".", " ").split())
            if idents & {"ndarray", "NDArray"} or idents & {"np", "numpy"}:
                names.add(arg.arg)
        return names

    def _is_barrier(self, expr: ast.expr) -> bool:
        return (
            isinstance(expr, ast.Call)
            and not self._is_numpy_source(expr)
            and _dotted(expr.func) not in self._TRANSPARENT
        )

    def _check_function(self, info: FunctionInfo) -> Iterator[Finding]:
        func = info.node
        state = taint_names(
            func,
            seed=self._is_numpy_source,
            sanitizer=self._is_barrier,
            initial=self._array_params(func),
        )
        if not state.names and not any(
            self._is_numpy_source(node)
            for node in _walk_own(func)
            if isinstance(node, ast.expr)
        ):
            return
        for node in _walk_own(func):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            if state.expr_tainted(node.iter):
                yield self.finding(
                    info.module,
                    node.lineno,
                    "per-element Python loop over numpy-derived data in a "
                    "hot-path module; vectorize it, or mark the enclosing "
                    "function with `# trd: scalar-fallback[reason]` if "
                    "this is a deliberate budget-gated fallback",
                )


CROSS_RULES: tuple[Rule, ...] = (
    ClockDiscipline(),
    DeterminismHazard(),
    ScalarFallback(),
)
