"""The single-module rule catalogue: TRD001 — TRD004.

Each rule encodes one load-bearing convention of this reproduction (see
``docs/linting.md`` for the rationale and examples):

* **TRD001** — no global/nondeterministic RNG anywhere in ``src``.
* **TRD002** — experiment modules conform to the ``run_all`` protocol.
* **TRD003** — frame/order arithmetic in ``mem/`` + ``experiments/`` stays
  integral and uses the named geometry constants from ``config.py``.
* **TRD004** — every emitted metric name is declared in the obs catalog,
  and the catalog stays free of near-duplicate names.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import Finding, LintContext, Rule, SourceModule


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for an attribute chain rooted at a Name, else ''."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _identifiers(node: ast.AST) -> Iterator[str]:
    """Every Name id and Attribute attr in a subtree."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


class NoGlobalRng(Rule):
    """TRD001: all randomness flows through seeded generators.

    Byte-determinism of sweeps rests on every RNG being a
    ``np.random.Generator`` seeded from the run config (or a literal).  The
    stdlib ``random`` module is process-global state; ``np.random.seed``
    mutates the legacy global generator; ``default_rng()`` without a seed
    pulls OS entropy.  All three break replay.
    """

    code = "TRD001"
    name = "no-global-rng"
    description = (
        "no stdlib random module, np.random.seed, or unseeded default_rng()"
    )
    rationale = (
        "Sweeps replay byte-identically only if every random draw comes "
        "from a generator seeded from the run config. The stdlib random "
        "module and numpy's legacy global generator are process-global "
        "state shared across units; an unseeded default_rng() pulls OS "
        "entropy. All three make reruns diverge."
    )
    example_bad = (
        "import random\n"
        "jitter = random.random()        # process-global, unseeded\n"
    )
    example_good = (
        "rng = np.random.default_rng(derive_seed(seed, 'jitter'))\n"
        "jitter = rng.random()           # replayable per unit\n"
    )

    #: package paths allowed to construct global RNGs (none today)
    ALLOWLIST: frozenset[str] = frozenset()

    def check(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        for module in ctx.modules:
            if module.package_path in self.ALLOWLIST:
                continue
            for node in ast.walk(module.tree):
                findings.extend(self._check_node(module, node))
        return findings

    def _check_node(
        self, module: SourceModule, node: ast.AST
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root == "random":
                    yield self.finding(
                        module,
                        node.lineno,
                        "import of the global stdlib `random` module; use a "
                        "seeded np.random.Generator threaded from the run "
                        "config",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "random":
                yield self.finding(
                    module,
                    node.lineno,
                    "import from the global stdlib `random` module; use a "
                    "seeded np.random.Generator threaded from the run config",
                )
        elif isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted == "np.random.seed" or dotted.endswith("numpy.random.seed"):
                yield self.finding(
                    module,
                    node.lineno,
                    "np.random.seed mutates numpy's process-global generator; "
                    "construct a local np.random.default_rng(seed) instead",
                )
            elif (
                dotted == "default_rng" or dotted.endswith(".default_rng")
            ) and not node.args and not node.keywords:
                yield self.finding(
                    module,
                    node.lineno,
                    "default_rng() without a seed draws OS entropy and breaks "
                    "replay; pass a seed threaded from the run config",
                )


#: experiments-package files that are sweep infrastructure, not experiment
#: modules, and therefore exempt from the module protocol
EXPERIMENT_INFRA = frozenset(
    {
        "__init__.py",
        "faults.py",
        "run_all.py",
        "runner.py",
        "orchestrator.py",
        "report.py",
        "configs.py",
    }
)


class ExperimentProtocol(Rule):
    """TRD002: the uniform experiment-module protocol, checked statically.

    ``run_all`` and the sweep orchestrator assume every experiment module
    exposes ``CSV_NAME``, ``TITLE``, ``QUICK_KWARGS`` and a
    ``main(quick=..., seed=...)`` entry point, and that ``QUICK_KWARGS``
    only names parameters ``run()`` actually accepts.  The runtime check
    (``validate_quick_support``) fires only when a sweep reaches the
    module; this rule fires on every lint run, from the AST alone.
    """

    code = "TRD002"
    name = "experiment-protocol"
    description = (
        "experiment modules define CSV_NAME/TITLE/QUICK_KWARGS, "
        "main(quick, seed), and QUICK_KWARGS keys subset of run() params"
    )
    rationale = (
        "run_all and the sweep orchestrator discover experiment modules "
        "by protocol, not registration: each must expose CSV_NAME, "
        "TITLE, QUICK_KWARGS and main(quick=..., seed=...). A module "
        "that drifts from the protocol only fails when a sweep reaches "
        "it at runtime; this rule fails it at lint time."
    )
    example_bad = (
        "TITLE = 'fig 7'\n"
        "def main():                     # missing quick/seed kwargs,\n"
        "    ...                         # missing CSV_NAME/QUICK_KWARGS\n"
    )
    example_good = (
        "CSV_NAME = 'fig7.csv'\n"
        "TITLE = 'fig 7'\n"
        "QUICK_KWARGS = {'accesses': 10_000}\n"
        "def main(quick=False, seed=0): ...\n"
    )

    def check(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        for module in ctx.under("repro/experiments/"):
            if module.name in EXPERIMENT_INFRA:
                continue
            findings.extend(self._check_module(module))
        return findings

    def _check_module(self, module: SourceModule) -> list[Finding]:
        out: list[Finding] = []
        assigns: dict[str, ast.expr] = {}
        functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigns[target.id] = node.value
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and node.value is not None:
                    assigns[node.target.id] = node.value
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[node.name] = node

        for name, expectation in (
            ("CSV_NAME", "a str or tuple of str"),
            ("TITLE", "a str"),
            ("QUICK_KWARGS", "a dict"),
        ):
            if name not in assigns:
                out.append(
                    self.finding(
                        module,
                        1,
                        f"experiment module is missing module-level {name} "
                        f"({expectation})",
                    )
                )
        csv_name = assigns.get("CSV_NAME")
        if csv_name is not None and not self._is_str_or_str_tuple(csv_name):
            out.append(
                self.finding(
                    module,
                    csv_name.lineno,
                    "CSV_NAME must be a string literal or a tuple of string "
                    "literals (the orchestrator resolves output CSVs from it "
                    "without importing the module's dependencies)",
                )
            )
        quick_kwargs = assigns.get("QUICK_KWARGS")
        if quick_kwargs is not None and not self._is_dict_literal(quick_kwargs):
            out.append(
                self.finding(
                    module,
                    quick_kwargs.lineno,
                    "QUICK_KWARGS must be a dict literal of run() keyword "
                    "overrides",
                )
            )

        main = functions.get("main")
        if main is None:
            out.append(
                self.finding(
                    module,
                    1,
                    "experiment module is missing the main(quick=..., "
                    "seed=...) entry point",
                )
            )
        else:
            params = self._param_names(main)
            for required in ("quick", "seed"):
                if required not in params:
                    out.append(
                        self.finding(
                            module,
                            main.lineno,
                            f"main() must accept a `{required}` keyword (the "
                            "orchestrator calls main(quick=..., seed=...))",
                        )
                    )

        run = functions.get("run")
        if (
            run is not None
            and isinstance(quick_kwargs, ast.Dict)
            and run.args.kwarg is None
        ):
            params = self._param_names(run)
            for key in quick_kwargs.keys:
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and key.value not in params
                ):
                    out.append(
                        self.finding(
                            module,
                            key.lineno,
                            f"QUICK_KWARGS key {key.value!r} is not a "
                            "parameter of run()",
                        )
                    )
        return out

    @staticmethod
    def _param_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
        args = func.args
        return {
            a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        }

    @staticmethod
    def _is_str_or_str_tuple(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, str)
        if isinstance(node, (ast.Tuple, ast.List)):
            return all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in node.elts
            )
        return False

    @staticmethod
    def _is_dict_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.Dict):
            return True
        return isinstance(node, ast.Call) and _dotted(node.func) == "dict"


class FrameArithmetic(Rule):
    """TRD003: frame/order arithmetic hygiene and magic geometry numbers.

    Frame counts, PFNs and orders are exact integers; a single true
    division silently floats an entire downstream computation (the zero-fill
    accounting bug fixed in PR 1 started exactly this way).  Geometry
    numbers (order 9/18, 512 frames per 2MB, 262144 per 1GB, the 256x paper
    scale) must come from ``config.py`` so scaled and full geometries stay
    interchangeable.

    Since the N-level :class:`~repro.config.PageGeometry` redesign, the
    rule additionally flags magic x86 order literals (``1 << 9``-style
    shifts) across the whole ``repro`` package (``config.py`` excepted,
    since it defines the geometry): they silently pin code to a geometry
    shape that SVNAPOT and ARM granule configs do not have.  Pre-existing
    findings ratchet via ``lint-baseline.json``.
    """

    code = "TRD003"
    name = "frame-arithmetic"
    description = (
        "no float creep into frame/order arithmetic; no magic geometry "
        "numbers"
    )
    rationale = (
        "Frame counts, PFNs and orders are exact integers; one true "
        "division floats everything downstream (the PR 1 zero-fill "
        "accounting bug started exactly this way). Geometry numbers "
        "(512 frames per 2MB, order 9/18, the 256x scale) must come "
        "from the run's geometry so scaled, full, and N-level "
        "geometries interchange; a 1 << 9 shift breaks on 4-level "
        "SVNAPOT configs."
    )
    example_bad = (
        "mid_frames = frames / 512        # float, magic number\n"
        "mapped = by_size[1]              # magic page-size index\n"
    )
    example_good = (
        "mid_frames = frames // geometry.frames_for(geometry.thp_level)\n"
        "mapped = by_size[geometry.thp_level]\n"
    )

    SCOPES = ("repro/mem/", "repro/experiments/")
    #: identifier fragments that mark a value as frame/order-typed
    FRAMEISH = frozenset({"frame", "frames", "pfn", "pfns", "order", "orders"})
    #: geometry literals that must be spelled via the run's PageGeometry
    MAGIC_GEOMETRY = {
        9: "geometry.order_for(geometry.thp_level)",
        18: "geometry.order_for(geometry.top_level)",
        512: "geometry.frames_per_mid",
        262144: "geometry.frames_per_large",
    }
    SCALE = 256  # config.SCALE_FACTOR
    #: defines the geometry, so it is the one module allowed to spell it
    GEOMETRY_HOME = "repro/config.py"

    def check(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        for scope in self.SCOPES:
            for module in ctx.under(scope):
                findings.extend(self._check_module(module))
        for module in ctx.under("repro/"):
            if module.package_path == self.GEOMETRY_HOME:
                continue
            findings.extend(self._check_shifts_package_wide(module))
        return findings

    def _check_shifts_package_wide(
        self, module: SourceModule
    ) -> Iterator[Finding]:
        """Magic order shifts outside mem/ + experiments/.

        Modules the frame-arithmetic scope already covers are skipped, so
        each site reports once.
        """
        if any(module.package_path.startswith(s) for s in self.SCOPES):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.LShift, ast.RShift)
            ):
                yield from self._check_shift(module, node)

    def _check_module(self, module: SourceModule) -> Iterator[Finding]:
        container_lines = self._container_literal_ids(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                yield from self._check_division(module, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node)
            elif isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.LShift, ast.RShift)
            ):
                yield from self._check_shift(module, node)
            elif isinstance(node, ast.Subscript):
                yield from self._check_subscript(module, node)
            elif isinstance(node, ast.Compare):
                yield from self._check_compare(module, node)
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                yield from self._check_mult(module, node, container_lines)

    @staticmethod
    def _container_literal_ids(tree: ast.Module) -> set[int]:
        """ids of Constant nodes that sit inside display literals.

        Tuples/lists/sets/dicts of numbers are sweep axes and lookup
        tables, not inline arithmetic; their elements are exempt.
        """
        exempt: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                for element in node.elts:
                    if isinstance(element, ast.Constant):
                        exempt.add(id(element))
            elif isinstance(node, ast.Dict):
                for element in (*node.keys, *node.values):
                    if isinstance(element, ast.Constant):
                        exempt.add(id(element))
        return exempt

    def _frameish(self, node: ast.AST) -> bool:
        for ident in _identifiers(node):
            if self.FRAMEISH & set(ident.lower().split("_")):
                return True
        return False

    def _check_division(
        self, module: SourceModule, node: ast.BinOp
    ) -> Iterator[Finding]:
        if self._frameish(node.left) or self._frameish(node.right):
            yield self.finding(
                module,
                node.lineno,
                "true division on frame/order-typed values produces floats; "
                "use // (or convert to bytes first) to keep frame arithmetic "
                "exact",
            )

    def _check_call(
        self, module: SourceModule, node: ast.Call
    ) -> Iterator[Finding]:
        dotted = _dotted(node.func)
        if dotted == "float" and node.args and self._frameish(node.args[0]):
            yield self.finding(
                module,
                node.lineno,
                "float() over a frame/order-typed value; frame counts must "
                "stay integral",
            )
        for keyword in node.keywords:
            if (
                keyword.arg in ("order", "max_order")
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value in self.MAGIC_GEOMETRY
            ):
                hint = self.MAGIC_GEOMETRY[keyword.value.value]
                yield self.finding(
                    module,
                    keyword.value.lineno,
                    f"magic geometry number {keyword.value.value} as an "
                    f"order; use {hint}",
                )
        # page-size table lookups: `...by_size[2]` / `...by_size.get(2)`
        # hard-code one geometry's level numbering
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and node.args
        ):
            first = node.args[0]
            receiver = node.func.value
            if (
                isinstance(first, ast.Constant)
                and isinstance(first.value, int)
                and self._by_size(receiver)
            ):
                yield self.finding(
                    module,
                    first.lineno,
                    f"magic page-size index {first.value}; use geometry "
                    "level indices (0, geometry.thp_level, "
                    "geometry.top_level)",
                )

    def _check_subscript(
        self, module: SourceModule, node: ast.Subscript
    ) -> Iterator[Finding]:
        index = node.slice
        if (
            isinstance(index, ast.Constant)
            and isinstance(index.value, int)
            and not isinstance(index.value, bool)
            and self._by_size(node.value)
        ):
            yield self.finding(
                module,
                node.lineno,
                f"magic page-size index {index.value}; use geometry "
                "level indices (0, geometry.thp_level, "
                "geometry.top_level)",
            )

    def _check_shift(
        self, module: SourceModule, node: ast.BinOp
    ) -> Iterator[Finding]:
        right = node.right
        if isinstance(right, ast.Constant) and right.value in self.MAGIC_GEOMETRY:
            hint = self.MAGIC_GEOMETRY[right.value]
            yield self.finding(
                module,
                node.lineno,
                f"magic geometry number {right.value} as a shift amount; "
                f"use {hint}",
            )

    def _check_compare(
        self, module: SourceModule, node: ast.Compare
    ) -> Iterator[Finding]:
        operands = (node.left, *node.comparators)
        if not any(self._frameish(op) for op in operands):
            return
        for operand in operands:
            if (
                isinstance(operand, ast.Constant)
                and operand.value in self.MAGIC_GEOMETRY
            ):
                hint = self.MAGIC_GEOMETRY[operand.value]
                yield self.finding(
                    module,
                    operand.lineno,
                    f"magic geometry number {operand.value} compared against "
                    f"a frame/order value; use {hint}",
                )

    def _check_mult(
        self,
        module: SourceModule,
        node: ast.BinOp,
        container_lines: set[int],
    ) -> Iterator[Finding]:
        for constant, other in (
            (node.left, node.right),
            (node.right, node.left),
        ):
            if not isinstance(constant, ast.Constant):
                continue
            if id(constant) in container_lines:
                continue
            if constant.value in self.MAGIC_GEOMETRY and self._frameish(other):
                hint = self.MAGIC_GEOMETRY[constant.value]
                yield self.finding(
                    module,
                    node.lineno,
                    f"magic geometry number {constant.value} multiplied into "
                    f"frame arithmetic; use {hint}",
                )
            elif constant.value == self.SCALE and self._bytesish(other):
                yield self.finding(
                    module,
                    node.lineno,
                    "magic 256 scaling a byte quantity to paper scale; use "
                    "config.SCALE_FACTOR",
                )

    @staticmethod
    def _by_size(node: ast.AST) -> bool:
        return any("by_size" in ident for ident in _identifiers(node))

    @staticmethod
    def _bytesish(node: ast.AST) -> bool:
        for ident in _identifiers(node):
            parts = set(ident.lower().split("_"))
            if parts & {"bytes", "gb", "footprint"}:
                return True
        return False


class MetricRegistryHygiene(Rule):
    """TRD004: emitted metric names match the obs catalog.

    ``docs/observability.md`` promises the catalog (``repro metrics``) is
    exhaustive: every ``metrics.counter/gauge/histogram("name", ...)`` call
    site must name a cataloged metric, and the catalog itself must not
    accumulate near-duplicates (``foo_total`` next to ``foo``, or
    singular/plural pairs) that would split one statistic across two keys.
    """

    code = "TRD004"
    name = "metric-registry"
    description = (
        "every emitted metrics.* name is declared in METRIC_CATALOG; "
        "no near-duplicate metric names"
    )
    rationale = (
        "docs/observability.md promises the catalog (repro metrics) is "
        "exhaustive. An undeclared emission is invisible to dashboards "
        "and docs; near-duplicate names (foo next to foo_total) split "
        "one statistic across two keys."
    )
    example_bad = "metrics.counter('tlb_miss')      # not in METRIC_CATALOG\n"
    example_good = (
        "# obs/catalog: ('tlb_misses_total', 'counter', ...)\n"
        "metrics.counter('tlb_misses_total')\n"
    )

    EMIT_METHODS = frozenset({"counter", "gauge", "histogram"})
    #: modules whose counter/gauge/histogram calls are registry internals
    #: or generic re-exports, not emissions of concrete metric names
    EXEMPT = frozenset({"repro/obs/metrics.py"})

    def check(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        catalog, catalog_module = self._find_catalog(ctx)
        emitted: dict[str, tuple[str, int]] = {}
        for module in ctx.under("repro/"):
            if module.package_path in self.EXEMPT:
                continue
            for node in ast.walk(module.tree):
                name_node = self._emitted_name(node)
                if name_node is None:
                    continue
                name = name_node.value
                emitted.setdefault(name, (module.path, name_node.lineno))
                if catalog is not None and name not in catalog:
                    findings.append(
                        self.finding(
                            module,
                            name_node.lineno,
                            f"metric {name!r} is not declared in the obs "
                            "METRIC_CATALOG; add it (with kind, labels and "
                            "description) or fix the name",
                        )
                    )
        findings.extend(
            self._near_duplicates(catalog or {}, emitted, catalog_module)
        )
        return findings

    def _emitted_name(self, node: ast.AST) -> ast.Constant | None:
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in self.EMIT_METHODS:
            return None
        if not node.args:
            return None
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first
        return None

    @staticmethod
    def _find_catalog(
        ctx: LintContext,
    ) -> tuple[dict[str, int] | None, SourceModule | None]:
        """name -> catalog line, from the module defining METRIC_CATALOG.

        Falls back to importing ``repro.obs`` when the catalog module is
        outside the linted path set (e.g. linting a single file), so the
        membership check still runs.
        """
        for module in ctx.modules:
            for node in module.tree.body:
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                    if isinstance(node, ast.AnnAssign)
                    else []
                )
                if not any(
                    isinstance(t, ast.Name) and t.id == "METRIC_CATALOG"
                    for t in targets
                ):
                    continue
                value = node.value
                names: dict[str, int] = {}
                if isinstance(value, (ast.Tuple, ast.List)):
                    for entry in value.elts:
                        if (
                            isinstance(entry, (ast.Tuple, ast.List))
                            and entry.elts
                            and isinstance(entry.elts[0], ast.Constant)
                            and isinstance(entry.elts[0].value, str)
                        ):
                            names[entry.elts[0].value] = entry.elts[0].lineno
                return names, module
        try:
            from repro.obs import METRIC_CATALOG
        except Exception:  # pragma: no cover - catalog import always works
            return None, None
        return {entry[0]: 1 for entry in METRIC_CATALOG}, None

    def _near_duplicates(
        self,
        catalog: dict[str, int],
        emitted: dict[str, tuple[str, int]],
        catalog_module: SourceModule | None,
    ) -> list[Finding]:
        known = sorted(set(catalog) | set(emitted))
        by_canonical: dict[str, list[str]] = {}
        for name in known:
            by_canonical.setdefault(self._canonical(name), []).append(name)
        findings: list[Finding] = []
        for group in by_canonical.values():
            if len(group) < 2:
                continue
            for name in group[1:]:
                others = ", ".join(n for n in group if n != name)
                path, line = self._locate(name, catalog, emitted, catalog_module)
                findings.append(
                    Finding(
                        rule=self.code,
                        path=path,
                        line=line,
                        message=(
                            f"metric name {name!r} is a near-duplicate of "
                            f"{others} (same name modulo _total/plural/"
                            "underscores); one statistic must have one key"
                        ),
                    )
                )
        return findings

    @staticmethod
    def _canonical(name: str) -> str:
        if name.endswith("_total"):
            name = name[: -len("_total")]
        if name.endswith("s"):
            name = name[:-1]
        return name.replace("_", "")

    @staticmethod
    def _locate(
        name: str,
        catalog: dict[str, int],
        emitted: dict[str, tuple[str, int]],
        catalog_module: SourceModule | None,
    ) -> tuple[str, int]:
        if name in emitted:
            return emitted[name]
        if catalog_module is not None and name in catalog:
            return catalog_module.path, catalog[name]
        return "<catalog>", catalog.get(name, 1)


# The cross-module rules live in rules_cross (they need the call graph /
# dataflow layer); imported at the bottom so they can reuse this module's
# AST helpers without a cycle at import time.
from repro.lint.rules_cross import CROSS_RULES  # noqa: E402

ALL_RULES: tuple[Rule, ...] = (
    NoGlobalRng(),
    ExperimentProtocol(),
    FrameArithmetic(),
    MetricRegistryHygiene(),
    *CROSS_RULES,
)
