"""The hot-path hygiene interpreter behind RPR801–805.

The RPR6xx family tracks *values*; this one tracks **allocation
frequency**.  It first
infers the *hot region* — every function reachable, through the
project call graph, from the per-round roots
(``EngineBase.until_stable``/``BatchedEngine.run``/``step``, the fused
round kernel's run loops and round bodies, the registered hear-kernel
entry points, ``update_structure``, and the channel/scheduler/collector
per-round methods) — and then checks each
hot function against the round-frequency allocation contract
(:mod:`.rules`).

Three scoping devices keep the region honest:

* **setup escapes** — ``__init__``/``rebind``/``randomize_levels`` and
  friends are construction-time by contract; calls into them are never
  traversed, so buffers bound there are exactly the blessed ones;
* **driver bodies** — ``run``/``until_stable``/``run_block`` contain both
  the per-round loop *and* one-time prologue/epilogue work.  Their
  calls are traversed (the loop body is reached through them), but
  findings inside a driver are reported only for statements lexically
  inside a ``for``/``while`` loop;
* ``# repro: cold`` — a comment on a ``def`` line excludes that
  function from the hot region entirely (the analyzer's equivalent of
  a setup-phase annotation for helpers it cannot classify).

Flagging is deliberately call-shaped rather than type-inferred: RPR801
fires on a closed set of known allocator calls whose result provably
dies inside the hot function (returned/attribute-stored/container-
stored results transfer the decision to the owner), with per-function
*returns-fresh* summaries making the check interprocedural — a helper
that only ever returns a freshly allocated array is charged at the hot
call site that discards its result.  Variable-shape gathers
(``levels[active_idx]``) are deliberately out of scope: they cannot be
cleanly preallocated, and the runtime allocation auditor
(:mod:`.audit`) is the backstop that keeps total steady-state
bytes/round near zero anyway.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from ..pipeline.driver import Analyzer
from ..pipeline.findings import is_cold_line
from ..pipeline.project import FunctionInfo, ModuleInfo, _dotted

__all__ = ["HotpathAnalyzer"]

#: Functions that *contain* the per-round loop: traversed fully, but
#: flagged only inside ``for``/``while`` bodies (their prologue is
#: one-time work).
_DRIVER_NAMES = frozenset({
    "run", "until_stable", "run_block",
})

#: Construction/rebind-time methods: never traversed, never flagged —
#: allocating here is exactly what the rules ask for.
_SETUP_NAMES = frozenset({
    "__init__", "__post_init__", "rebind", "bind", "bind_stress_models",
    "randomize_levels", "set_levels", "adopt_engine", "finalize",
    "finalize_replica", "from_engine", "from_policy",
})

#: Module-level functions that are hot roots wherever they are defined.
_ROOT_FUNCTIONS = frozenset({"update_structure"})

#: Allocator calls RPR801 recognizes (fully qualified numpy names):
#: the fixed-shape constructors and whole-array copies — exactly the
#: calls a preallocated buffer can replace.  ``np.arange``/
#: ``np.nonzero``/``np.flatnonzero``/``np.where`` and the
#: concatenation family (``concatenate``/``stack``/``tile``/…) are
#: deliberately absent: index materialization and shape-growing splices
#: have data-dependent output shapes and cannot be preallocated.
_ALLOC_FUNCS = frozenset({
    "numpy.zeros", "numpy.empty", "numpy.ones", "numpy.full",
    "numpy.zeros_like", "numpy.empty_like", "numpy.ones_like",
    "numpy.full_like", "numpy.copy",
})

#: RPR804 additionally treats ``np.where`` as an allocator: a per-call
#: ``self.attr = np.where(...)`` rebinding is the scratch-churn shape
#: even though a *local* ``np.where`` temporary is tolerated.
_ATTR_ALLOC_FUNCS = _ALLOC_FUNCS | frozenset({"numpy.where"})

#: Generator draw methods that allocate when called without ``out=``.
_RNG_DRAW_METHODS = frozenset({"random", "integers"})

#: Receiver-name fragments that mark a logging object (RPR805).
_LOGGER_NAMES = frozenset({"log", "logger", "_log", "_logger"})

#: Decorators that wrap a function in per-call measurement (RPR805).
_PROFILE_DECORATORS = frozenset({"profile", "profiled", "line_profile"})


def _has_out_kwarg(call: ast.Call) -> bool:
    return any(kw.arg == "out" for kw in call.keywords)


class HotpathAnalyzer(Analyzer[bool]):
    """Runs the hot-region allocation checks over a project.

    A function's summary is whether it *returns fresh* (see
    :meth:`compute_summary`).
    """

    def analyze(self) -> None:
        hot = self._infer_hot_region()
        for qualname in sorted(hot):
            _FunctionChecker(self, self.project.functions[qualname]).check()
        self.functions_analyzed = len(hot)

    # ------------------------------------------------------------------
    # Hot-region inference
    # ------------------------------------------------------------------
    def _infer_hot_region(self) -> Set[str]:
        roots = [fn for fn in self.project.functions.values() if self._is_root(fn)]
        hot: Set[str] = set()
        queue: List[FunctionInfo] = []
        for fn in roots:
            if self._traversable(fn):
                hot.add(fn.qualname)
                queue.append(fn)
        while queue:
            fn = queue.pop()
            for callee in self._callees(fn):
                if callee.qualname in hot or not self._traversable(callee):
                    continue
                hot.add(callee.qualname)
                queue.append(callee)
        return hot

    def _traversable(self, fn: FunctionInfo) -> bool:
        return fn.name not in _SETUP_NAMES and not self.is_cold(fn)

    def is_cold(self, fn: FunctionInfo) -> bool:
        """True when the ``def`` line carries a ``# repro: cold`` marker."""
        return is_cold_line(self.project.modules[fn.module].line(fn.lineno))

    def _is_root(self, fn: FunctionInfo) -> bool:
        if not fn.is_method:
            return fn.name in _ROOT_FUNCTIONS
        selectors = self._root_methods(fn)
        return fn.name in selectors

    def _root_methods(self, fn: FunctionInfo) -> FrozenSet[str]:
        cls_name = fn.class_name or ""
        if self._is_engine_like(fn):
            return frozenset({
                "until_stable", "run", "step", "mis_mask", "stable_mask",
                "is_legal",
            })
        if cls_name == "RoundKernel":
            # The kernel owns the whole round: the run loop is a
            # driver (loop bodies only), ``step`` is the engines'
            # one-round entry, and the per-round step bodies are roots
            # of their own because the loop dispatches through a
            # ``getattr`` binding the call-graph walk cannot resolve.
            return frozenset({
                "run_block", "step",
                "_step_single", "_step_two", "_step_constant",
            })
        if cls_name.endswith("Kernel"):
            return frozenset({"hear", "hear_rows", "__call__"})
        if cls_name.endswith("Channel"):
            return frozenset({"_perturb", "apply"})
        if cls_name.endswith("Scheduler") or cls_name.lstrip("_").startswith("Bound"):
            return frozenset({"active_mask"})
        if cls_name.endswith("Collector"):
            return frozenset({"observe_structure", "observe_masks", "observe_beeps"})
        if cls_name == "StressState":
            return frozenset({
                "begin_round", "transmit", "apply_channel", "active_mask",
            })
        return frozenset()

    def _is_engine_like(self, fn: FunctionInfo) -> bool:
        """Vectorized engine classes only — the object-per-node reference
        network is deliberately Python-looped and stays out of scope."""
        cls_name = fn.class_name or ""
        if cls_name == "EngineBase" or cls_name.endswith("Engine"):
            return True
        cls = self.project.classes.get(f"{fn.module}.{cls_name}")
        return cls is not None and self.project.inherits(cls, "EngineBase")

    def _callees(self, fn: FunctionInfo) -> Iterable[FunctionInfo]:
        module = self.project.modules[fn.module]
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                target = self.resolve_call(module, node, fn)
                if target is not None:
                    yield target

    # ------------------------------------------------------------------
    # Returns-fresh summaries (the interprocedural half of RPR801)
    # ------------------------------------------------------------------
    def empty_summary(self) -> bool:
        return False  # recursion: under-approximate

    def compute_summary(self, fn: FunctionInfo) -> bool:
        """True iff *every* return hands back a freshly allocated array.

        Must-semantics: a single return of a parameter, an attribute, or
        a computed expression makes the function non-fresh — callers
        could not replace such a helper with a preallocated buffer.
        """
        module = self.project.modules[fn.module]
        fresh_names: Dict[str, bool] = {name: False for name in fn.params}
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    fresh = self._is_fresh_value(fn, module, node.value)
                    fresh_names[target.id] = (
                        fresh_names.get(target.id, True) and fresh
                    )
                    continue
            for target in _assigned_names(node):
                fresh_names[target] = False
        returns = [
            node
            for node in ast.walk(fn.node)
            if isinstance(node, ast.Return)
            and node.value is not None
            and not (
                isinstance(node.value, ast.Constant)
                and node.value.value is None
            )
        ]
        if not returns:
            return False
        for node in returns:
            value = node.value
            assert value is not None
            if isinstance(value, ast.Name):
                if fresh_names.get(value.id, False):
                    continue
                return False
            if isinstance(value, ast.Call) and self._is_fresh_value(
                fn, module, value
            ):
                continue
            return False
        return True

    def _is_fresh_value(
        self, fn: FunctionInfo, module: ModuleInfo, value: ast.expr
    ) -> bool:
        if not isinstance(value, ast.Call):
            return False
        call = value
        if _has_out_kwarg(call):
            return False
        func = call.func
        name = _dotted(func)
        if name and self.project.resolve(module, name) in _ALLOC_FUNCS:
            return True
        if isinstance(func, ast.Attribute):
            # For summaries .copy()/.toarray() on *any* receiver is fresh.
            if func.attr in ("copy", "toarray"):
                return True
            if func.attr in _RNG_DRAW_METHODS:
                return True
        callee = self.resolve_call(module, call, fn)
        if callee is not None and callee.qualname != fn.qualname:
            return self.summary(callee)
        return False


def _assigned_names(node: ast.AST) -> List[str]:
    """Names (re)bound by a non-simple assignment-like statement.

    Only true *bindings* count: ``legal[mask] = x`` and
    ``obj.attr = x`` write through an existing binding without changing
    what the name refers to, so the name stays fresh if it was.
    """
    names: List[str] = []
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign) and len(node.targets) != 1:
        targets = list(node.targets)
    elif isinstance(node, ast.Assign) and not isinstance(
        node.targets[0], ast.Name
    ):
        targets = list(node.targets)
    elif isinstance(node, ast.AugAssign):
        targets = [node.target]
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        targets = [node.target]
    elif isinstance(node, (ast.With, ast.AsyncWith)):
        targets = [
            item.optional_vars for item in node.items if item.optional_vars
        ]
    for target in targets:
        _binding_names(target, names)
    return names


def _binding_names(target: ast.expr, names: List[str]) -> None:
    if isinstance(target, ast.Name):
        names.append(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _binding_names(element, names)
    elif isinstance(target, ast.Starred):
        _binding_names(target.value, names)
    # Subscript/Attribute targets mutate through a binding, not the
    # binding itself — no names rebound.


class _FunctionChecker:
    """One hot function's allocation-hygiene pass."""

    def __init__(self, analyzer: HotpathAnalyzer, fn: FunctionInfo):
        self.analyzer = analyzer
        self.project = analyzer.project
        self.fn = fn
        self.module = analyzer.project.modules[fn.module]
        self.driver = fn.name in _DRIVER_NAMES
        self.tags: Set[str] = set()
        self.escaped: Set[str] = set()
        self.parents: Dict[int, ast.AST] = {}

    # ------------------------------------------------------------------
    def check(self) -> None:
        self._check_profile_decorator()
        self._collect_locals()
        flaggable = self._flaggable_ids()
        for node in ast.walk(self.fn.node):
            if id(node) not in flaggable:
                continue
            if isinstance(node, ast.Call):
                self._check_call(node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._check_for(node)
            elif isinstance(node, ast.Assign):
                self._check_attr_store(node)

    def _emit(self, rule: str, message: str, node: ast.AST) -> None:
        self.analyzer.emit(rule, self.module, node, message, self.fn.qualname)

    # ------------------------------------------------------------------
    def _flaggable_ids(self) -> Set[int]:
        """Nodes eligible for findings: loop bodies only inside drivers."""
        flaggable: Set[int] = set()
        if self.driver:
            for node in ast.walk(self.fn.node):
                if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                    for sub in ast.walk(node):
                        flaggable.add(id(sub))
        else:
            for node in ast.walk(self.fn.node):
                flaggable.add(id(node))
        return flaggable

    def _collect_locals(self) -> None:
        """Array tags, escapes, and the expression parent map."""
        for node in ast.walk(self.fn.node):
            for child in ast.iter_child_nodes(node):
                self.parents[id(child)] = node
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                value = node.value
                if isinstance(target, ast.Name):
                    if self._alloc_desc(value) or self._fresh_callee(value):
                        self.tags.add(target.id)
                elif isinstance(target, (ast.Attribute, ast.Subscript)):
                    if isinstance(value, ast.Name):
                        self.escaped.add(value.id)
            elif isinstance(node, ast.Return) and isinstance(
                node.value, ast.Name
            ):
                self.escaped.add(node.value.id)
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name):
                        self.escaped.add(sub.id)
            elif isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.Name):
                        self.escaped.add(child.id)
            elif isinstance(node, ast.comprehension):
                # Element-wise consumption into a new container: the
                # container owner decides the array's lifetime.
                if isinstance(node.iter, ast.Name):
                    self.escaped.add(node.iter.id)
            elif isinstance(node, ast.Call):
                func = node.func
                # container.append(x)/dict.setdefault(...) escape x.
                if isinstance(func, ast.Attribute) and func.attr in (
                    "append", "add", "extend", "insert", "setdefault", "update",
                ):
                    for arg in node.args:
                        if isinstance(arg, ast.Name):
                            self.escaped.add(arg.id)

    # ------------------------------------------------------------------
    # Allocation classification
    # ------------------------------------------------------------------
    def _alloc_desc(self, value: ast.expr) -> Optional[str]:
        """A human-readable description when ``value`` is an allocator call."""
        if not isinstance(value, ast.Call):
            return None
        call = value
        if _has_out_kwarg(call):
            return None
        func = call.func
        name = _dotted(func)
        if name and self.project.resolve(self.module, name) in _ALLOC_FUNCS:
            return f"{name}(...)"
        if isinstance(func, ast.Attribute):
            if func.attr == "toarray":
                return f"{name or '.toarray'}(...)"
            if (
                func.attr == "copy"
                and isinstance(func.value, ast.Name)
                and func.value.id in self.tags
            ):
                return f"{func.value.id}.copy()"
            if func.attr in _RNG_DRAW_METHODS:
                return f"{name or '<rng>.' + func.attr}(...) generator draw (no out=)"
        return None

    def _fresh_callee(self, value: ast.expr) -> Optional[FunctionInfo]:
        """The resolved callee when ``value`` calls a returns-fresh helper."""
        if not isinstance(value, ast.Call):
            return None
        callee = self.analyzer.resolve_call(self.module, value, self.fn)
        if callee is None or callee.qualname == self.fn.qualname:
            return None
        return callee if self.analyzer.summary(callee) else None

    # ------------------------------------------------------------------
    # Per-node checks
    # ------------------------------------------------------------------
    def _check_call(self, call: ast.Call) -> None:
        func = call.func
        # RPR802 — dtype-churning .astype in any expression position.
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            self._emit(
                "RPR802",
                "hot-path dtype churn: .astype(...) materializes a "
                "converted copy every round; keep a scratch array of the "
                "target dtype and cast-on-store with np.copyto",
                call,
            )
        # RPR805 — logging/print at round frequency.
        self._check_observability(call)
        # RPR801 — allocator calls (direct or via returns-fresh helpers).
        desc = self._alloc_desc(call)
        via = ""
        if desc is None:
            callee = self._fresh_callee(call)
            if callee is not None:
                desc = f"{callee.name}(...)"
                via = f" (helper {callee.qualname} only returns fresh arrays)"
        if desc is None:
            return
        if not self._dies_locally(call):
            return
        self._emit(
            "RPR801",
            f"hot-path allocation: {desc} allocates a fresh array every "
            "round and the result never leaves this function; bind a "
            "reusable buffer at __init__/rebind and fill it in place "
            f"(out=, np.copyto, sliced scratch){via}",
            call,
        )

    def _dies_locally(self, call: ast.Call) -> bool:
        """True when the call's fresh result cannot outlive the function."""
        child: ast.AST = call
        node = self.parents.get(id(call))
        while node is not None:
            if isinstance(node, ast.Assign):
                if len(node.targets) == 1 and isinstance(
                    node.targets[0], ast.Name
                ):
                    if node.value is call:
                        # Simple local bind: escape analysis decides.
                        return node.targets[0].id not in self.escaped
                    # Died mid-expression feeding a local bind.
                    return True
                return False  # attribute/subscript/tuple store: escapes
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                return False
            if isinstance(
                node, (ast.Tuple, ast.List, ast.Set, ast.Dict, ast.Starred)
            ):
                return False  # container literal: owner's decision
            if isinstance(node, (ast.withitem, ast.comprehension)):
                return False
            if isinstance(node, ast.stmt):
                return True  # bare Expr, loop iter, aug-assign value, ...
            child = node
            node = self.parents.get(id(child))
        return True

    def _check_for(self, node: ast.For) -> None:
        iterated: Optional[str] = None
        if isinstance(node.iter, ast.Name) and node.iter.id in self.tags:
            iterated = node.iter.id
        elif isinstance(node.iter, ast.Call) and isinstance(
            node.iter.func, ast.Name
        ):
            if node.iter.func.id in ("enumerate", "zip", "reversed"):
                for arg in node.iter.args:
                    if isinstance(arg, ast.Name) and arg.id in self.tags:
                        iterated = arg.id
                        break
        if iterated is None:
            return
        self._emit(
            "RPR803",
            f"Python-level loop over '{iterated}', an array materialized "
            "in this hot function — per-element interpreter dispatch "
            "every round; keep it an array expression (ufuncs, "
            "boolean masks, reductions)",
            node,
        )

    def _check_attr_store(self, node: ast.Assign) -> None:
        if len(node.targets) != 1:
            return
        target = node.targets[0]
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return
        value = node.value
        desc = self._alloc_desc(value)
        if desc is None and isinstance(value, ast.Call):
            name = _dotted(value.func)
            if (
                name
                and self.project.resolve(self.module, name) in _ATTR_ALLOC_FUNCS
                and not _has_out_kwarg(value)
            ):
                desc = f"{name}(...)"
        if desc is None and self._fresh_callee(value) is not None:
            desc = "a returns-fresh helper call"
        if desc is None:
            return
        self._emit(
            "RPR804",
            f"per-round scratch rebinding: self.{target.attr} = {desc} "
            "reallocates the buffer on every hot call; allocate it once "
            "at __init__/rebind and update in place (out=, masked "
            "assignment)",
            node,
        )

    def _check_observability(self, call: ast.Call) -> None:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "print":
                self._emit(
                    "RPR805",
                    "hot-path observability bypass: print() at round "
                    "frequency; route per-round observability through "
                    "the repro.obs collectors (zero-perturbation tested)",
                    call,
                )
            return
        if not isinstance(func, ast.Attribute):
            return
        name = _dotted(func)
        if not name:
            return
        resolved = self.project.resolve(self.module, name)
        parts = name.split(".")
        if resolved.startswith("logging.") or any(
            part in _LOGGER_NAMES for part in parts[:-1]
        ):
            self._emit(
                "RPR805",
                f"hot-path observability bypass: {name}(...) logs at "
                "round frequency; per-round observability goes through "
                "repro.obs (collectors, MetricsRegistry, PhaseProfiler)",
                call,
            )

    def _check_profile_decorator(self) -> None:
        decorators = getattr(self.fn.node, "decorator_list", [])
        for decorator in decorators:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = _dotted(target)
            if name.rsplit(".", 1)[-1] in _PROFILE_DECORATORS:
                self._emit(
                    "RPR805",
                    f"hot function decorated @{name}: per-call "
                    "measurement wraps every round; profile phases "
                    "through repro.obs.PhaseProfiler on the cold driver "
                    "instead",
                    decorator,
                )
