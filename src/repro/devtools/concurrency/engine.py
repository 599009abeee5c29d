"""The process-lifecycle interpreter behind RPR703–705.

Where the RPR6xx family tracks *values* (seed provenance, dtypes,
aliases), this one tracks *resources with a lifecycle* across call hops
— process pools — plus the ``service``/``service.topology`` handles of
a `MISService` whose private state only its op loop may change.

It runs on the shared summary-based driver
(:mod:`repro.devtools.pipeline.driver`): every function is analyzed
once with symbolic parameter markers (``p:0`` …).  A summary records

* whether the function **returns a fresh pool** (``fresh:pool``) — so
  a caller of a factory two hops away owns the shutdown obligation,
* which parameters it **closes / shuts down** — so a ``cleanup(pool)``
  helper discharges the obligation at its call site, and
* which parameters reach a **sink** (a ``submit``, a topology mutator,
  an attribute store) — so passing a closed pool or a service into a
  helper chain is flagged at the concrete call site.

Lifecycle checking is a *must* analysis: branches merge with AND on
``shut`` and OR on ``escaped``; a pool that escapes the function
(returned, stored on an attribute, put in a container, handed to an
unknown callee) transfers its obligation to the owner and is never
flagged locally — that keeps the engine quiet on ownership
patterns like ``self._pool = ProcessPoolExecutor(...)``.  A bare
``if x is not None: x.close()`` guard counts as closing on both merged
paths (the idiomatic owned-resource finally block).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from ..pipeline.driver import EMPTY, Analyzer, Tags, bind_arguments, marker, markers, substitute
from ..pipeline.project import FunctionInfo, ModuleInfo, Project, _dotted, in_package

__all__ = ["ConcurrencyAnalyzer", "CSummary"]

# ----------------------------------------------------------------------
# Vocabulary
# ----------------------------------------------------------------------
SERVICE = "service"  #: a MISService instance
SERVICE_TOPO = "service.topology"  #: the topology obtained from a service
TOPO_OF_MARKER = "topo.read"  #: ``.topology`` read off a parameter marker

#: Return tag of a function that hands its caller a fresh process pool.
_FRESH_POOL = "fresh:pool"
_FRESH_PREFIX = "fresh:"
_RES_PREFIX = "res:"

#: Resolved-callee suffixes recognized as producers.
_POOL_PRODUCERS = ("ProcessPoolExecutor",)
_SERVICE_PRODUCERS = ("MISService",)
_AS_COMPLETED = "as_completed"

#: Module-level bindings that become fork hazards (RPR703).
_RNG_PRODUCER_SUFFIXES = (
    "default_rng", "Generator", "resolve_rng", "rng_from_sequence",
    "RandomState",
)
_CACHE_CTORS = ("dict", "list", "set", "OrderedDict", "defaultdict", "deque")

_RELEASE_METHODS = frozenset({"close", "shutdown"})
_SUBMIT_METHODS = frozenset({"submit", "map"})
_TOPO_MUTATORS = frozenset({
    "add_node", "remove_node", "add_edge", "remove_edge",
})
_CONTAINER_MUTATORS = frozenset({
    "append", "add", "clear", "discard", "extend", "insert", "pop",
    "popitem", "remove", "setdefault", "update",
})

#: Modules allowed to touch service/topology state directly.
_SERVICE_HOMES = ("repro.serve",)

_FORK_SCAN_DEPTH = 4


def _res_ids(tags: Tags) -> List[str]:
    return [t[len(_RES_PREFIX):] for t in tags if t.startswith(_RES_PREFIX)]


@dataclass(frozen=True)
class CSinkHit:
    """A sink one parameter of a function reaches (transitively)."""

    kind: str  # "submit" | "topo" | "attr-store"
    detail: str
    line: int


@dataclass
class CSummary:
    """What a caller needs to know about a callee."""

    ret: Tags = EMPTY  #: may carry ``fresh:pool`` / SERVICE
    #: Parameters the function closes or shuts down.
    released: FrozenSet[int] = field(default_factory=frozenset)
    param_sinks: Dict[int, Tuple[CSinkHit, ...]] = field(default_factory=dict)


@dataclass
class _Resource:
    """One tracked pool creation site (function-local identity)."""

    rid: str
    line: int
    col: int
    detail: str


@dataclass
class _ResState:
    """Per-path lifecycle state of one pool."""

    shut: bool = False  #: ``close()``/``shutdown()`` seen on this path
    escaped: bool = False
    #: Context-managed: shutdown is guaranteed at block exit, but the
    #: pool stays *live* inside the block (submits are fine).
    managed: bool = False

    def copy(self) -> "_ResState":
        return _ResState(
            shut=self.shut, escaped=self.escaped, managed=self.managed
        )


@dataclass
class _State:
    """Mutable per-path analysis state."""

    env: Dict[str, Tags] = field(default_factory=dict)
    res: Dict[str, _ResState] = field(default_factory=dict)
    #: dotted names (incl. ``self._pool``) seen ``.close()``/``.shutdown()``.
    closed_names: Set[str] = field(default_factory=set)

    def copy(self) -> "_State":
        return _State(
            env=dict(self.env),
            res={rid: st.copy() for rid, st in self.res.items()},
            closed_names=set(self.closed_names),
        )

    def adopt(self, other: "_State") -> None:
        """Continue as ``other`` (the only branch that falls through)."""
        self.env, self.res, self.closed_names = other.env, other.res, other.closed_names

    def merge(self, other: "_State") -> None:
        for key, tags in other.env.items():
            self.env[key] = self.env.get(key, EMPTY) | tags
        for rid, theirs in other.res.items():
            mine = self.res.get(rid)
            if mine is None:
                # Created on the other branch only: keep its state as-is.
                self.res[rid] = theirs.copy()
            else:
                mine.shut = mine.shut and theirs.shut  # must-analysis: AND
                mine.escaped = mine.escaped or theirs.escaped
                mine.managed = mine.managed or theirs.managed
        self.closed_names |= other.closed_names


class ConcurrencyAnalyzer(Analyzer[CSummary]):
    """Runs the lifecycle interpretation over a :class:`Project`."""

    def __init__(self, project: Project) -> None:
        super().__init__(project)
        self._module_hazards: Dict[str, Dict[str, Tuple[str, str]]] = {}
        self._fork_reads: Dict[str, Tuple[Tuple[str, str], ...]] = {}

    def analyze(self) -> None:
        for qualname in sorted(self.project.functions):
            self.summary(self.project.functions[qualname])

    def compute_summary(self, fn: FunctionInfo) -> CSummary:
        return _FunctionWalker(self, fn).analyze()

    def empty_summary(self) -> CSummary:
        return CSummary()

    # ------------------------------------------------------------------
    # RPR703 support: module-level fork hazards and worker-callable scans
    # ------------------------------------------------------------------
    def module_hazards(self, module: ModuleInfo) -> Dict[str, Tuple[str, str]]:
        """``name -> (kind, detail)`` for hazardous module-level bindings."""
        cached = self._module_hazards.get(module.name)
        if cached is not None:
            return cached
        hazards: Dict[str, Tuple[str, str]] = {}
        for node in module.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            found = self._hazard_of(module, value)
            if found is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    hazards[target.id] = found
        self._module_hazards[module.name] = hazards
        return hazards

    def _hazard_of(
        self, module: ModuleInfo, value: ast.expr
    ) -> Optional[Tuple[str, str]]:
        if isinstance(value, (ast.Dict, ast.List, ast.Set)):
            return ("cache", "a module-level mutable container")
        if not isinstance(value, ast.Call):
            return None
        name = _dotted(value.func)
        if not name:
            return None
        tail = self.project.resolve(module, name).rsplit(".", 1)[-1]
        if tail in _RNG_PRODUCER_SUFFIXES:
            return ("rng", f"a module-level RNG ({name})")
        if tail in _CACHE_CTORS:
            return ("cache", f"a module-level mutable container ({name})")
        return None

    def fork_reads(
        self, fn: FunctionInfo, depth: int = _FORK_SCAN_DEPTH
    ) -> Tuple[Tuple[str, str], ...]:
        """``(name, detail)`` fork hazards a worker callable captures.

        RNG reads are chased transitively through project-local callees;
        cache *mutations* count only in the callable's own body (workers
        legitimately fill their per-process caches through helpers like
        ``structure_for``).
        """
        cached = self._fork_reads.get(fn.qualname)
        if cached is not None:
            return cached
        self._fork_reads[fn.qualname] = ()  # cut recursion
        module = self.project.modules.get(fn.module)
        if module is None:
            return ()
        hazards = self.module_hazards(module)
        local_names = set(fn.params)
        hits: List[Tuple[str, str]] = []
        body = getattr(fn.node, "body", [])
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    local_names.add(node.id)
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    hazard = hazards.get(node.id)
                    if hazard is None or node.id in local_names:
                        continue
                    kind, detail = hazard
                    if kind == "rng":
                        hits.append((node.id, detail))
                    elif self._mutates_name(body, node.id):
                        hits.append((node.id, detail + " it mutates"))
                elif isinstance(node, ast.Call) and depth > 0:
                    if _dotted(node.func).split(".")[0] in local_names:
                        continue
                    callee = self.resolve_call(module, node, fn)
                    if callee is not None and callee.qualname != fn.qualname:
                        for name, detail in self.fork_reads(callee, depth - 1):
                            if "container" not in detail:
                                hits.append((name, detail + f" via {callee.name}()"))
        deduped = tuple(dict.fromkeys(hits))
        self._fork_reads[fn.qualname] = deduped
        return deduped

    @staticmethod
    def _mutates_name(body: Sequence[ast.stmt], name: str) -> bool:
        """Direct mutation of module-level ``name`` inside ``body``."""
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    base = node.func.value
                    if (
                        isinstance(base, ast.Name)
                        and base.id == name
                        and node.func.attr in _CONTAINER_MUTATORS
                    ):
                        return True
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == name
                        ):
                            return True
        return False


class _FunctionWalker:
    """Abstract interpretation of one function body."""

    def __init__(self, analyzer: ConcurrencyAnalyzer, fn: FunctionInfo):
        self.analyzer = analyzer
        self.project = analyzer.project
        self.fn = fn
        self.module = analyzer.project.modules[fn.module]
        self.state = _State()
        self.resources: Dict[str, _Resource] = {}
        self.exits: List[Dict[str, _ResState]] = []
        self.ret_tags: Tags = EMPTY
        self.released: Set[int] = set()
        self.param_sinks: Dict[int, List[CSinkHit]] = {}
        #: Pending return-states awaiting an enclosing ``finally`` body.
        self._finally_stack: List[List[_State]] = []
        self._res_counter = 0
        for index, name in enumerate(fn.params):
            tags = frozenset({marker(index)})
            if name in ("service", "svc"):
                tags |= frozenset({SERVICE})
            self.state.env[name] = tags

    # ------------------------------------------------------------------
    def analyze(self) -> CSummary:
        body = list(getattr(self.fn.node, "body", []))
        terminated = self._walk_body(body, self.state)
        if not terminated:
            self._snapshot_exit(self.state)
        self._check_leaks()
        return CSummary(
            ret=self.ret_tags,
            released=frozenset(self.released),
            param_sinks={
                i: tuple(hits) for i, hits in self.param_sinks.items()
            },
        )

    def _snapshot_exit(self, state: _State) -> None:
        self.exits.append({rid: st.copy() for rid, st in state.res.items()})

    def _check_leaks(self) -> None:
        for rid, resource in self.resources.items():
            for exit_state in self.exits:
                st = exit_state.get(rid)
                if st is None or st.escaped or st.managed or st.shut:
                    continue
                self._emit(
                    "RPR704", (resource.line, resource.col),
                    f"{resource.detail} is not shut down on every path — "
                    "use a context manager or call shutdown()/close() on "
                    "all exits",
                )
                break  # one finding per creation site

    def _emit(self, rule: str, at: Union[ast.AST, Tuple[int, int]], message: str) -> None:
        self.analyzer.emit(rule, self.module, at, message, self.fn.qualname)

    # ------------------------------------------------------------------
    # Statement walking
    # ------------------------------------------------------------------
    def _walk_body(self, body: Sequence[ast.stmt], state: _State) -> bool:
        for stmt in body:
            if self._walk_stmt(stmt, state):
                return True
        return False

    def _walk_stmt(self, stmt: ast.stmt, state: _State) -> bool:
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                tags = self.eval(stmt.value, state)
                self._escape(tags, state)
                ret = set(t for t in tags if not t.startswith(_RES_PREFIX))
                if any(rid in self.resources for rid in _res_ids(tags)):
                    ret.add(_FRESH_POOL)
                self.ret_tags |= frozenset(ret)
            if self._finally_stack:
                # An enclosing finally still runs before this exit.
                self._finally_stack[-1].append(state.copy())
            else:
                self._snapshot_exit(state)
            return True
        if isinstance(stmt, ast.Raise):
            # Exception paths carry no shutdown obligation here.
            return True
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._walk_assign(stmt, state)
            return False
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value, state)
            return False
        if isinstance(stmt, ast.If):
            return self._walk_branches(stmt, state)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._walk_for(stmt, state)
            return False
        if isinstance(stmt, ast.While):
            self.eval(stmt.test, state)
            self._walk_body(stmt.body, state)
            self._walk_body(stmt.orelse, state)
            return False
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._walk_with(stmt, state)
        if isinstance(stmt, ast.Try):
            return self._walk_try(stmt, state)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return False
        if isinstance(stmt, ast.Delete):
            return False
        if isinstance(stmt, (ast.Import, ast.ImportFrom, ast.Global,
                             ast.Nonlocal, ast.Pass, ast.Break,
                             ast.Continue, ast.Assert)):
            if isinstance(stmt, ast.Assert):
                self.eval(stmt.test, state)
            return False
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self.eval(child, state)
        return False

    def _walk_branches(self, stmt: ast.If, state: _State) -> bool:
        self.eval(stmt.test, state)
        if not stmt.orelse and self._is_presence_guard(stmt.test):
            # ``if x is not None: x.close()`` — the owned-resource
            # finally idiom: treat the guarded close as unconditional.
            return self._walk_body(stmt.body, state)
        then_state = state.copy()
        then_done = self._walk_body(stmt.body, then_state)
        else_state = state.copy()
        else_done = self._walk_body(stmt.orelse, else_state)
        if then_done and else_done:
            return True
        state.adopt(else_state if then_done else then_state)
        if not (then_done or else_done):
            state.merge(else_state)
        return False

    @staticmethod
    def _is_presence_guard(test: ast.expr) -> bool:
        if isinstance(test, ast.Name):
            return True
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            op = test.ops[0]
            if isinstance(op, (ast.IsNot, ast.NotEq)):
                left, right = test.left, test.comparators[0]
                none_side = (
                    isinstance(right, ast.Constant) and right.value is None
                ) or (isinstance(left, ast.Constant) and left.value is None)
                return none_side
        return False

    def _walk_for(self, stmt: "ast.For | ast.AsyncFor", state: _State) -> None:
        iter_tags = self.eval(stmt.iter, state)
        self._check_unordered_merge(stmt, state)
        element = frozenset(t for t in iter_tags if t.startswith("p:"))
        self._bind_target(stmt.target, element, state)
        self._walk_body(stmt.body, state)
        self._walk_body(stmt.orelse, state)

    def _check_unordered_merge(
        self, stmt: "ast.For | ast.AsyncFor", state: _State
    ) -> None:
        """RPR704: ``for f in as_completed(...)`` feeding list.append."""
        if not isinstance(stmt.iter, ast.Call):
            return
        name = _dotted(stmt.iter.func)
        if not name:
            return
        resolved = self.project.resolve(self.module, name)
        if resolved.rsplit(".", 1)[-1] != _AS_COMPLETED:
            return
        if not isinstance(stmt.target, ast.Name):
            return
        future = stmt.target.id
        for node in ast.walk(ast.Module(body=list(stmt.body), type_ignores=[])):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "extend")
            ):
                continue
            for arg in node.args:
                for sub in ast.walk(arg):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "result"
                        and isinstance(sub.func.value, ast.Name)
                        and sub.func.value.id == future
                    ):
                        self._emit(
                            "RPR704", stmt,
                            "as_completed() yields futures in completion "
                            "order — appending results positionally makes "
                            "sample order scheduler-dependent; index the "
                            "output by the future's submission slot "
                            "instead",
                        )
                        return

    def _walk_with(self, stmt: "ast.With | ast.AsyncWith", state: _State) -> bool:
        managed: List[str] = []
        for item in stmt.items:
            tags = self.eval(item.context_expr, state)
            # A context-managed pool is shut down by the protocol — at
            # block *exit*; inside the block it is still live.
            for rid in _res_ids(tags):
                st = state.res.get(rid)
                if st is not None:
                    st.managed = True
                    managed.append(rid)
            if item.optional_vars is not None:
                self._bind_target(item.optional_vars, tags, state)
        terminated = self._walk_body(stmt.body, state)
        for rid in managed:
            st = state.res.get(rid)
            if st is not None:
                st.shut = True
        return terminated

    def _walk_try(self, stmt: ast.Try, state: _State) -> bool:
        if stmt.finalbody:
            self._finally_stack.append([])
        terminated = self._walk_body(stmt.body, state)
        for handler in stmt.handlers:
            handler_state = state.copy()
            self._walk_body(handler.body, handler_state)
            state.merge(handler_state)
        if not terminated:
            self._walk_body(stmt.orelse, state)
        if not stmt.finalbody:
            return terminated
        pending = self._finally_stack.pop()
        finished = self._walk_body(stmt.finalbody, state)
        for return_state in pending:
            # Re-run the finally effects on each deferred return path,
            # then route it to the next enclosing finally (or the exit).
            self._walk_body(stmt.finalbody, return_state)
            if self._finally_stack:
                self._finally_stack[-1].append(return_state)
            else:
                self._snapshot_exit(return_state)
        return finished or terminated

    # ------------------------------------------------------------------
    # Assignments
    # ------------------------------------------------------------------
    def _walk_assign(
        self,
        stmt: "ast.Assign | ast.AnnAssign | ast.AugAssign",
        state: _State,
    ) -> None:
        if isinstance(stmt, ast.AugAssign):
            self._escape(self.eval(stmt.value, state), state)
            return
        value = stmt.value
        tags = self.eval(value, state) if value is not None else EMPTY
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for target in targets:
            self._bind_target(target, tags, state)

    def _bind_target(self, target: ast.expr, tags: Tags, state: _State) -> None:
        if isinstance(target, ast.Name):
            state.env[target.id] = tags
            state.closed_names.discard(target.id)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            element = frozenset(
                t for t in tags if not t.startswith(_FRESH_PREFIX)
            )
            for elt in target.elts:
                self._bind_target(elt, element, state)
            return
        if isinstance(target, ast.Attribute):
            base_tags = self.eval(target.value, state)
            self._check_service_attr_store(target, base_tags)
            self._escape(tags, state)
            name = _dotted(target)
            if name:
                state.env[name] = tags
                state.closed_names.discard(name)
            return
        if isinstance(target, ast.Subscript):
            self.eval(target.value, state)
        self._escape(tags, state)

    def _check_service_attr_store(
        self, target: ast.Attribute, base_tags: Tags
    ) -> None:
        if in_package(self.module.name, _SERVICE_HOMES):
            return
        if SERVICE in base_tags:
            self._emit(
                "RPR705", target,
                f"service attribute '{target.attr}' written outside the "
                "op loop — route state changes through "
                "service.apply()/run()",
            )
        for index in markers(base_tags):
            self._record_sink(
                index,
                CSinkHit("attr-store", f"attribute '{target.attr}'",
                         target.lineno),
            )

    def _record_sink(self, index: int, hit: CSinkHit) -> None:
        self.param_sinks.setdefault(index, []).append(hit)

    def _escape(self, tags: Tags, state: _State) -> None:
        for rid in _res_ids(tags):
            st = state.res.get(rid)
            if st is not None:
                st.escaped = True

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------
    def eval(self, node: ast.expr, state: _State) -> Tags:
        if isinstance(node, ast.Name):
            return state.env.get(node.id, EMPTY)
        if isinstance(node, ast.Constant):
            return EMPTY
        if isinstance(node, ast.Call):
            return self._eval_call(node, state)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, state)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out: Tags = EMPTY
            for elt in node.elts:
                out |= self.eval(elt, state)
            return out
        if isinstance(node, ast.Dict):
            out = EMPTY
            for key in node.keys:
                if key is not None:
                    out |= self.eval(key, state)
            for value in node.values:
                out |= self.eval(value, state)
            return out
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value, state)
            self.eval(node.slice, state)
            return frozenset(
                t for t in base if t.startswith("p:") or t == SERVICE_TOPO
            )
        if isinstance(node, ast.Starred):
            return self.eval(node.value, state)
        if isinstance(node, ast.Await):
            return self.eval(node.value, state)
        if isinstance(node, ast.NamedExpr):
            tags = self.eval(node.value, state)
            self._bind_target(node.target, tags, state)
            return tags
        if isinstance(node, ast.IfExp):
            self.eval(node.test, state)
            return self.eval(node.body, state) | self.eval(node.orelse, state)
        if isinstance(node, ast.BoolOp):
            out = EMPTY
            for value in node.values:
                out |= self.eval(value, state)
            return out
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            for gen in node.generators:
                iter_tags = self.eval(gen.iter, state)
                element = frozenset(t for t in iter_tags if t.startswith("p:"))
                self._bind_target(gen.target, element, state)
                for cond in gen.ifs:
                    self.eval(cond, state)
            if isinstance(node, ast.DictComp):
                self.eval(node.key, state)
                self.eval(node.value, state)
            else:
                self.eval(node.elt, state)
            return EMPTY
        if isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Compare,
                             ast.JoinedStr, ast.FormattedValue,
                             ast.Lambda, ast.Slice)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.eval(child, state)
            return EMPTY
        return EMPTY

    def _eval_attribute(self, node: ast.Attribute, state: _State) -> Tags:
        name = _dotted(node)
        if name and name in state.env:
            return state.env[name]
        base = self.eval(node.value, state)
        out: Set[str] = set(t for t in base if t.startswith("p:"))
        if node.attr == "topology":
            if SERVICE in base:
                out.add(SERVICE_TOPO)
            if any(t.startswith("p:") for t in base):
                out.add(TOPO_OF_MARKER)
        elif SERVICE_TOPO in base:
            out.add(SERVICE_TOPO)
        elif TOPO_OF_MARKER in base:
            out.add(TOPO_OF_MARKER)
        return frozenset(out)

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def _new_resource(self, node: ast.Call, detail: str, state: _State) -> Tags:
        self._res_counter += 1
        rid = f"r{self._res_counter}"
        self.resources[rid] = _Resource(
            rid=rid, line=node.lineno, col=node.col_offset, detail=detail,
        )
        state.res[rid] = _ResState()
        return frozenset({_RES_PREFIX + rid})

    def _eval_call(self, node: ast.Call, state: _State) -> Tags:
        name = _dotted(node.func)
        if name:
            resolved = self.project.resolve(self.module, name)
            known = self._known_producer(node, resolved, state)
            if known is not None:
                return known
        base_tags = EMPTY
        if isinstance(node.func, ast.Attribute):
            base_tags = self.eval(node.func.value, state)
            handled = self._eval_lifecycle_method(node, node.func, base_tags, state)
            if handled is not None:
                return handled
        callee = self.analyzer.resolve_call(self.module, node, self.fn)
        if callee is not None:
            return self._apply_function(node, callee, state)
        # Unknown callee: resources passed as positional arguments escape.
        for tags in self._eval_args_generic(node, state):
            self._escape(tags, state)
        return EMPTY

    def _eval_args_generic(self, node: ast.Call, state: _State) -> List[Tags]:
        """Evaluate every argument; returns the positional ones' tags."""
        arg_tags = [self.eval(arg, state) for arg in node.args]
        for keyword in node.keywords:
            self.eval(keyword.value, state)
        return arg_tags

    def _known_producer(
        self, node: ast.Call, resolved: str, state: _State
    ) -> Optional[Tags]:
        """Model the pool/service construction API by name."""
        tail = resolved.rsplit(".", 1)[-1]
        if tail in _POOL_PRODUCERS:
            self._check_initializer(node)
            self._escape_all_args(node, state)
            return self._new_resource(node, f"process pool ({tail})", state)
        if tail in _SERVICE_PRODUCERS:
            self._escape_all_args(node, state)
            return frozenset({SERVICE})
        return None

    def _escape_all_args(self, node: ast.Call, state: _State) -> None:
        for arg in node.args:
            self._escape(self.eval(arg, state), state)
        for keyword in node.keywords:
            self._escape(self.eval(keyword.value, state), state)

    def _check_initializer(self, node: ast.Call) -> None:
        """RPR703 at ``ProcessPoolExecutor(initializer=fn)`` sites."""
        for keyword in node.keywords:
            if keyword.arg == "initializer":
                self._check_fork_capture(keyword.value, node.lineno,
                                         node.col_offset, "initializer")

    def _check_fork_capture(
        self, callable_node: ast.expr, line: int, col: int, via: str
    ) -> None:
        name = _dotted(callable_node)
        if not name:
            return
        callee = self.project.lookup_function(self.project.resolve(self.module, name))
        if callee is None:
            return
        for captured, detail in self.analyzer.fork_reads(callee):
            self._emit(
                "RPR703", (line, col),
                f"worker {via} '{callee.name}' captures {detail} "
                f"('{captured}') — fork-inherited module state diverges "
                "between parent and workers; pass it as a task argument "
                "instead",
            )

    def _eval_lifecycle_method(
        self, node: ast.Call, func: ast.Attribute, base_tags: Tags, state: _State
    ) -> Optional[Tags]:
        """Release, submit and topology-mutator calls; ``None`` otherwise."""
        attr = func.attr
        base_name = _dotted(func.value)

        if attr in _RELEASE_METHODS:
            self._apply_release(base_tags, base_name, state)
            self._eval_args_generic(node, state)
            return EMPTY
        if attr in _SUBMIT_METHODS:
            self._check_submit(node, base_tags, base_name, state)
            return EMPTY
        if attr in _TOPO_MUTATORS:
            self._check_topo_mutation(node, base_tags, state)
            self._eval_args_generic(node, state)
            return EMPTY
        return None

    def _apply_release(self, base_tags: Tags, base_name: str, state: _State) -> None:
        self._shut(_res_ids(base_tags), state)
        self.released.update(markers(base_tags))
        if base_name:
            state.closed_names.add(base_name)

    @staticmethod
    def _shut(rids: List[str], state: _State) -> None:
        for rid in rids:
            st = state.res.get(rid)
            if st is not None:
                st.shut = True

    def _check_submit(
        self, node: ast.Call, base_tags: Tags, base_name: str, state: _State
    ) -> None:
        # RPR704: submit on a closed/shut-down pool.
        closed = any(
            rid in state.res and state.res[rid].shut
            for rid in _res_ids(base_tags)
        )
        if closed or (base_name and base_name in state.closed_names):
            self._emit(
                "RPR704", node,
                "submit on a pool that was already closed/shut down on "
                "this path — RuntimeError at runtime, deep inside the "
                "sweep",
            )
        for index in markers(base_tags):
            self._record_sink(index, CSinkHit("submit", "submit", node.lineno))
        # RPR703: the submitted callable.
        if node.args:
            self._check_fork_capture(
                node.args[0], node.lineno, node.col_offset, "task"
            )
        for arg in node.args:
            self._escape(self.eval(arg, state), state)
        for keyword in node.keywords:
            self._escape(self.eval(keyword.value, state), state)

    def _check_topo_mutation(
        self, node: ast.Call, base_tags: Tags, state: _State
    ) -> None:
        if SERVICE_TOPO in base_tags and not in_package(self.module.name, _SERVICE_HOMES):
            self._emit(
                "RPR705", node,
                "topology mutator called on service.topology outside the "
                "service op loop — apply ADD_/DEL_ ops through "
                "service.apply()/run() so structure and levels stay in "
                "sync",
            )
        if TOPO_OF_MARKER in base_tags:
            for index in markers(base_tags):
                self._record_sink(
                    index, CSinkHit("topo", "topology mutator", node.lineno)
                )

    def _apply_function(
        self, node: ast.Call, callee: FunctionInfo, state: _State
    ) -> Tags:
        summary = self.analyzer.summary(callee)
        passed: Dict[int, Tags] = {}
        for binding in bind_arguments(node, callee.params):
            tags = self.eval(binding.expr, state)
            if binding.starred:
                continue
            if binding.index is None:
                self._escape(tags, state)
                continue
            passed[binding.index] = frozenset(
                t for t in tags if not t.startswith(_RES_PREFIX)
            )
            self._apply_param(
                node, tags, binding.expr,
                binding.index in summary.released,
                summary.param_sinks.get(binding.index, ()),
                state,
            )
        ret = substitute(
            frozenset(t for t in summary.ret if not t.startswith(_FRESH_PREFIX)),
            passed,
        )
        if _FRESH_POOL in summary.ret:
            ret |= self._new_resource(
                node, f"process pool (via {callee.name}())", state
            )
        return ret

    def _apply_param(
        self,
        node: ast.Call,
        tags: Tags,
        arg: ast.expr,
        released: bool,
        sinks: Tuple[CSinkHit, ...],
        state: _State,
    ) -> None:
        rids = _res_ids(tags)
        if released:
            self._shut(rids, state)
            self.released.update(markers(tags))
        elif rids:
            self._escape(tags, state)
        for hit in sinks:
            if hit.kind == "submit":
                closed = any(
                    state.res[rid].shut for rid in rids if rid in state.res
                )
                arg_name = _dotted(arg)
                if closed or (arg_name and arg_name in state.closed_names):
                    self._emit(
                        "RPR704", node,
                        "helper submits to a pool this caller already "
                        "closed/shut down on this path",
                    )
            if hit.kind in ("topo", "attr-store") and SERVICE in tags:
                if not in_package(self.module.name, _SERVICE_HOMES):
                    self._emit(
                        "RPR705", node,
                        "helper mutates service state "
                        f"({hit.detail}, via callee at line {hit.line}) "
                        "outside the service op loop",
                    )
            # Marker-to-marker propagation for deeper chains.
            for marker_index in markers(tags):
                self._record_sink(marker_index, hit)
