"""The abstract interpreter behind the RPR6xx rules.

Three tag lattices (joined by set union) flow through the shared
summary-based driver (:mod:`repro.devtools.pipeline.driver`):

* **seed provenance** — ``rng.raw`` (a bare ``np.random.default_rng`` /
  ``Generator`` call), ``rng.blessed`` (from
  :mod:`repro.devtools.seeding`), ``rng.param`` (a caller-owned stream);
* **dtype** — ``dtype.small`` (int8/int16/uint8/uint16),
  ``dtype.wide``;
* **alias** — ``shared`` (graph-/collector-shared arrays).

When a parameter marker reaches a sink, the function's summary records
it, so a caller passing a concretely-tagged value is flagged *at its
call site* — that is what lets a raw generator or an int8 buffer be
caught two or three hops away from where it was created.

Every expression is evaluated exactly once per syntactic occurrence, so
sink hits and RPR602 consumption events cannot double-count.  RPR631
and RPR641 are syntactic sweeps over each module and need no tags.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..pipeline.driver import (
    EMPTY,
    Analyzer,
    Tags,
    bind_arguments,
    marker,
    markers,
    substitute,
)
from ..pipeline.project import FunctionInfo, ModuleInfo, _dotted, in_package

__all__ = ["Summary", "DataflowAnalyzer"]

# ----------------------------------------------------------------------
# Vocabulary
# ----------------------------------------------------------------------
RAW_RNG = "rng.raw"
BLESSED_RNG = "rng.blessed"
PARAM_RNG = "rng.param"
SMALL = "dtype.small"
WIDE = "dtype.wide"
SHARED = "shared"
#: Lambdas and nested functions: called with a generator, they count as
#: measurement callables (RPR601 entry points).
LOCAL_CALLABLE = "callable.local"

_RNG_TAGS = frozenset({RAW_RNG, BLESSED_RNG, PARAM_RNG})
_DTYPE_TAGS = frozenset({SMALL, WIDE})

#: The blessed SeedSequence/Generator coercion points.
_SEEDING_MODULE = "repro.devtools.seeding"
_BLESSED_PRODUCERS = frozenset({
    f"{_SEEDING_MODULE}.resolve_rng",
    f"{_SEEDING_MODULE}.rng_from_sequence",
})
_SEEDING_CONSUMERS = _BLESSED_PRODUCERS | frozenset({
    f"{_SEEDING_MODULE}.as_seed_sequence",
    f"{_SEEDING_MODULE}.derive_seed_sequence",
    f"{_SEEDING_MODULE}.spawn_children",
})
_RAW_PRODUCERS = frozenset({
    "numpy.random.default_rng",
    "numpy.random.Generator",
})
_RAW_CONSUMERS = _RAW_PRODUCERS | frozenset({"numpy.random.SeedSequence"})

#: Parameter names that accept a seed/stream at an entry point.
_SEED_PARAM_NAMES = frozenset({
    "seed", "rng", "seeds", "master_seed", "seed_sequence", "seed_sequences",
})

_SMALL_DTYPES = frozenset({"int8", "int16", "uint8", "uint16"})
_WIDE_DTYPES = frozenset({"int32", "int64", "intp", "uint32", "uint64",
                          "float32", "float64"})

_ARRAY_CTORS = frozenset({
    f"numpy.{f}" for f in (
        "zeros", "ones", "empty", "full", "array", "asarray", "arange",
        "zeros_like", "ones_like", "empty_like", "full_like",
    )
})
_MATVEC_FUNCS = frozenset({
    "numpy.dot", "numpy.matmul", "numpy.inner", "numpy.tensordot",
})
_REDUCE_FUNCS = frozenset({"numpy.sum", "numpy.cumsum", "numpy.prod"})
_REDUCE_METHODS = frozenset({"sum", "cumsum", "prod", "cumprod"})
_INPLACE_METHODS = frozenset({
    "fill", "sort", "partition", "put", "setdiag", "eliminate_zeros",
    "sum_duplicates", "resize", "setfield", "itemset",
})
#: Attribute reads and methods that alias (rather than copy) their base
#: array, so its dtype and sharing tags survive.
_VIEW_ATTRS = frozenset({"T", "data", "indices", "indptr", "base", "flat",
                         "real", "imag"})
_VIEW_METHODS = frozenset({"transpose", "reshape", "ravel", "squeeze"})
_FRESH_METHODS = frozenset({
    "copy", "tocsr", "tocsc", "tocoo", "toarray", "todense",
})
#: Attribute names whose value is shared between engine and collectors.
_SHARED_ATTRS = frozenset({"adjacency", "ell_max", "floor"})
_ALIAS_TAGS = _DTYPE_TAGS | frozenset({SHARED})
#: Pool dispatch on a parameter is not a measurement call.
_DISPATCH_METHODS = frozenset({"submit", "map"})

#: RPR631 — the only modules allowed to build adjacency matrices by hand.
#: Everything else must go through the content-keyed structure cache
#: (``repro.core.kernels.structure_for``), which shares the derived CSR
#: and edge array across engines, replicas, and collectors.
_STRUCTURE_HOMES = ("repro.core.kernels", "repro.graphs.io")
_ADJACENCY_BUILDERS = frozenset({"to_sparse_adjacency"})
_SPARSE_CTORS = frozenset({
    "csr_matrix", "csc_matrix", "coo_matrix", "lil_matrix", "dok_matrix",
    "bsr_matrix", "dia_matrix", "csr_array", "csc_array", "coo_array",
})

#: RPR641 — the serving stack's two write paths and their private state.
#: Topology internals may only be touched by ``repro.graphs.mutable``
#: (MutableTopology validates the degree cap and emits the
#: TopologyDelta every downstream patch consumes); the derived-structure
#: forms may only be patched by ``repro.core.kernels``
#: (``update_structure`` keeps them byte-identical to a rebuild).
_TOPOLOGY_HOMES = ("repro.graphs.mutable",)
_TOPOLOGY_INTERNALS = frozenset({"_adj", "_live", "_free"})
_STRUCTURE_PATCH_HOMES = ("repro.core.kernels",)
_STRUCTURE_FORM_ATTRS = frozenset({"_csr", "_edge_array"})
_CONTAINER_MUTATORS = frozenset({
    "add", "append", "clear", "discard", "extend", "fill", "insert",
    "pop", "put", "remove", "resize", "update",
})
_HEAP_FUNCS = frozenset({
    "heapq.heappush", "heapq.heappop", "heapq.heapreplace", "heapq.heapify",
})


def _is_seed_name(name: str) -> bool:
    """Scalar seed-valued names tracked for double consumption (RPR602)."""
    return name == "seed" or name == "master_seed" or name.endswith("_seed")


@dataclass(frozen=True)
class SinkHit:
    """A sink one parameter of a function reaches (transitively)."""

    kind: str  # "rng" | "consume" | "matvec" | "reduce" | "store" | "mutate"
    detail: str
    line: int


@dataclass
class Summary:
    """What a caller needs to know about a callee."""

    ret: Tags = EMPTY
    param_sinks: Dict[int, Tuple[SinkHit, ...]] = field(default_factory=dict)


@dataclass
class _State:
    """Mutable per-path analysis state."""

    env: Dict[str, Tags] = field(default_factory=dict)
    #: RPR602: consumption lines per tracked seed key on this path.
    consumed: Dict[str, Tuple[int, ...]] = field(default_factory=dict)

    def copy(self) -> "_State":
        return _State(env=dict(self.env), consumed=dict(self.consumed))

    def merge(self, other: "_State") -> None:
        for key, tags in other.env.items():
            self.env[key] = self.env.get(key, EMPTY) | tags
        for key, lines in other.consumed.items():
            mine = self.consumed.get(key, ())
            # A run goes through one branch only: keep the worse branch.
            self.consumed[key] = lines if len(lines) > len(mine) else mine


class DataflowAnalyzer(Analyzer[Summary]):
    """Runs the abstract interpretation over a project."""

    def analyze(self) -> None:
        for name in sorted(self.project.modules):
            module = self.project.modules[name]
            self._check_structure_bypass(module)
            self._check_topology_encapsulation(module)
            _FunctionWalker(self, module, None).walk_module(module.tree)
            for fn in module.functions.values():
                self.summary(fn)
            for cls in module.classes.values():
                for meth in cls.methods.values():
                    self.summary(meth)

    def compute_summary(self, fn: FunctionInfo) -> Summary:
        module = self.project.modules[fn.module]
        return _FunctionWalker(self, module, fn).walk_function()

    def empty_summary(self) -> Summary:
        return Summary()

    def _check_structure_bypass(self, module: ModuleInfo) -> None:
        """RPR631: adjacency built by hand instead of via the structure cache.

        A one-pass syntactic sweep (no tag propagation needed): any call
        to ``to_sparse_adjacency`` or a ``scipy.sparse`` constructor
        outside the structure-home modules rebuilds arrays the cache
        already holds.
        """
        if in_package(module.name, _STRUCTURE_HOMES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            last = _dotted(node.func).rsplit(".", 1)[-1]
            if last in _ADJACENCY_BUILDERS:
                self.emit(
                    "RPR631", module, node,
                    f"{last}() rebuilds the CSR the structure cache "
                    "already holds; use "
                    "repro.core.kernels.structure_for(graph).csr",
                    module.name,
                )
            elif last in _SPARSE_CTORS:
                self.emit(
                    "RPR631", module, node,
                    f"ad-hoc scipy.sparse.{last} construction bypasses "
                    "the shared structure cache; derive adjacency via "
                    "repro.core.kernels.structure_for (only "
                    "repro.core.kernels / repro.graphs.io build matrices "
                    "directly)",
                    module.name,
                )

    def _check_topology_encapsulation(self, module: ModuleInfo) -> None:
        """RPR641: topology/structure internals written outside their homes.

        A one-pass syntactic sweep, like RPR631.  The serving stack's
        correctness rests on two funnels: every topology change flows
        through :class:`repro.graphs.mutable.MutableTopology` (which
        enforces the degree cap and emits the delta), and every
        derived-structure patch flows through
        ``repro.core.kernels.update_structure`` (which keeps the patched
        forms byte-identical to a rebuild).  A store into — or mutating
        call on — their private state anywhere else silently
        desynchronizes topology, structure, and engine levels.
        """
        topo_home = in_package(module.name, _TOPOLOGY_HOMES)
        struct_home = in_package(module.name, _STRUCTURE_PATCH_HOMES)

        def internal_in(node: ast.AST, names: FrozenSet[str]) -> Optional[str]:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and sub.attr in names:
                    return sub.attr
            return None

        def flag_topology(node: ast.AST, attr: str, how: str) -> None:
            self.emit(
                "RPR641", module, node,
                f"{how} MutableTopology internal .{attr} outside "
                "repro.graphs.mutable bypasses degree-cap validation and "
                "produces no TopologyDelta; mutate via the "
                "add_node/remove_node/add_edge/remove_edge op surface",
                module.name,
            )

        def flag_structure(node: ast.AST, attr: str, how: str) -> None:
            self.emit(
                "RPR641", module, node,
                f"{how} derived-structure form .{attr} outside "
                "repro.core.kernels desynchronizes the shared "
                "CSR/edge array; patch via "
                "repro.core.kernels.update_structure",
                module.name,
            )

        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if not topo_home:
                        attr = internal_in(target, _TOPOLOGY_INTERNALS)
                        if attr is not None:
                            flag_topology(node, attr, "store into")
                            continue
                    if not struct_home:
                        attr = internal_in(target, _STRUCTURE_FORM_ATTRS)
                        if attr is not None:
                            flag_structure(node, attr, "store into")
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _CONTAINER_MUTATORS
                ):
                    if not topo_home:
                        attr = internal_in(func.value, _TOPOLOGY_INTERNALS)
                        if attr is not None:
                            flag_topology(node, attr, "mutating call on")
                            continue
                    if not struct_home:
                        attr = internal_in(func.value, _STRUCTURE_FORM_ATTRS)
                        if attr is not None:
                            flag_structure(node, attr, "mutating call on")
                elif not topo_home and _dotted(func) in _HEAP_FUNCS:
                    for arg in node.args:
                        attr = internal_in(arg, _TOPOLOGY_INTERNALS)
                        if attr is not None:
                            flag_topology(node, attr, "heap mutation of")
                            break


class _FunctionWalker:
    """Abstract interpretation of one function body (or module top level)."""

    def __init__(
        self,
        analyzer: DataflowAnalyzer,
        module: ModuleInfo,
        fn: Optional[FunctionInfo],
    ):
        self.analyzer = analyzer
        self.project = analyzer.project
        self.module = module
        self.fn = fn
        self.symbol = fn.qualname if fn else module.name
        self._param_hits: Dict[int, List[SinkHit]] = {}
        self.state = _State()
        #: Per-loop sets of names assigned inside that loop (fresh seeds).
        self._loop_assigned: List[Set[str]] = []
        self._in_seeding = module.name.startswith(_SEEDING_MODULE)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def walk_function(self) -> Summary:
        assert self.fn is not None
        for i, name in enumerate(self.fn.params):
            tags = {marker(i)}
            if name == "rng" or name.endswith("_rng") or name == "rngs":
                tags.add(PARAM_RNG)
            self.state.env[name] = frozenset(tags)
        _, ret_tags = self._walk_body(self.fn.node.body)
        return Summary(
            ret=ret_tags,
            param_sinks={i: tuple(hits) for i, hits in self._param_hits.items()},
        )

    def walk_module(self, tree: ast.Module) -> None:
        body = [
            stmt
            for stmt in tree.body
            if not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ]
        self._walk_body(body)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _walk_body(self, stmts: List[ast.stmt]) -> Tuple[bool, Tags]:
        """Returns (path terminated, union of return-value tags)."""
        ret_tags = EMPTY
        for stmt in stmts:
            terminated, ret = self._walk_stmt(stmt)
            ret_tags |= ret
            if terminated:
                return True, ret_tags
        return False, ret_tags

    def _walk_stmt(self, stmt: ast.stmt) -> Tuple[bool, Tags]:
        if isinstance(stmt, ast.Assign):
            tags = self.eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, tags, stmt)
            return False, EMPTY
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self.eval(stmt.value), stmt)
            return False, EMPTY
        if isinstance(stmt, ast.AugAssign):
            value_tags = self.eval(stmt.value)
            target_tags = self.eval(stmt.target)
            # ``shared += x`` / ``shared[i] += x`` mutate in place.
            self._hit_sink("mutate", target_tags, stmt,
                           "augmented assignment writes in place")
            if isinstance(stmt.target, ast.Name):
                key = stmt.target.id
                self.state.env[key] = self.state.env.get(key, EMPTY) | value_tags
            return False, EMPTY
        if isinstance(stmt, ast.Return):
            tags = self.eval(stmt.value) if stmt.value is not None else EMPTY
            return True, tags
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
            return False, EMPTY
        if isinstance(stmt, ast.If):
            self.eval(stmt.test)
            return self._walk_branches([stmt.body, stmt.orelse])
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_tags = self.eval(stmt.iter)
            self._loop_assigned.append(set())
            self._bind_target_names(stmt.target, self._element_tags(iter_tags))
            _, ret = self._walk_body(stmt.body)
            self._loop_assigned.pop()
            _, ret2 = self._walk_body(stmt.orelse)
            return False, ret | ret2
        if isinstance(stmt, ast.While):
            self.eval(stmt.test)
            self._loop_assigned.append(set())
            _, ret = self._walk_body(stmt.body)
            self._loop_assigned.pop()
            _, ret2 = self._walk_body(stmt.orelse)
            return False, ret | ret2
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                tags = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, tags, stmt)
            return self._walk_body(stmt.body)
        if isinstance(stmt, ast.Try):
            base = self.state.copy()
            _, ret = self._walk_body(stmt.body)
            states = [self.state]
            for handler in stmt.handlers:
                self.state = base.copy()
                _, r = self._walk_body(handler.body)
                ret |= r
                states.append(self.state)
            merged = states[0]
            for other in states[1:]:
                merged.merge(other)
            self.state = merged
            _, r = self._walk_body(stmt.orelse)
            ret |= r
            _, r = self._walk_body(stmt.finalbody)
            ret |= r
            return False, ret
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.state.env[stmt.name] = frozenset({LOCAL_CALLABLE})
            self._note_assigned(stmt.name)
            return False, EMPTY
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc)
            return True, EMPTY
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return True, EMPTY
        if isinstance(stmt, ast.Assert):
            self.eval(stmt.test)
            return False, EMPTY
        # ClassDef/Import/Global/Nonlocal/Pass/Delete/Match/…: nothing flows.
        return False, EMPTY

    def _walk_branches(self, bodies: List[List[ast.stmt]]) -> Tuple[bool, Tags]:
        base = self.state
        outcomes = []
        ret_tags = EMPTY
        for body in bodies:
            self.state = base.copy()
            terminated, ret = self._walk_body(body)
            ret_tags |= ret
            outcomes.append((terminated, self.state))
        alive = [state for terminated, state in outcomes if not terminated]
        if not alive:
            self.state = outcomes[0][1]
            return True, ret_tags
        merged = alive[0]
        for state in alive[1:]:
            merged.merge(state)
        self.state = merged
        return False, ret_tags

    # ------------------------------------------------------------------
    # Assignment / environment helpers
    # ------------------------------------------------------------------
    def _assign(self, target: ast.AST, tags: Tags, stmt: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.state.env[target.id] = tags
            self._note_assigned(target.id)
            self.state.consumed.pop(target.id, None)
        elif isinstance(target, ast.Attribute):
            key = _dotted(target)
            if key:
                self.state.env[key] = tags
                self.state.consumed.pop(key, None)
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and RAW_RNG in tags
                and not self._in_seeding
            ):
                self._emit_rule(
                    "RPR601", stmt,
                    "raw np.random generator stored on engine state; derive "
                    "it via repro.devtools.seeding (rng_from_sequence / "
                    "resolve_rng)",
                )
        elif isinstance(target, ast.Subscript):
            base_tags = self.eval(target.value)
            self.eval(target.slice)
            self._hit_sink("mutate", base_tags, stmt,
                           "subscript store writes in place")
            self._hit_sink("store", base_tags, stmt,
                           "subscript store into the buffer")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, self._element_tags(tags), stmt)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, tags, stmt)

    def _bind_target_names(self, target: ast.AST, tags: Tags) -> None:
        if isinstance(target, ast.Name):
            self.state.env[target.id] = tags
            self._note_assigned(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target_names(elt, tags)
        elif isinstance(target, ast.Starred):
            self._bind_target_names(target.value, tags)

    def _note_assigned(self, name: str) -> None:
        if self._loop_assigned:
            self._loop_assigned[-1].add(name)

    @staticmethod
    def _element_tags(tags: Tags) -> Tags:
        """Tags surviving container element extraction (markers survive)."""
        return frozenset(
            t for t in tags
            if t in _RNG_TAGS or t in _ALIAS_TAGS or t.startswith("p:")
        )

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def eval(self, node: Optional[ast.AST]) -> Tags:
        if node is None:
            return EMPTY
        if isinstance(node, ast.Name):
            return self.state.env.get(node.id, EMPTY)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value)
            self.eval(node.slice)
            return self._element_tags(base)
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left)
            right = self.eval(node.right)
            if isinstance(node.op, ast.MatMult):
                self._hit_sink("matvec", left, node, "matrix product (@)")
                self._hit_sink("matvec", right, node, "matrix product (@)")
                return (left | right) & _DTYPE_TAGS
            both = left | right
            return frozenset(
                t for t in both if t in _DTYPE_TAGS or t.startswith("p:")
            )
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand) & _DTYPE_TAGS
        if isinstance(node, ast.BoolOp):
            tags = EMPTY
            for value in node.values:
                tags |= self.eval(value)
            return tags
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return self.eval(node.body) | self.eval(node.orelse)
        if isinstance(node, ast.Compare):
            self.eval(node.left)
            for comp in node.comparators:
                self.eval(comp)
            return EMPTY
        if isinstance(node, ast.Lambda):
            return frozenset({LOCAL_CALLABLE})
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            tags = EMPTY
            for elt in node.elts:
                tags |= self.eval(elt)
            return self._element_tags(tags)
        if isinstance(node, ast.Dict):
            tags = EMPTY
            for key in node.keys:
                if key is not None:
                    self.eval(key)
            for value in node.values:
                tags |= self.eval(value)
            return self._element_tags(tags)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._eval_comp(node.generators, node.elt)
        if isinstance(node, ast.DictComp):
            return self._eval_comp(node.generators, node.value, node.key)
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                self.eval(value)
            return EMPTY
        if isinstance(node, ast.FormattedValue):
            self.eval(node.value)
            return EMPTY
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self.eval(node.value)
        if isinstance(node, ast.Yield):
            return self.eval(node.value) if node.value else EMPTY
        if isinstance(node, ast.NamedExpr):
            tags = self.eval(node.value)
            self._assign(node.target, tags, node)
            return tags
        return EMPTY

    def _eval_comp(
        self,
        generators: List[ast.comprehension],
        result_expr: ast.expr,
        key_expr: Optional[ast.expr] = None,
    ) -> Tags:
        saved: Dict[str, Optional[Tags]] = {}
        for gen in generators:
            iter_tags = self.eval(gen.iter)
            self._bind_comp_target(gen.target, self._element_tags(iter_tags), saved)
            for cond in gen.ifs:
                self.eval(cond)
        tags = self.eval(result_expr)
        self.eval(key_expr)
        for name, old in saved.items():
            if old is None:
                self.state.env.pop(name, None)
            else:
                self.state.env[name] = old
        return tags

    def _bind_comp_target(
        self, target: ast.AST, tags: Tags, saved: Dict[str, Optional[Tags]]
    ) -> None:
        if isinstance(target, ast.Name):
            if target.id not in saved:
                saved[target.id] = self.state.env.get(target.id)
            self.state.env[target.id] = tags
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_comp_target(elt, tags, saved)

    def _eval_attribute(self, node: ast.Attribute) -> Tags:
        key = _dotted(node)
        if key and key in self.state.env:
            return self.state.env[key]
        base = self.eval(node.value)
        tags = set(t for t in base if t.startswith("p:"))
        if node.attr in _SHARED_ATTRS:
            tags.add(SHARED)
        if node.attr in _VIEW_ATTRS:
            tags.update(base & _ALIAS_TAGS)
        # Seed params threaded as attributes (args.seed) keep markers.
        return frozenset(tags)

    # ------------------------------------------------------------------
    # Calls — where every sink lives
    # ------------------------------------------------------------------
    def _eval_call(self, node: ast.Call) -> Tags:
        func = node.func
        name = _dotted(func)
        qualified = self.project.resolve(self.module, name) if name else ""
        if qualified:
            known = self._dispatch_known(node, qualified)
            if known is not None:
                return known
        callee = self.analyzer.resolve_call(self.module, node, self.fn)
        if callee is not None:
            return self._apply_function(node, callee)
        if isinstance(func, ast.Attribute):
            return self._eval_method_call(node, func)
        # Callable parameters / local callables: measure(config, rng) etc.
        if isinstance(func, ast.Name):
            callee_tags = self.state.env.get(func.id, EMPTY)
            if markers(callee_tags) or LOCAL_CALLABLE in callee_tags:
                self._handed_to_callable(node, f"callable {func.id!r}")
                return EMPTY
        return self._generic_call(node)

    def _handed_to_callable(self, node: ast.Call, what: str) -> None:
        """Arguments of a caller-supplied callable are RPR601 entry points."""
        for arg in node.args:
            arg_tags = self.eval(arg)
            if arg_tags & _RNG_TAGS or markers(arg_tags):
                self._hit_sink("rng", arg_tags, arg, f"generator handed to {what}")
        for kw in node.keywords:
            self.eval(kw.value)

    def _eval_method_call(self, node: ast.Call, func: ast.Attribute) -> Tags:
        attr = func.attr
        base_tags = self.eval(func.value)
        base_name = _dotted(func.value) or "array"
        if attr == "dot":
            self._hit_sink("matvec", base_tags, node, f"{base_name}.dot")
            for arg in node.args:
                self._hit_sink("matvec", self.eval(arg), arg, f"{base_name}.dot")
            for kw in node.keywords:
                self.eval(kw.value)
            return base_tags & _DTYPE_TAGS
        if attr in _REDUCE_METHODS:
            wide_acc = self._has_wide_dtype_kw(node)
            if not wide_acc:
                self._hit_sink("reduce", base_tags, node,
                               f"{base_name}.{attr}() accumulation")
            self._eval_args(node)
            return EMPTY if wide_acc else base_tags & _DTYPE_TAGS
        if attr in _INPLACE_METHODS:
            self._hit_sink("mutate", base_tags, node, f".{attr}() mutates in place")
            self._eval_args(node)
            return EMPTY
        if attr == "astype":
            self._eval_args(node)
            return self._dtype_of(node, positional=True)
        if attr == "view":
            self._eval_args(node)
            return self._dtype_of(node, positional=True) | (base_tags & {SHARED})
        if attr in _FRESH_METHODS:
            self._eval_args(node)
            return base_tags & _DTYPE_TAGS
        if attr in _VIEW_METHODS:
            self._eval_args(node)
            return base_tags & _ALIAS_TAGS
        # Method call on a callable parameter: measure.measure_batch(...).
        if markers(base_tags):
            if attr in _DISPATCH_METHODS:
                self._eval_args(node)
            else:
                self._handed_to_callable(node, f"{base_name}.{attr}")
            return EMPTY
        return self._generic_call(node)

    def _dispatch_known(self, node: ast.Call, qualified: str) -> Optional[Tags]:
        """Seeding and numpy calls; ``None`` means “not one of these”."""
        if qualified in _SEEDING_CONSUMERS:
            self._consume_and_eval(node)
            return (
                frozenset({BLESSED_RNG})
                if qualified in _BLESSED_PRODUCERS
                else EMPTY
            )
        if qualified in _RAW_CONSUMERS:
            self._consume_and_eval(node)
            if qualified in _RAW_PRODUCERS:
                return frozenset(
                    {BLESSED_RNG} if self._in_seeding else {RAW_RNG}
                )
            return EMPTY
        if qualified in _ARRAY_CTORS:
            self._eval_args(node)
            return self._dtype_of(node, positional=False)
        if qualified in _MATVEC_FUNCS:
            for arg in node.args:
                self._hit_sink("matvec", self.eval(arg), arg, qualified)
            for kw in node.keywords:
                self.eval(kw.value)
            return EMPTY
        if qualified in _REDUCE_FUNCS:
            wide_acc = self._has_wide_dtype_kw(node)
            for arg in node.args:
                tags = self.eval(arg)
                if not wide_acc:
                    self._hit_sink("reduce", tags, arg, qualified)
            for kw in node.keywords:
                self.eval(kw.value)
            return EMPTY
        return None

    # ------------------------------------------------------------------
    def _apply_function(self, node: ast.Call, fn: FunctionInfo) -> Tags:
        """Apply a callee summary at this call site."""
        summary = self.analyzer.summary(fn)
        in_seeding_callee = fn.module.startswith(_SEEDING_MODULE)
        arg_tags: Dict[int, Tags] = {}
        consumed_this_call: Set[str] = set()
        for binding in bind_arguments(node, fn.params):
            tags = self.eval(binding.expr)
            if binding.starred or (binding.index is None and binding.name is None):
                continue
            hits: Tuple[SinkHit, ...] = ()
            if binding.index is not None:
                arg_tags[binding.index] = tags
                hits = summary.param_sinks.get(binding.index, ())
            consume = any(h.kind == "consume" for h in hits)
            rng_entry = any(h.kind == "rng" for h in hits)
            if binding.name in _SEED_PARAM_NAMES and not in_seeding_callee:
                consume = rng_entry = True
            seen_kinds: Set[str] = set()
            for hit in hits:
                if hit.kind in ("rng", "consume") or hit.kind in seen_kinds:
                    continue
                seen_kinds.add(hit.kind)
                self._forward_hit(hit, tags, binding.expr, fn)
            if rng_entry:
                where = binding.name if binding.name is not None else binding.index
                self._hit_sink("rng", tags, binding.expr, f"{fn.qualname}({where})")
            if consume:
                self._count_consumption(binding.expr, tags, consumed_this_call)
        return substitute(summary.ret, arg_tags)

    def _forward_hit(
        self, hit: SinkHit, tags: Tags, arg: ast.AST, fn: FunctionInfo
    ) -> None:
        """A callee's parameter sink, seen with this call's concrete tags."""
        via = f"via {fn.qualname}:{hit.line} ({hit.detail})"
        if hit.kind in ("matvec", "reduce") and SMALL in tags:
            self._emit_rule(
                "RPR611", arg,
                f"int8/int16 value flows into an accumulation {via}; cast "
                "to int32+ first",
            )
        elif hit.kind == "store" and SMALL in tags:
            self._emit_rule(
                "RPR612", arg,
                f"preallocated small-dtype buffer is written through {via}; "
                "values silently downcast",
            )
        elif hit.kind == "mutate" and SHARED in tags:
            self._emit_rule(
                "RPR621", arg,
                f"shared graph/collector array is mutated {via}; copy "
                "before writing",
            )
        for index in markers(tags):
            self._param_hits.setdefault(index, []).append(
                SinkHit(kind=hit.kind, detail=f"{fn.qualname}:{hit.line}",
                        line=getattr(arg, "lineno", hit.line))
            )

    # ------------------------------------------------------------------
    # Sinks
    # ------------------------------------------------------------------
    def _hit_sink(self, kind: str, tags: Tags, node: ast.AST, detail: str) -> None:
        if kind == "rng" and RAW_RNG in tags:
            self._emit_rule(
                "RPR601", node,
                f"raw np.random generator reaches a simulation entry point "
                f"({detail}); derive it via repro.devtools.seeding "
                "(resolve_rng / rng_from_sequence)",
            )
        elif kind in ("matvec", "reduce") and SMALL in tags:
            self._emit_rule(
                "RPR611", node,
                f"int8/int16 value reaches {detail}; counts wrap at degree "
                ">= 128 — cast to int32+ or pin a wide accumulator dtype",
            )
        elif kind == "store" and SMALL in tags:
            self._emit_rule(
                "RPR612", node,
                f"store into a preallocated int8/int16 buffer ({detail}) "
                "silently downcasts; allocate int32+ instead",
            )
        elif kind == "mutate" and SHARED in tags:
            self._emit_rule(
                "RPR621", node,
                f"in-place mutation of a graph/collector-shared array "
                f"({detail}); engines and collectors alias these — copy "
                "before writing",
            )
        for index in markers(tags):
            self._param_hits.setdefault(index, []).append(
                SinkHit(kind=kind, detail=detail, line=getattr(node, "lineno", 1))
            )

    # ------------------------------------------------------------------
    # RPR602 — seed consumption accounting
    # ------------------------------------------------------------------
    def _count_consumption(
        self, arg: ast.AST, tags: Tags, consumed_this_call: Set[str]
    ) -> None:
        for index in markers(tags):
            self._param_hits.setdefault(index, []).append(
                SinkHit(kind="consume", detail="seed coercion",
                        line=getattr(arg, "lineno", 1))
            )
        key = _dotted(arg)
        if not key or not _is_seed_name(key.rsplit(".", 1)[-1]):
            return
        if tags & _RNG_TAGS:
            return  # a Generator is a stream; passing it onward is fine
        if key in consumed_this_call:
            return
        consumed_this_call.add(key)
        line = getattr(arg, "lineno", 1)
        in_loop = bool(self._loop_assigned) and not any(
            key.split(".")[0] in assigned for assigned in self._loop_assigned
        )
        prior = self.state.consumed.get(key, ())
        self.state.consumed[key] = prior + (line,)
        if prior:
            self._emit_rule(
                "RPR602", arg,
                f"seed {key!r} already consumed on this path (line "
                f"{prior[0]}); a second coercion replays the identical "
                "stream — spawn SeedSequence children instead",
            )
        elif in_loop:
            self._emit_rule(
                "RPR602", arg,
                f"seed {key!r} is consumed inside a loop, replaying the "
                "identical stream every iteration — spawn per-iteration "
                "SeedSequence children instead",
            )

    def _consume_and_eval(self, node: ast.Call) -> None:
        seen: Set[str] = set()
        for arg in node.args:
            self._count_consumption(arg, self.eval(arg), seen)
        for kw in node.keywords:
            self._count_consumption(kw.value, self.eval(kw.value), seen)

    # ------------------------------------------------------------------
    def _generic_call(self, node: ast.Call) -> Tags:
        """Unrecognized callee: evaluate everything once, name-based sinks."""
        for arg in node.args:
            self.eval(arg)
        seen: Set[str] = set()
        for kw in node.keywords:
            tags = self.eval(kw.value)
            if kw.arg == "out":
                self._hit_sink("mutate", tags, kw.value, "out= target")
                self._hit_sink("store", tags, kw.value, "out= target")
            elif kw.arg in _SEED_PARAM_NAMES:
                self._hit_sink("rng", tags, kw.value, f"{kw.arg}= argument")
                self._count_consumption(kw.value, tags, seen)
        return EMPTY

    def _eval_args(self, node: ast.Call) -> None:
        for arg in node.args:
            self.eval(arg)
        for kw in node.keywords:
            self.eval(kw.value)

    def _has_wide_dtype_kw(self, node: ast.Call) -> bool:
        return any(
            kw.arg == "dtype" and self._dtype_name(kw.value) in _WIDE_DTYPES
            for kw in node.keywords
        )

    def _dtype_of(self, node: ast.Call, positional: bool) -> Tags:
        """The dtype tag a ``dtype=`` (or, for casts, positional) arg names."""
        candidates: List[ast.expr] = list(node.args) if positional else []
        candidates += [kw.value for kw in node.keywords if kw.arg == "dtype"]
        for arg in candidates:
            name = self._dtype_name(arg)
            if name in _SMALL_DTYPES:
                return frozenset({SMALL})
            if name in _WIDE_DTYPES:
                return frozenset({WIDE})
        return EMPTY

    def _dtype_name(self, node: ast.AST) -> str:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        name = _dotted(node)
        if name:
            qualified = self.project.resolve(self.module, name)
            if qualified.startswith("numpy."):
                return qualified[len("numpy."):]
            return name.rsplit(".", 1)[-1]
        return ""

    # ------------------------------------------------------------------
    def _emit_rule(self, rule: str, node: ast.AST, message: str) -> None:
        self.analyzer.emit(rule, self.module, node, message, self.symbol)
