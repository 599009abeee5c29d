"""RNG-discipline rules (RPR1xx).

The reproduction's headline claims are "same seed → same trajectory"
statements; any path that draws randomness outside the documented seed
tree invalidates them silently.  These rules pin the two load-bearing
conventions: all randomness flows through ``numpy.random.Generator``
objects, and generators are only ever created from an explicit seed
value that arrived through a public ``seed`` parameter.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..pipeline.project import _dotted
from . import FileContext, Rule, Violation

__all__ = [
    "GlobalNumpyRngRule",
    "UnseededDefaultRngRule",
    "StdlibRandomRule",
    "SeedlessSimulationApiRule",
    "ChannelRngDisciplineRule",
]

#: numpy.random attributes that are part of the Generator-era API and
#: therefore fine to reference.  Everything else on ``np.random`` is the
#: legacy global-state API (``np.random.seed``, ``np.random.random``,
#: ``np.random.shuffle``, ...), which shares one hidden global stream.
_GENERATOR_ERA_ATTRS = frozenset(
    {
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "default_rng",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Parameter names that satisfy the "accepts a seed" requirement.
_SEED_PARAM_NAMES = frozenset(
    {"seed", "rng", "seeds", "master_seed", "seed_sequences", "seed_sequence"}
)


#: Modules that must *consume* engine-bound streams, never build them.
_STREAM_CONSUMER_MODULES = frozenset(
    {"repro.beeping.channels", "repro.beeping.schedulers"}
)

#: Call names that construct generators or grow the seed tree.
_STREAM_BUILDER_CALLS = frozenset(
    {
        "resolve_rng",
        "default_rng",
        "rng_from_sequence",
        "derive_seed_sequence",
        "as_seed_sequence",
        "spawn_children",
        "spawn",
    }
)


class ChannelRngDisciplineRule(Rule):
    """RPR105: stress models never construct RNGs or seed trees.

    The byte-identity contract hangs on the *engine* owning the seed
    tree: one derivation draw at construction, ``root.spawn(2)``, done
    (``docs/robustness.md``).  A channel or scheduler that builds its
    own generator — ``resolve_rng``, ``default_rng``, a fresh
    ``SeedSequence`` spawn — forks the discipline invisibly: solo and
    batched replicas stop agreeing, and the perfect/synchronous default
    path stops being byte-identical.  Models must only consume the
    bound stream handed into ``apply`` / ``active_mask``.
    """

    rule_id = "RPR105"
    title = "stress model builds its own RNG"
    rationale = (
        "Channel and scheduler models must consume the engine-derived "
        "stream passed into apply()/active_mask(); constructing a "
        "generator or spawning seed sequences inside repro.beeping."
        "channels / repro.beeping.schedulers forks the seed tree and "
        "silently breaks the solo/batched bit-identity contract."
    )

    node_types = (ast.Call,)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module in _STREAM_CONSUMER_MODULES

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        assert isinstance(node, ast.Call)
        leaf = _dotted(node.func).rsplit(".", 1)[-1]
        if leaf in _STREAM_BUILDER_CALLS:
            yield ctx.violation(
                self,
                node,
                f"stress model constructs randomness via {leaf}(); "
                "consume the engine-bound stream argument instead",
            )


class GlobalNumpyRngRule(Rule):
    """RPR101: no legacy ``np.random.<fn>`` global-state API."""

    rule_id = "RPR101"
    title = "legacy numpy global RNG"
    rationale = (
        "np.random.<fn> module-level calls draw from one hidden global "
        "stream: results depend on import order and on every other "
        "caller, so no run is reproducible from its seed argument alone. "
        "Use an explicit numpy.random.Generator (repro.devtools.seeding."
        "resolve_rng)."
    )

    node_types = (ast.Attribute,)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        name = _dotted(node)
        for prefix in ("np.random.", "numpy.random."):
            if name.startswith(prefix):
                attr = name[len(prefix):]
                if "." not in attr and attr not in _GENERATOR_ERA_ATTRS:
                    yield ctx.violation(
                        self,
                        node,
                        f"legacy global-RNG API {name!r}; use an "
                        "explicit Generator via resolve_rng()",
                    )
                break


class UnseededDefaultRngRule(Rule):
    """RPR102: ``default_rng()`` / ``default_rng(None)`` is forbidden."""

    rule_id = "RPR102"
    title = "unseeded default_rng"
    rationale = (
        "An argless (or literal-None) default_rng() pulls OS entropy, so "
        "the run cannot be replayed.  Unseeded generators must only come "
        "from an explicit None travelling through a public seed "
        "parameter into repro.devtools.seeding.resolve_rng."
    )

    node_types = (ast.Call,)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        assert isinstance(node, ast.Call)
        name = _dotted(node.func)
        if name != "default_rng" and not name.endswith(".default_rng"):
            return
        unseeded = not node.args and not node.keywords
        if node.args and isinstance(node.args[0], ast.Constant):
            unseeded = node.args[0].value is None
        for kw in node.keywords:
            if kw.arg == "seed" and isinstance(kw.value, ast.Constant):
                unseeded = kw.value.value is None
        if unseeded:
            yield ctx.violation(
                self,
                node,
                "unseeded default_rng(); pass the caller's seed "
                "through resolve_rng() instead",
            )


class StdlibRandomRule(Rule):
    """RPR103: the stdlib ``random`` module is banned in ``repro``."""

    rule_id = "RPR103"
    title = "stdlib random in repro"
    rationale = (
        "random.* draws from a process-global Mersenne Twister that is "
        "invisible to the numpy seed tree; a single call desynchronizes "
        "nothing *visibly* but forks the randomness discipline.  All "
        "randomness must flow through numpy Generators."
    )

    node_types = (ast.Import, ast.ImportFrom)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield ctx.violation(
                        self,
                        node,
                        "stdlib 'random' imported; use numpy "
                        "Generators via resolve_rng()",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random" and node.level == 0:
                yield ctx.violation(
                    self,
                    node,
                    "import from stdlib 'random'; use numpy "
                    "Generators via resolve_rng()",
                )


class SeedlessSimulationApiRule(Rule):
    """RPR104: every public ``simulate_*`` API must accept a seed."""

    rule_id = "RPR104"
    title = "seedless simulation API"
    rationale = (
        "A public simulation entry point without a SeedLike/Generator "
        "parameter can only be nondeterministic or secretly global; "
        "every simulate_* function must thread an explicit seed."
    )

    node_types = (ast.Module,)

    def visit(self, tree: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        assert isinstance(tree, ast.Module)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not node.name.startswith("simulate_") or node.name.startswith("_"):
                continue
            args = node.args
            names = {
                a.arg
                for a in (
                    list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
                )
            }
            if not names & _SEED_PARAM_NAMES:
                yield ctx.violation(
                    self,
                    node,
                    f"public simulation API {node.name}() accepts no "
                    "seed-like parameter (expected one of "
                    f"{sorted(_SEED_PARAM_NAMES)})",
                )
