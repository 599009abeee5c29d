"""Determinism rules (RPR2xx).

A simulated round may depend only on the configuration and the seeded
draws.  Wall-clock reads and hash-order iteration are the two stdlib
trapdoors through which hidden nondeterminism enters a "seeded" run.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..pipeline.project import _dotted
from . import FileContext, Rule, Violation

__all__ = ["WallClockRule", "UnorderedSetIterationRule"]

#: Dotted call targets that read wall-clock time or OS entropy.
_FORBIDDEN_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbelow",
    }
)


class WallClockRule(Rule):
    """RPR201: no wall-clock/OS-entropy reads in simulation code."""

    rule_id = "RPR201"
    title = "wall clock or OS entropy in simulation path"
    rationale = (
        "time.time()/datetime.now()/os.urandom() make behavior depend on "
        "when (or where) the run happens, not on the seed.  Timing "
        "belongs in benchmarks/, which sit outside src/repro; simulation "
        "code must be a pure function of (graph, policy, seed)."
    )

    node_types = (ast.Call,)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        # The profiling module is the blessed wrapper around the clock
        # APIs (see RPR501); its timer reads are the whole point.
        from .profiling import TIMER_CALLS, is_timer_module

        assert isinstance(node, ast.Call)
        name = _dotted(node.func)
        if name not in _FORBIDDEN_CALLS:
            return
        if is_timer_module(ctx.module) and name in TIMER_CALLS:
            return
        yield ctx.violation(
            self,
            node,
            f"{name}() is wall-clock/OS-entropy dependent; "
            "simulation results must be functions of the seed",
        )


class UnorderedSetIterationRule(Rule):
    """RPR202: no direct iteration over freshly built sets."""

    rule_id = "RPR202"
    title = "hash-order iteration over a set"
    rationale = (
        "Iterating a set visits elements in hash order, which is not a "
        "stable contract (PYTHONHASHSEED randomizes str hashing, and int "
        "set order still depends on insertion history).  Node/edge "
        "iteration must go through a sorted() or an already-ordered "
        "structure so that seeded runs visit vertices identically "
        "everywhere."
    )

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False

    node_types = (ast.For, ast.AsyncFor, ast.comprehension)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        assert isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))
        if self._is_set_expr(node.iter):
            yield ctx.violation(
                self,
                node if not isinstance(node, ast.comprehension) else node.iter,
                "iteration over a set literal/set() call visits "
                "elements in hash order; wrap it in sorted()",
            )
