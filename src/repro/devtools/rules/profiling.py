"""Profiling discipline rules (RPR5xx).

Timing is observability, and observability must be centralized: ad-hoc
``time.perf_counter()`` pairs scattered through library code can't be
merged across workers, can't be disabled, and invite "temporary" prints.
All timing in ``src/repro`` goes through
:class:`repro.obs.profiling.PhaseProfiler`; that module is the single
place allowed to touch the clock APIs (and is itself exempted here and
in RPR201).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..pipeline.project import _dotted
from . import FileContext, Rule, Violation

__all__ = ["AdHocTimerRule", "TIMER_CALLS", "is_timer_module"]

#: Dotted call targets that read process timers/clocks.  The wall-clock
#: subset overlaps RPR201 deliberately — RPR201 says "this breaks seeded
#: determinism", this rule says "route timing through the profiler" —
#: and also covers the CPU timers RPR201 has no reason to ban.
TIMER_CALLS = frozenset(
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

#: The one module allowed to read clocks directly (see its docstring).
_TIMER_HOME = "repro.obs.profiling"


def is_timer_module(module: str) -> bool:
    """True for the module that legitimately wraps the clock APIs."""
    return module == _TIMER_HOME


class AdHocTimerRule(Rule):
    """RPR501: no ad-hoc timer calls outside ``repro.obs.profiling``."""

    rule_id = "RPR501"
    title = "ad-hoc timer call outside the profiling module"
    rationale = (
        "Direct time.perf_counter()/time.process_time() calls create "
        "unmergeable, undisableable one-off measurements.  Library code "
        "must time phases through repro.obs.PhaseProfiler (whose clocks "
        "are also injectable in tests); only repro.obs.profiling itself "
        "may touch the time module.  Benchmarks live outside src/repro "
        "and are not linted."
    )

    node_types = (ast.Call,)

    def applies_to(self, ctx: FileContext) -> bool:
        return not is_timer_module(ctx.module)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        assert isinstance(node, ast.Call)
        name = _dotted(node.func)
        if name in TIMER_CALLS:
            yield ctx.violation(
                self,
                node,
                f"{name}() is an ad-hoc timer; use a "
                "repro.obs.PhaseProfiler phase instead",
            )
