"""Concurrency & process-lifecycle analysis (the RPR7xx rules).

The family of ``repro check`` that reasons about what crosses the
*process* boundary — pool shutdown discipline, fork-captured module
state, and service-state ownership —
running on the shared interprocedural driver
(:mod:`repro.devtools.pipeline.driver`); :mod:`.engine` holds its
lifecycle lattice and sinks.

Entry points mirror the other families (:func:`analyze_paths`,
:func:`analyze_sources`, :func:`analyze_project`,
:func:`concurrency_catalogue`); findings share the baseline
(``--baseline``), SARIF (``--sarif``) and pragma plumbing.
"""

from __future__ import annotations

from typing import List, Tuple

from ..pipeline import Family, RuleInfo
from .engine import ConcurrencyAnalyzer

__all__ = [
    "CONCURRENCY_RULES",
    "FAMILY",
    "ConcurrencyAnalyzer",
    "analyze_paths",
    "analyze_project",
    "analyze_sources",
    "concurrency_catalogue",
]

CONCURRENCY_RULES: Tuple[RuleInfo, ...] = (
    RuleInfo(
        rule_id="RPR703",
        title="worker callable captures fork-inherited mutable module state",
        rationale=(
            "A callable handed to a pool (submit/map/initializer) that "
            "reads a module-level RNG — or directly mutates a "
            "module-level cache — runs against state cloned at "
            "fork/spawn time: every worker inherits the *same* "
            "generator state (correlated streams), and cache writes "
            "never reach the parent.  Pass RNGs explicitly as task "
            "arguments (the sweep workers' rng_from_sequence(child) "
            "pattern)."
        ),
    ),
    RuleInfo(
        rule_id="RPR704",
        title="process-pool lifecycle discipline violated",
        rationale=(
            "A ProcessPoolExecutor must be context-managed or shut down "
            "on every path (leaked pools strand worker processes); "
            "submitting to a pool after close()/shutdown() raises "
            "only at runtime, deep inside a sweep; and collecting "
            "as_completed() results into a positional list ties sample "
            "order to OS scheduling, breaking the documented "
            "config-order seed tree.  Use `with`, submit before close, "
            "and merge unordered completions by index."
        ),
    ),
    RuleInfo(
        rule_id="RPR705",
        title="service topology or state mutated outside the op loop",
        rationale=(
            "MISService owns its MutableTopology and private engine "
            "state; every change must flow through the service op "
            "surface (apply/run with ADD_NODE/DEL_NODE/ADD_EDGE/"
            "DEL_EDGE ops), which invalidates the structure cache, "
            "patches derived forms, and re-stabilizes.  Calling "
            "topology mutators on service.topology — or writing the "
            "service's private attributes — from outside repro.serve "
            "silently desynchronizes topology, cached structure, and "
            "engine levels."
        ),
    ),
)

FAMILY = Family("concurrency", CONCURRENCY_RULES, ConcurrencyAnalyzer)
analyze_project = FAMILY.analyze_project
analyze_paths = FAMILY.analyze_paths
analyze_sources = FAMILY.analyze_sources


def concurrency_catalogue() -> List[Tuple[str, str, str]]:
    """``(rule_id, title, rationale)`` rows — used by docs and tests."""
    return FAMILY.catalogue()
