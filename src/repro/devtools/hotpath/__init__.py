"""Hot-path hygiene analysis (RPR8xx) for the repro codebase.

The family of ``repro check`` that checks **allocation frequency**: it
infers the per-round hot region from the call graph and flags array
allocations, dtype churn, Python-level array loops, per-call scratch
rebinding, and logging/profiling bypasses inside it (see :mod:`.engine`
for the inference; it runs on the shared interprocedural driver
:mod:`repro.devtools.pipeline.driver`).  A runtime twin (:mod:`.audit`)
drives every engine combo to steady state and measures actual
bytes/round with ``tracemalloc``, so the static contract is backstopped
by a measured one.

Entry points mirror the other families (:func:`analyze_paths`,
:func:`analyze_sources`, :func:`analyze_project`,
:func:`hotpath_catalogue`).  All honour the shared
``# repro: allow[RULE]`` / ``# repro: allow-file[RULE]`` pragmas; the
hot-region inference additionally honours ``# repro: cold`` on a
``def`` line.
"""

from __future__ import annotations

from typing import List, Tuple

from ..pipeline import Family, RuleInfo
from .engine import HotpathAnalyzer

__all__ = [
    "HOTPATH_RULES",
    "FAMILY",
    "HotpathAnalyzer",
    "analyze_paths",
    "analyze_project",
    "analyze_sources",
    "hotpath_catalogue",
]

HOTPATH_RULES: Tuple[RuleInfo, ...] = (
    RuleInfo(
        rule_id="RPR801",
        title="per-round array allocation discarded inside the hot region",
        rationale=(
            "A np.zeros/empty/full/copy/.toarray()/rng-draw call whose "
            "result lives and dies inside a function reachable from "
            "the per-round drive loop allocates a fresh array every round "
            "— the allocator and page-fault cost recurs O(rounds) times "
            "where a buffer bound once at __init__/rebind (sliced per "
            "call, filled with out=/copyto) would be free.  Calls whose "
            "result escapes (returned into a caller that stores it, "
            "bound to an attribute, placed in a container) transfer the "
            "decision to the owner and are not flagged, as are the "
            "concatenation/index-materialization families whose output "
            "shape is data-dependent and cannot be preallocated; helpers "
            "that merely *return* a fresh array are charged at the hot "
            "call site that discards it."
        ),
    ),
    RuleInfo(
        rule_id="RPR802",
        title="dtype-churning .astype temporary at round frequency",
        rationale=(
            "An .astype(...) inside the hot region materializes a "
            "converted copy of the whole operand every round — the "
            "int8→int32 cast class: the conversion itself is cheap but "
            "the fresh array behind it is not.  Hot code keeps one "
            "scratch array per target dtype and converts with "
            "np.copyto(scratch, src) (a cast-on-store into reused "
            "memory, value-identical to .astype for these integer→float "
            "and integer-widening conversions)."
        ),
    ),
    RuleInfo(
        rule_id="RPR803",
        title="Python-level loop over a freshly materialized array",
        rationale=(
            "A for-loop iterating a local ndarray that the same hot "
            "function just allocated pays the per-element interpreter "
            "dispatch the vectorized engines exist to avoid — O(n) "
            "Python bytecode per round instead of one ufunc call.  "
            "Deliberate per-replica bookkeeping loops (retirement "
            "scans over an index array passed in by the caller) are "
            "not flagged; the rule fires only when the iterated array "
            "was materialized locally, i.e. the loop could have stayed "
            "an array expression."
        ),
    ),
    RuleInfo(
        rule_id="RPR804",
        title="scratch buffer rebound to an attribute per hot call",
        rationale=(
            "self.attr = np.zeros(...)/np.where(...) inside a per-round "
            "method reallocates the engine's own scratch every call — "
            "the buffer belongs in __init__/rebind, with the hot method "
            "writing into it in place (out=, [:] assignment, copyto).  "
            "Rebinding per call also silently breaks aliases other "
            "components took at bind time (collectors adopting engine "
            "arrays).  Guarded lazy initialization into a container "
            "slot (self._cache[key] = ...) is setup, not churn, and is "
            "not flagged."
        ),
    ),
    RuleInfo(
        rule_id="RPR805",
        title="hot-region call into logging/print/profiling bypasses repro.obs",
        rationale=(
            "print(), logging.*, logger.*/log.* calls and @profile-style "
            "decorators inside the hot region do I/O and formatting at "
            "round frequency and — unlike the repro.obs collectors, "
            "whose zero-perturbation contract is byte-identity-tested — "
            "are not proven to leave trajectories untouched.  Per-round "
            "observability goes through repro.obs (collectors, "
            "MetricsRegistry, PhaseProfiler); diagnostics belong on the "
            "cold setup/teardown paths."
        ),
    ),
)

FAMILY = Family("hotpath", HOTPATH_RULES, HotpathAnalyzer)
analyze_project = FAMILY.analyze_project
analyze_paths = FAMILY.analyze_paths
analyze_sources = FAMILY.analyze_sources


def hotpath_catalogue() -> List[Tuple[str, str, str]]:
    """``(rule_id, title, rationale)`` rows — used by docs and tests."""
    return FAMILY.catalogue()
