"""Whole-program dataflow analysis (the RPR6xx rules).

The seed-provenance, dtype-flow and encapsulation family of ``repro
check``, running on the shared interprocedural driver
(:mod:`repro.devtools.pipeline.driver`); :mod:`.engine` holds its tag
lattices and sinks.  Entry points (all honor ``# repro: allow[...]`` and
``# repro: allow-file[...]``):

* :func:`analyze_paths` — parse + analyze files/directories on disk,
* :func:`analyze_sources` — analyze in-memory ``{module: source}``
  blobs (what the tests use),
* :func:`analyze_project` — analyze an already-parsed project (what
  ``repro check`` calls),
* :func:`dataflow_catalogue` — the RPR6xx rule metadata.
"""

from __future__ import annotations

from typing import List, Tuple

from ..pipeline import Family, RuleInfo
from .engine import DataflowAnalyzer

__all__ = [
    "DATAFLOW_RULES",
    "FAMILY",
    "analyze_paths",
    "analyze_project",
    "analyze_sources",
    "dataflow_catalogue",
]

DATAFLOW_RULES: Tuple[RuleInfo, ...] = (
    RuleInfo(
        rule_id="RPR601",
        title="unblessed generator reaches a simulation entry point",
        rationale=(
            "A numpy Generator created by a raw np.random.default_rng / "
            "Generator call (outside repro.devtools.seeding) that flows — "
            "possibly through several call hops — into a seed-accepting "
            "entry point (engine constructor, simulate_*, run_sweep, a "
            "measurement callable) bypasses the blessed coercion points, "
            "so the documented seed tree no longer accounts for its "
            "stream.  Create generators via resolve_rng / "
            "rng_from_sequence instead."
        ),
    ),
    RuleInfo(
        rule_id="RPR602",
        title="seed consumed twice on one path",
        rationale=(
            "Turning the same scalar seed into randomness twice on one "
            "control-flow path (two resolve_rng/default_rng calls, or two "
            "seed-consuming entry points) yields two *identical* streams: "
            "runs that should be independent are silently correlated.  "
            "Spawn children from a SeedSequence root instead; passing an "
            "already-coerced Generator onward is fine."
        ),
    ),
    RuleInfo(
        rule_id="RPR611",
        title="small integer dtype flows into a matvec/accumulation",
        rationale=(
            "An int8/int16 array produced in one function and consumed by "
            "adjacency.dot / @ / np.dot or a dtype-less sum in another "
            "wraps at degree >= 128 exactly like a local int8 matvec, but "
            "RPR302's per-line view cannot connect the cast to the sink.  "
            "Cast to int32+ before the accumulation, or pin a wide "
            "accumulator dtype."
        ),
    ),
    RuleInfo(
        rule_id="RPR612",
        title="silent downcast on store into a preallocated small array",
        rationale=(
            "Assigning into (or writing via out=) a preallocated "
            "int8/int16 buffer silently truncates values that exceed the "
            "narrow range — numpy does not raise on subscript-store "
            "downcasts.  Allocate the buffer int32+ or range-check before "
            "storing."
        ),
    ),
    RuleInfo(
        rule_id="RPR621",
        title="shared graph/collector array reaches an in-place mutation",
        rationale=(
            "Arrays reachable as .adjacency / .ell_max / .floor are "
            "shared between engines and observability collectors "
            "(StructureView.adopt_engine) and across replicas; an "
            "in-place store, augmented assignment, out= target or "
            "mutating method call through such a reference corrupts "
            "every other reader.  Derive a private copy before writing."
        ),
    ),
    RuleInfo(
        rule_id="RPR631",
        title="ad-hoc adjacency construction bypasses the structure cache",
        rationale=(
            "Calling to_sparse_adjacency or a scipy.sparse constructor "
            "directly rebuilds the CSR for a graph whose derived "
            "structure is already memoized by "
            "repro.core.kernels.structure_for — every such "
            "call site pays the build again and cannot share the arrays "
            "with other engines, replicas, or collectors.  Fetch "
            "adjacency via structure_for(graph).csr (or the structure's "
            "edge array); only repro.core.kernels and "
            "repro.graphs.io may construct the matrices themselves."
        ),
    ),
    RuleInfo(
        rule_id="RPR641",
        title="topology or structure internals mutated outside their homes",
        rationale=(
            "The serving stack funnels every topology change through "
            "repro.graphs.mutable.MutableTopology (which enforces the "
            "degree cap and emits the TopologyDelta the incremental "
            "patching consumes) and every derived-structure patch "
            "through repro.core.kernels.update_structure (which keeps "
            "the patched CSR/edge array byte-identical to a "
            "rebuild).  Writing MutableTopology internals (._adj, "
            "._live, ._free) or GraphStructure form slots (._csr, "
            "._edge_array) anywhere else silently "
            "desynchronizes topology, structure, and engine levels.  "
            "Use the add_node/remove_node/add_edge/remove_edge op "
            "surface and update_structure instead."
        ),
    ),
)

FAMILY = Family("dataflow", DATAFLOW_RULES, DataflowAnalyzer)
analyze_project = FAMILY.analyze_project
analyze_paths = FAMILY.analyze_paths
analyze_sources = FAMILY.analyze_sources


def dataflow_catalogue() -> List[Tuple[str, str, str]]:
    """``(rule_id, title, rationale)`` rows — used by docs and tests."""
    return FAMILY.catalogue()
