"""The hear kernel, the round kernel, and the graph-structure cache.

The execution engines delegate every "who heard ≥ 1 beep" aggregation —
reception, the blocked/dominated tests, legality — to one
:class:`HearKernel` (over the CSR adjacency), run every round through the
:class:`RoundKernel` (one round per ``step()``, whole stabilizations in
its fused loop), and share the derived
adjacency forms (canonical edge array, CSR) through one content-keyed
:func:`structure_for` cache.  See ``docs/performance.md`` for the cache
semantics.
"""

from .hear import HearKernel
from .round import BlockOutcome, PerRoundDraws, RoundKernel
from .structure import (
    GraphStructure,
    clear_structure_cache,
    should_rebuild,
    structure_cache_info,
    structure_for,
    update_structure,
)

__all__ = [
    "HearKernel",
    "RoundKernel",
    "BlockOutcome",
    "PerRoundDraws",
    "GraphStructure",
    "structure_for",
    "update_structure",
    "should_rebuild",
    "clear_structure_cache",
    "structure_cache_info",
]
