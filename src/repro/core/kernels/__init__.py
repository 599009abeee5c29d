"""Hear kernels, the fused round kernel, and the graph-structure cache.

The execution engines delegate every "who heard ≥ 1 beep" aggregation —
reception, the blocked/dominated tests, legality — to a pluggable
:class:`HearKernel` chosen here, run every eligible stabilization
through the :class:`RoundKernel`, and share all derived adjacency forms
(CSR, dense, packed bitset) through one content-keyed
:func:`structure_for` cache.  See ``docs/performance.md`` for the kernel
selection heuristic, cache semantics, and the shared-memory sweep path.
"""

from .hear import (
    BitsetKernel,
    DenseBoolKernel,
    HearKernel,
    KERNEL_ALIASES,
    SparseInt32Kernel,
    available_kernels,
    make_kernel,
    resolve_kernel_name,
)
from .round import BlockDraws, BlockOutcome, PerRoundDraws, RoundKernel
from .shm import (
    SharedStructureManifest,
    SharedStructureSet,
    attach_structure,
    export_structures,
    seed_worker_structures,
)
from .structure import (
    GraphStructure,
    clear_structure_cache,
    seed_structure,
    should_rebuild,
    structure_cache_info,
    structure_for,
    update_structure,
)

__all__ = [
    "SharedStructureManifest",
    "SharedStructureSet",
    "attach_structure",
    "export_structures",
    "seed_worker_structures",
    "HearKernel",
    "SparseInt32Kernel",
    "DenseBoolKernel",
    "BitsetKernel",
    "KERNEL_ALIASES",
    "available_kernels",
    "resolve_kernel_name",
    "make_kernel",
    "RoundKernel",
    "BlockOutcome",
    "PerRoundDraws",
    "BlockDraws",
    "GraphStructure",
    "structure_for",
    "seed_structure",
    "update_structure",
    "should_rebuild",
    "clear_structure_cache",
    "structure_cache_info",
]
