"""The long-lived MIS service: op streams over a mutating topology.

Where the rest of the repo treats an MIS as a *function of a frozen
graph*, this package treats it as a *standing object* maintained under
churn — the regime the paper's self-stabilization claim is actually
about.  The stack, bottom to top:

* :mod:`repro.serve.ops` — the newline-delimited-JSON op format (four
  topology mutations plus two reads; spec in ``docs/serving.md``);
* :mod:`repro.serve.workload` — deterministic seeded op-stream
  generation (``read-heavy`` / ``churn-heavy`` / ``burst`` mixes);
* :mod:`repro.serve.service` — :class:`MISService`, which applies
  deltas through :class:`repro.graphs.MutableTopology`, patches the
  derived structure via :func:`repro.core.kernels.update_structure`,
  rebinds a resumable engine, and runs rounds until the legality
  predicate holds again.

Entry point: ``repro serve`` (see :mod:`repro.cli`).
"""

from .ops import (
    MUTATION_OPS,
    OP_NAMES,
    READ_OPS,
    Op,
    OpError,
    format_op,
    parse_op,
    parse_ops,
)
from .service import (
    ALGORITHMS,
    MISService,
    OpResult,
    ServeError,
    ServeReport,
)
from .workload import WORKLOAD_MIXES, generate_ops

__all__ = [
    "ALGORITHMS",
    "MISService",
    "MUTATION_OPS",
    "OP_NAMES",
    "Op",
    "OpError",
    "OpResult",
    "READ_OPS",
    "ServeError",
    "ServeReport",
    "WORKLOAD_MIXES",
    "format_op",
    "generate_ops",
    "parse_op",
    "parse_ops",
]
