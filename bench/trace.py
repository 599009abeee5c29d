"""Outside-in layer tracing: wrap public callables, record spans, restore.

:class:`Tracer` replaces each public callable of the layer table
(:func:`install_layers`) with a wrapper that records a span — name,
start, end and parent — and restores every original attribute on exit.
Functions are patched in every ``repro`` module that holds them, since
callers look them up in their own namespace; methods and properties are
patched on each class that defines them.

Spans the benchmark opens itself and the coarse layer calls (one sweep
call or cell, one served op) are kept individually with their parent ids.
Per-round calls (hear, step, stress models, collectors, ...) would be
hundreds of thousands of spans, so they are aggregated into their nearest
kept ancestor as ``{part: [self_s, calls]}``.  A span's self time is its
duration minus the time its child spans cover.

Nothing inside the program is instrumented: the beep decision and the
level update are both inside ``engines.step``, and a fused
``RoundKernel.run_block`` is one opaque span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "NullTracer",
    "PER_LAYER",
    "PROBE_PART",
    "Tracer",
    "install_layers",
    "layer_metrics",
]

#: The part the benchmark's host-speed probes are recorded under; their
#: time is the benchmark's, so it is left out of every layer's share.
PROBE_PART = "bench.probe"

#: A span part, or a function of the parent span's part that picks one.
Part = Union[str, Callable[[Optional[str]], str]]
#: Post-call hook: ``note(notes, args, result)`` updates counters.
Note = Callable[[Counter, Tuple[Any, ...], Any], None]


class Tracer:
    """Span recorder; use as a context manager so patches are undone."""

    def __init__(self) -> None:
        self._clock = time.perf_counter
        self._origin = self._clock()
        # Open frames: [part, start, child_time, kept record, anchor record].
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []
        #: Kept spans, in start order.
        self.spans: List[Dict[str, Any]] = []
        #: ``part -> [self seconds, calls]`` over every span.
        self.totals: Dict[str, List[float]] = {}
        #: Counters filled by the post-call notes.
        self.notes: Counter = Counter()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _enter(self, part: str, keep: bool) -> list:
        stack = self._stack
        anchor = stack[-1][4] if stack else None
        record = None
        if keep:
            record = {
                "id": len(self.spans),
                "parent": None if anchor is None else anchor["id"],
                "name": part,
                "agg": {},
            }
            self.spans.append(record)
            anchor = record
        frame = [part, 0.0, 0.0, record, anchor]
        stack.append(frame)
        frame[1] = self._clock()
        return frame

    def _exit(self, frame: list) -> None:
        end = self._clock()
        stack = self._stack
        stack.pop()
        part, start, child_time, record, anchor = frame
        duration = end - start
        self_time = duration - child_time
        if stack:
            stack[-1][2] += duration
        total = self.totals.get(part)
        if total is None:
            self.totals[part] = [self_time, 1]
        else:
            total[0] += self_time
            total[1] += 1
        if record is not None:
            record["start"] = start - self._origin
            record["end"] = end - self._origin
            record["self_s"] = self_time
        elif anchor is not None:
            agg = anchor["agg"].get(part)
            if agg is None:
                anchor["agg"][part] = [self_time, 1]
            else:
                agg[0] += self_time
                agg[1] += 1

    @contextmanager
    def span(self, part: str) -> Iterator[None]:
        """A kept span opened by the benchmark itself."""
        frame = self._enter(part, keep=True)
        try:
            yield
        finally:
            self._exit(frame)

    def root_wall(self) -> float:
        """Total duration of the top-level kept spans."""
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _wrap(
        self, fn: Callable[..., Any], part: Part, keep: bool, note: Optional[Note]
    ) -> Callable[..., Any]:
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            name = part(parent) if callable(part) else part
            if name == parent:
                # Re-entry (an override calling its base, a layer
                # function calling its sibling): one span, not two.
                return fn(*args, **kwargs)
            frame = tracer._enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if note is not None:
                note(tracer.notes, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch_function(
        self, fn: Callable[..., Any], part: Part, keep: bool = False,
        note: Optional[Note] = None,
    ) -> None:
        """Wrap ``fn`` in every loaded ``repro`` module that binds it."""
        wrapped = self._wrap(fn, part, keep, note)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)

    def patch_method(
        self, cls: type, attr: str, part: Part, keep: bool = False,
        note: Optional[Note] = None,
    ) -> None:
        """Wrap ``attr`` on ``cls`` and on every subclass that overrides it.

        Properties are wrapped through their getter.
        """
        pending = [cls]
        seen = set()
        while pending:
            owner = pending.pop()
            if owner in seen:
                continue
            seen.add(owner)
            pending.extend(owner.__subclasses__())
            value = vars(owner).get(attr)
            if isinstance(value, property):
                self._set(owner, attr, property(
                    self._wrap(value.fget, part, keep, note),  # type: ignore[arg-type]
                    value.fset, value.fdel, value.__doc__,
                ))
            elif callable(value):
                self._set(owner, attr, self._wrap(value, part, keep, note))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    # ------------------------------------------------------------------
    def dump(self, path: str, meta: Dict[str, Any]) -> None:
        """Write the kept spans, totals and notes as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "meta": meta,
                    "totals": self.totals,
                    "notes": dict(self.notes),
                    "spans": self.spans,
                },
                handle,
            )


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs."""

    _null = nullcontext()

    def span(self, part: str) -> "nullcontext[None]":
        return self._null


# ----------------------------------------------------------------------
# The layer table
# ----------------------------------------------------------------------
def _hear_part(parent: Optional[str]) -> str:
    return "hear.step" if parent == "engines.step" else "hear.legality"


def _note_rows(notes: Counter, args: Tuple[Any, ...], result: Any) -> None:
    rows = args[1]
    notes["hear.rows"] += 1 if rows.ndim == 1 else rows.shape[0]


def _note_legal(notes: Counter, args: Tuple[Any, ...], result: Any) -> None:
    notes["engines.is_legal.true"] += bool(result)


def _note_op(notes: Counter, args: Tuple[Any, ...], result: Any) -> None:
    if result.op.is_mutation and result.status == "ok":
        notes["serve.mutations"] += 1
        notes["serve.zero_round"] += result.rounds == 0
        notes["serve.rebuilt"] += bool(result.rebuilt)


def install_layers(tracer: Tracer) -> None:
    """Wrap the public callables of every layer (see ``bench/README.md``)."""
    from repro.analysis import measurements, sweep
    from repro.core import kernels
    from repro.core.engines import BatchedEngine, EngineBase
    from repro.core.engines.base import StressState
    from repro.graphs import generators
    from repro.graphs.mutable import MutableTopology
    from repro.obs import BatchedCollector
    from repro.serve import MISService, ops

    tracer.patch_function(generators.by_name, "graphs.generate")
    for attr in ("add_edge", "remove_edge", "add_node", "remove_node",
                 "live_vertices", "neighbors"):
        tracer.patch_method(MutableTopology, attr, "graphs.topology")
    tracer.patch_method(MutableTopology, "snapshot", "graphs.snapshot")

    tracer.patch_function(kernels.structure_for, "structure.build")
    for attr in ("edge_array", "csr", "dense", "packed"):
        tracer.patch_method(kernels.GraphStructure, attr, "structure.forms")
    tracer.patch_function(kernels.update_structure, "structure.patch")
    tracer.patch_function(kernels.should_rebuild, "structure.decide")

    tracer.patch_method(kernels.HearKernel, "hear", _hear_part, note=_note_rows)
    tracer.patch_method(kernels.HearKernel, "hear_rows", _hear_part, note=_note_rows)
    tracer.patch_method(kernels.RoundKernel, "run_block", "round.run_block")

    for cls in (EngineBase, BatchedEngine):
        tracer.patch_method(cls, "__init__", "engines.construct")
        tracer.patch_method(cls, "step", "engines.step")
        tracer.patch_method(cls, "rebind", "engines.rebind")
        tracer.patch_method(cls, "mis_vertices", "engines.mis_vertices")
    tracer.patch_method(BatchedEngine, "run", "engines.run")
    tracer.patch_method(EngineBase, "until_stable", "engines.until_stable")
    tracer.patch_method(EngineBase, "is_legal", "engines.is_legal", note=_note_legal)

    tracer.patch_method(StressState, "begin_round", "beeping.channel")
    tracer.patch_method(StressState, "apply_channel", "beeping.channel")
    tracer.patch_method(StressState, "active_mask", "beeping.scheduler")
    tracer.patch_method(StressState, "transmit", "beeping.transmit")

    for attr in ("observe_structure", "observe_beeps", "finalize_replica"):
        tracer.patch_method(BatchedCollector, attr, "obs.collector")

    tracer.patch_function(sweep.run_sweep, "sweep", keep=True)
    for attr in ("measure_batch", "measure_batch_observed"):
        tracer.patch_method(measurements.StabilizationRounds, attr, "sweep.cell", keep=True)

    tracer.patch_function(ops.parse_op, "serve.parse")
    tracer.patch_method(MISService, "apply", "serve.apply", keep=True, note=_note_op)
    tracer.patch_method(MISService, "mis", "serve.answer")


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
class _View:
    """Totals of one traced run, normalized for reporting."""

    def __init__(self, tracer: Tracer, iterations: int):
        self.tracer = tracer
        self.wall = tracer.root_wall() - tracer.totals.get(PROBE_PART, (0.0, 0))[0]
        self.iterations = max(iterations, 1)

    def pct(self, *parts: str) -> float:
        total = sum(self.tracer.totals.get(p, (0.0, 0))[0] for p in parts)
        return 100.0 * total / self.wall if self.wall > 0 else 0.0

    def count(self, *parts: str) -> float:
        return sum(self.tracer.totals.get(p, (0.0, 0))[1] for p in parts)

    def calls(self, *parts: str) -> float:
        return self.count(*parts) / self.iterations

    def ratio(self, numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0


_HEAR = ("hear.step", "hear.legality")
_BEEPING = ("beeping.scheduler", "beeping.transmit", "beeping.channel")

#: ``(name, unit, value)``: every per-layer metric, in report order.
#: Self times are shares of the traced wall (setup plus pass, summed over
#: traced iterations); calls are per traced iteration.
PER_LAYER: Tuple[Tuple[str, str, Callable[[_View], float]], ...] = (
    ("graphs.generate.self_pct", "%", lambda v: v.pct("graphs.generate")),
    ("graphs.topology.self_pct", "%", lambda v: v.pct("graphs.topology")),
    ("graphs.topology.calls", "count", lambda v: v.calls("graphs.topology")),
    ("graphs.snapshot.self_pct", "%", lambda v: v.pct("graphs.snapshot")),
    ("structure.build.self_pct", "%", lambda v: v.pct("structure.build", "structure.forms")),
    ("structure.build.calls", "count", lambda v: v.calls("structure.build")),
    ("structure.patch.self_pct", "%", lambda v: v.pct("structure.patch", "structure.decide")),
    ("structure.patch.calls", "count", lambda v: v.calls("structure.patch")),
    ("structure.rebuilt_frac", "ratio", lambda v: v.ratio(
        v.tracer.notes["serve.rebuilt"], v.tracer.notes["serve.mutations"])),
    ("hear.step.self_pct", "%", lambda v: v.pct("hear.step")),
    ("hear.legality.self_pct", "%", lambda v: v.pct("hear.legality")),
    ("hear.calls", "count", lambda v: v.calls(*_HEAR)),
    ("hear.rows_per_call", "rows", lambda v: v.ratio(
        v.tracer.notes["hear.rows"], v.count(*_HEAR))),
    ("round.run_block.self_pct", "%", lambda v: v.pct("round.run_block")),
    ("round.run_block.calls", "count", lambda v: v.calls("round.run_block")),
    ("engines.step.self_pct", "%", lambda v: v.pct("engines.step")),
    ("engines.step.calls", "count", lambda v: v.calls("engines.step")),
    ("engines.run.self_pct", "%", lambda v: v.pct("engines.run")),
    ("engines.construct.self_pct", "%", lambda v: v.pct("engines.construct")),
    ("engines.rebind.self_pct", "%", lambda v: v.pct("engines.rebind")),
    ("engines.until_stable.self_pct", "%", lambda v: v.pct("engines.until_stable")),
    ("engines.is_legal.self_pct", "%", lambda v: v.pct("engines.is_legal")),
    ("engines.is_legal.calls", "count", lambda v: v.calls("engines.is_legal")),
    ("engines.is_legal.legal_frac", "ratio", lambda v: v.ratio(
        v.tracer.notes["engines.is_legal.true"], v.count("engines.is_legal"))),
    ("engines.mis_vertices.self_pct", "%", lambda v: v.pct("engines.mis_vertices")),
    ("beeping.scheduler.self_pct", "%", lambda v: v.pct("beeping.scheduler")),
    ("beeping.transmit.self_pct", "%", lambda v: v.pct("beeping.transmit")),
    ("beeping.channel.self_pct", "%", lambda v: v.pct("beeping.channel")),
    ("beeping.calls", "count", lambda v: v.calls(*_BEEPING)),
    ("obs.collector.self_pct", "%", lambda v: v.pct("obs.collector")),
    ("obs.collector.calls", "count", lambda v: v.calls("obs.collector")),
    ("sweep.self_pct", "%", lambda v: v.pct("sweep", "sweep.cell")),
    ("serve.parse.self_pct", "%", lambda v: v.pct("serve.parse")),
    ("serve.apply.self_pct", "%", lambda v: v.pct("serve.apply")),
    ("serve.answer.self_pct", "%", lambda v: v.pct("serve.answer")),
    ("serve.zero_round_frac", "ratio", lambda v: v.ratio(
        v.tracer.notes["serve.zero_round"], v.tracer.notes["serve.mutations"])),
)


def layer_metrics(
    tracer: Tracer, iterations: int, overhead_pct: float
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric plus ``trace.overhead_pct``."""
    view = _View(tracer, iterations)
    metrics = {name: (float(fn(view)), unit) for name, unit, fn in PER_LAYER}
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return metrics
