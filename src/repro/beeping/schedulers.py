"""Pluggable round schedulers: synchronous, bounded drift, adversarial.

The paper's rounds are perfectly synchronous: every vertex beeps,
hears, and updates in lockstep.  A :class:`Scheduler` relaxes that —
per round it decides which vertices *fire* (recompute their beep and
apply their update) and which are *delayed*.

Stale-carrier semantics
-----------------------
A delayed vertex models a slow clock whose current round is stretched:
it keeps transmitting its **stale** beep (the carrier from the last
round it fired — silence before it ever fired) and does not update its
level.  Neighbors therefore hear a consistent, if outdated, signal,
exactly the "stale-round reads" regime of unsynchronized-start beeping
models.  The engines own the carrier arrays; schedulers only produce
activity masks.

Models
------
* :class:`SynchronousScheduler` — the paper's model; every vertex
  fires every round (``active_mask`` returns ``None``, letting the
  engines skip carrier bookkeeping entirely).
* :class:`BoundedDriftScheduler` — each vertex independently skips a
  round with probability ``p_skip``, but never falls more than
  ``max_lag`` rounds behind: after ``max_lag`` consecutive skips the
  next round is a forced fire, so clock drift stays bounded.
* :class:`AdversarialScheduler` — composes the existing wake-up
  adversary (:class:`repro.beeping.wakeup.WakeupSchedule`) with
  optional post-wake drift: a vertex is dormant (silent carrier, no
  updates) until its wake round, then fires under the drift law.

RNG discipline
--------------
Like channel models (and enforced by the same devtools rule RPR105),
schedulers never construct generators: the drift draws come from the
engine-bound scheduler stream passed into
:meth:`BoundScheduler.active_mask`.  Drifting schedulers draw
``rng.random(n)`` every round regardless of the mask they return, so
the stream layout is data-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, Optional, Tuple, Union

import numpy as np
import numpy.typing as npt

from .wakeup import WakeupSchedule

__all__ = [
    "SCHEDULER_SPECS",
    "Scheduler",
    "SynchronousScheduler",
    "BoundedDriftScheduler",
    "AdversarialScheduler",
    "BoundScheduler",
    "SchedulerLike",
    "register_scheduler",
    "unregister_scheduler",
    "available_schedulers",
    "scheduler_from_spec",
    "resolve_scheduler",
]

#: Accepted ``--scheduler`` spec strings (parsed by
#: :func:`scheduler_from_spec`).
SCHEDULER_SPECS = (
    "synchronous",
    "drift:P_SKIP[,MAX_LAG]",
    "adversarial[:KIND[,GAP]]",
)

#: Wake-up kinds buildable from the vertex count alone.  Graph-aware
#: kinds (``frontier``, ``high_degree_last``) and the seeded ``random``
#: kind need data a spec string cannot carry — pass an explicit
#: :class:`WakeupSchedule` to :class:`AdversarialScheduler` for those.
ADVERSARIAL_KINDS = ("simultaneous", "staggered")


class Scheduler:
    """Base class for scheduler specs (immutable value objects).

    ``trivial`` marks the synchronous scheduler: engines combine it
    with the perfect channel into the byte-identical fast path.
    ``needs_rng`` tells the engine whether to derive a scheduler
    stream at construction.
    """

    name: ClassVar[str] = ""
    trivial: ClassVar[bool] = False

    @property
    def needs_rng(self) -> bool:
        return True

    def bind(self, n: int) -> "BoundScheduler":
        """Allocate the per-engine clock state for ``n`` vertices."""
        raise NotImplementedError

    def spec(self) -> str:
        """Round-trippable spec string."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec()!r})"


class BoundScheduler:
    """Per-engine clock state: produces one activity mask per round.

    ``active_mask`` returns ``None`` iff the scheduler is synchronous
    (it never gates) — engines then skip all carrier/gating work.  A
    non-synchronous scheduler always returns a mask, even when it
    happens to be all-True, so the engines' carrier arrays advance
    every round.
    """

    is_synchronous = False

    def __init__(self, model: Scheduler, n: int):
        self.model = model
        self.n = n

    def active_mask(
        self,
        round_index: int,
        rng: Optional[np.random.Generator],
    ) -> Optional[npt.NDArray[np.bool_]]:
        raise NotImplementedError


class _BoundSynchronous(BoundScheduler):
    is_synchronous = True

    def active_mask(
        self,
        round_index: int,
        rng: Optional[np.random.Generator],
    ) -> Optional[npt.NDArray[np.bool_]]:
        return None


@dataclass(frozen=True)
class SynchronousScheduler(Scheduler):
    """The paper's model: every vertex fires every round."""

    name: ClassVar[str] = "synchronous"
    trivial: ClassVar[bool] = True

    @property
    def needs_rng(self) -> bool:
        return False

    def bind(self, n: int) -> BoundScheduler:
        return _BoundSynchronous(self, n)

    def spec(self) -> str:
        return "synchronous"


class _BoundDrift(BoundScheduler):
    def __init__(self, model: "BoundedDriftScheduler", n: int):
        super().__init__(model, n)
        self._lag = np.zeros(n, dtype=np.int64)
        self._draws = np.empty(n, dtype=np.float64)
        self._p_skip = model.p_skip
        self._max_lag = model.max_lag

    def active_mask(
        self,
        round_index: int,
        rng: Optional[np.random.Generator],
    ) -> Optional[npt.NDArray[np.bool_]]:
        assert rng is not None
        draws = self._draws
        rng.random(out=draws)
        active = (draws >= self._p_skip) | (self._lag >= self._max_lag)
        # In place: +1 everywhere, then zero the fired clocks — exactly
        # np.where(active, 0, lag + 1) without rebinding the buffer.
        np.add(self._lag, 1, out=self._lag)
        self._lag[active] = 0
        return active


@dataclass(frozen=True)
class BoundedDriftScheduler(Scheduler):
    """Independent per-vertex skips with a hard lag bound.

    Each round each vertex skips with probability ``p_skip``; a vertex
    that has skipped ``max_lag`` rounds in a row fires unconditionally,
    so no clock drifts more than ``max_lag`` rounds behind — the
    bounded-drift condition under which convergence remains provable.
    """

    p_skip: float
    max_lag: int = 3
    name: ClassVar[str] = "drift"

    def __post_init__(self) -> None:
        if not 0.0 < self.p_skip < 1.0:
            raise ValueError(
                f"p_skip must be in (0, 1), got {self.p_skip} "
                "(use the synchronous scheduler for p_skip = 0)"
            )
        if self.max_lag < 1:
            raise ValueError(f"max_lag must be >= 1, got {self.max_lag}")

    def bind(self, n: int) -> BoundScheduler:
        return _BoundDrift(self, n)

    def spec(self) -> str:
        return f"drift:{self.p_skip:g},{self.max_lag}"


class _BoundAdversarial(BoundScheduler):
    def __init__(self, model: "AdversarialScheduler", n: int):
        super().__init__(model, n)
        schedule = model.schedule
        if schedule is not None:
            if len(schedule.wake_round) != n:
                raise ValueError(
                    f"explicit wake-up schedule covers {len(schedule.wake_round)} "
                    f"vertices but the engine has {n}"
                )
        elif model.kind == "simultaneous":
            schedule = WakeupSchedule.simultaneous(n)
        else:
            schedule = WakeupSchedule.staggered(n, gap=model.gap)
        self._wake = np.asarray(schedule.wake_round, dtype=np.int64)
        self._lag = np.zeros(n, dtype=np.int64)
        self._draws = np.empty(n, dtype=np.float64)
        self._p_skip = model.p_skip
        self._max_lag = model.max_lag

    def active_mask(
        self,
        round_index: int,
        rng: Optional[np.random.Generator],
    ) -> Optional[npt.NDArray[np.bool_]]:
        awake = self._wake <= round_index
        if self._p_skip == 0.0:
            return awake
        assert rng is not None
        # Drift draws happen every round, awake or not, so the stream
        # layout is independent of the wake pattern.
        draws = self._draws
        rng.random(out=draws)
        fires = (draws >= self._p_skip) | (self._lag >= self._max_lag)
        active = awake & fires
        # Dormant vertices hold lag 0: the drift clock only starts
        # ticking once the adversary wakes them.  In place: +1
        # everywhere, then zero fired and dormant clocks — exactly
        # np.where(active | ~awake, 0, lag + 1) without rebinding.
        np.add(self._lag, 1, out=self._lag)
        self._lag[active] = 0
        self._lag[~awake] = 0
        return active


@dataclass(frozen=True)
class AdversarialScheduler(Scheduler):
    """Wake-up adversary composed with optional post-wake drift.

    ``schedule`` pins an explicit :class:`WakeupSchedule` (use this for
    the graph-aware or seeded constructors); otherwise ``kind`` /
    ``gap`` build one from the vertex count at bind time (see
    :data:`ADVERSARIAL_KINDS`).  With ``p_skip > 0`` awake vertices
    additionally drift under the bounded-drift law.
    """

    schedule: Optional[WakeupSchedule] = None
    kind: str = "staggered"
    gap: int = 1
    p_skip: float = 0.0
    max_lag: int = 3
    name: ClassVar[str] = "adversarial"

    def __post_init__(self) -> None:
        if self.schedule is None and self.kind not in ADVERSARIAL_KINDS:
            raise ValueError(
                f"unknown adversarial kind {self.kind!r}; choose one of "
                f"{ADVERSARIAL_KINDS} or pass an explicit schedule"
            )
        if self.gap < 1:
            raise ValueError(f"gap must be >= 1, got {self.gap}")
        if not 0.0 <= self.p_skip < 1.0:
            raise ValueError(f"p_skip must be in [0, 1), got {self.p_skip}")
        if self.max_lag < 1:
            raise ValueError(f"max_lag must be >= 1, got {self.max_lag}")

    @property
    def needs_rng(self) -> bool:
        return self.p_skip > 0.0

    def bind(self, n: int) -> BoundScheduler:
        return _BoundAdversarial(self, n)

    def spec(self) -> str:
        if self.schedule is not None:
            return f"adversarial:explicit[{len(self.schedule.wake_round)}]"
        return f"adversarial:{self.kind},{self.gap}"


# ----------------------------------------------------------------------
# Registry (mirrors the engine/channel registries)
# ----------------------------------------------------------------------
SchedulerLike = Union[str, Scheduler, None]

_SCHEDULERS: Dict[str, Callable[[str], Scheduler]] = {}


def register_scheduler(name: str, factory: Callable[[str], Scheduler]) -> None:
    """Register a scheduler factory under ``name``.

    ``factory`` receives the text after ``name:`` in a spec string
    (empty when absent) and returns a :class:`Scheduler`.
    """
    if name in _SCHEDULERS:
        raise ValueError(f"scheduler {name!r} is already registered")
    _SCHEDULERS[name] = factory


def unregister_scheduler(name: str) -> None:
    _SCHEDULERS.pop(name, None)


def available_schedulers() -> Tuple[str, ...]:
    return tuple(sorted(_SCHEDULERS))


def scheduler_from_spec(spec: str) -> Scheduler:
    """Parse a ``--scheduler`` spec string (see :data:`SCHEDULER_SPECS`)."""
    name, _, argtext = spec.partition(":")
    factory = _SCHEDULERS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown scheduler {name!r}; available: "
            f"{', '.join(available_schedulers())}"
        )
    return factory(argtext)


def resolve_scheduler(scheduler: SchedulerLike) -> Scheduler:
    """Coerce ``None`` / spec string / model instance to a model."""
    if scheduler is None:
        return SynchronousScheduler()
    if isinstance(scheduler, Scheduler):
        return scheduler
    if isinstance(scheduler, str):
        return scheduler_from_spec(scheduler)
    raise TypeError(
        f"scheduler must be a spec string or Scheduler, got {type(scheduler).__name__}"
    )


def _synchronous_factory(argtext: str) -> Scheduler:
    if argtext:
        raise ValueError("synchronous takes no parameters")
    return SynchronousScheduler()


def _drift_factory(argtext: str) -> Scheduler:
    if not argtext:
        raise ValueError("drift requires P_SKIP (e.g. drift:0.1)")
    parts = argtext.split(",")
    if len(parts) > 2:
        raise ValueError("drift takes at most two parameters: P_SKIP[,MAX_LAG]")
    p_skip = float(parts[0])
    max_lag = int(parts[1]) if len(parts) == 2 else 3
    return BoundedDriftScheduler(p_skip, max_lag)


def _adversarial_factory(argtext: str) -> Scheduler:
    if not argtext:
        return AdversarialScheduler()
    parts = argtext.split(",")
    if len(parts) > 2:
        raise ValueError("adversarial takes at most two parameters: KIND[,GAP]")
    kind = parts[0]
    gap = int(parts[1]) if len(parts) == 2 else 1
    return AdversarialScheduler(kind=kind, gap=gap)


register_scheduler("synchronous", _synchronous_factory)
register_scheduler("drift", _drift_factory)
register_scheduler("adversarial", _adversarial_factory)
