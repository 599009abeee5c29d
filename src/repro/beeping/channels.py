"""Pluggable channel models: perfect, lossy, noisy, and combined.

The paper proves self-stabilization under perfect collision detection:
a vertex hears a beep iff at least one neighbor beeped.  The related
beeping-MIS line (Afek et al.'s "extremely harsh broadcast model",
Cornejo-Haeupler-Kuhn's beep-only MIS) targets channels that drop and
fabricate carrier-sense bits, which is exactly the stress regime
ROADMAP item 5 asks about.  This module supplies those channels as
small value objects behind a registry mirroring the engine
registry, applied vectorized by every engine between the hear-matvec
and the level update.

Semantics
---------
Perturbation is **receiver-side**: a channel model acts on the
aggregated carrier-sense bit each vertex computed (the output of
``kernel.hear``), not on individual transmissions.  Per (receiver,
round):

* :class:`PerfectChannel` — the paper's model; the identity.
* :class:`LossyChannel` — a heard beep is independently *dropped* with
  probability ``p_miss`` (the receiver senses silence).
* :class:`NoisyChannel` — a silent receiver independently senses a
  *spurious* beep with probability ``p_false``.
* :class:`UnreliableChannel` — the composition, misses applied before
  false positives (so a dropped beep can be replaced by a spurious
  one, exactly as chaining ``lossy`` then ``noisy`` would).

Channel noise perturbs only in-round communication.  The structural
predicates (``mis_mask`` / ``is_legal``) stay exact, so "stabilized"
still means "reached a true MIS configuration" — what degrades under
noise is *when* (and below recoverable thresholds, never *whether*)
that happens.

RNG discipline
--------------
Models never construct generators or seed trees — devtools rule
RPR105 enforces this.  They consume the engine-bound channel stream
passed into :meth:`BoundChannel.apply`; the engine derives that stream
once at construction (see ``docs/robustness.md`` for the seed-tree
layout).  Every non-perfect model draws ``rng.random(heard.shape)``
unconditionally — the stream layout is data-independent, which is what
keeps solo and batched replicas bit-identical under noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, Optional, Tuple, Union

import numpy as np
import numpy.typing as npt

__all__ = [
    "CHANNEL_SPECS",
    "ChannelModel",
    "PerfectChannel",
    "LossyChannel",
    "NoisyChannel",
    "UnreliableChannel",
    "BoundChannel",
    "ChannelLike",
    "register_channel",
    "unregister_channel",
    "available_channels",
    "channel_from_spec",
    "resolve_channel",
]

#: Accepted ``--channel`` spec strings (parsed by :func:`channel_from_spec`).
CHANNEL_SPECS = (
    "perfect",
    "lossy:P_MISS",
    "noisy:P_FALSE",
    "unreliable:P_MISS,P_FALSE",
)


def _check_probability(value: float, what: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} must be in [0, 1], got {value}")
    return value


def _probability(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{what} must be a float, got {text!r}") from None
    return _check_probability(value, what)


class ChannelModel:
    """Base class for channel specs (immutable value objects).

    Subclasses set :attr:`name` (the registry key), :attr:`needs_rng`
    (whether :meth:`BoundChannel.apply` consumes randomness — the
    engine only derives a channel stream when it does), and implement
    :meth:`_perturb`.  ``trivial`` marks the identity channel: engines
    combine it with the synchronous scheduler into the byte-identical
    fast path.
    """

    name: ClassVar[str] = ""
    needs_rng: ClassVar[bool] = True
    trivial: ClassVar[bool] = False

    def bind(self) -> "BoundChannel":
        """Attach per-engine counters to this (shared, immutable) spec."""
        return BoundChannel(self)

    def spec(self) -> str:
        """Round-trippable spec string (``channel_from_spec(m.spec()) == m``)."""
        raise NotImplementedError

    def _perturb(
        self,
        heard: npt.NDArray[np.bool_],
        rng: Optional[np.random.Generator],
        scratch: Optional["_PerturbScratch"],
    ) -> Tuple[int, int]:
        """Mutate ``heard`` in place; return ``(dropped, spurious)`` counts.

        ``scratch`` holds the bound channel's reusable draw/mask buffers
        (:class:`_PerturbScratch`); non-trivial models fill them in
        place instead of allocating per round.  The uniform draws still
        consume exactly ``heard.size`` values per draw, so the stream
        layout is unchanged from the historical allocating version.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec()!r})"


@dataclass(frozen=True)
class PerfectChannel(ChannelModel):
    """The paper's channel: every hear bit arrives untouched."""

    name: ClassVar[str] = "perfect"
    needs_rng: ClassVar[bool] = False
    trivial: ClassVar[bool] = True

    def spec(self) -> str:
        return "perfect"

    def _perturb(
        self,
        heard: npt.NDArray[np.bool_],
        rng: Optional[np.random.Generator],
        scratch: Optional["_PerturbScratch"],
    ) -> Tuple[int, int]:
        # Identity: no mutation, and ``rng`` (which may be None — the
        # engine derives no channel stream for a perfect channel) is
        # never touched.  ``scratch`` stays None for trivial channels.
        return 0, 0


@dataclass(frozen=True)
class LossyChannel(ChannelModel):
    """Each heard beep is independently dropped with ``p_miss``."""

    p_miss: float
    name: ClassVar[str] = "lossy"

    def __post_init__(self) -> None:
        _check_probability(self.p_miss, "p_miss")

    def spec(self) -> str:
        return f"lossy:{self.p_miss:g}"

    def _perturb(
        self,
        heard: npt.NDArray[np.bool_],
        rng: Optional[np.random.Generator],
        scratch: Optional["_PerturbScratch"],
    ) -> Tuple[int, int]:
        assert rng is not None and scratch is not None
        draws, dropped = scratch.draws, scratch.mask
        rng.random(out=draws)
        np.less(draws, self.p_miss, out=dropped)
        dropped &= heard
        heard[dropped] = False
        return int(np.count_nonzero(dropped)), 0


@dataclass(frozen=True)
class NoisyChannel(ChannelModel):
    """Each silent receiver independently hears a spurious beep."""

    p_false: float
    name: ClassVar[str] = "noisy"

    def __post_init__(self) -> None:
        _check_probability(self.p_false, "p_false")

    def spec(self) -> str:
        return f"noisy:{self.p_false:g}"

    def _perturb(
        self,
        heard: npt.NDArray[np.bool_],
        rng: Optional[np.random.Generator],
        scratch: Optional["_PerturbScratch"],
    ) -> Tuple[int, int]:
        assert rng is not None and scratch is not None
        draws, spurious = scratch.draws, scratch.mask
        rng.random(out=draws)
        np.less(draws, self.p_false, out=spurious)
        np.logical_not(heard, out=scratch.mask2)
        spurious &= scratch.mask2
        heard[spurious] = True
        return 0, int(np.count_nonzero(spurious))


@dataclass(frozen=True)
class UnreliableChannel(ChannelModel):
    """Misses then false positives — ``lossy`` composed with ``noisy``.

    Two independent full-width uniform draws (``heard.size`` values
    each) per application, miss draw first; a position whose beep was
    just dropped can therefore be refilled by a spurious beep, exactly
    as chaining the two models would produce.
    """

    p_miss: float
    p_false: float
    name: ClassVar[str] = "unreliable"

    def __post_init__(self) -> None:
        _check_probability(self.p_miss, "p_miss")
        _check_probability(self.p_false, "p_false")

    def spec(self) -> str:
        return f"unreliable:{self.p_miss:g},{self.p_false:g}"

    def _perturb(
        self,
        heard: npt.NDArray[np.bool_],
        rng: Optional[np.random.Generator],
        scratch: Optional["_PerturbScratch"],
    ) -> Tuple[int, int]:
        assert rng is not None and scratch is not None
        draws, mask, mask2 = scratch.draws, scratch.mask, scratch.mask2
        rng.random(out=draws)
        np.less(draws, self.p_miss, out=mask)
        mask &= heard
        heard[mask] = False
        dropped = int(np.count_nonzero(mask))
        rng.random(out=draws)
        np.less(draws, self.p_false, out=mask)
        np.logical_not(heard, out=mask2)
        mask &= mask2
        heard[mask] = True
        return dropped, int(np.count_nonzero(mask))


class _PerturbScratch:
    """One bound channel's reusable perturbation buffers.

    Bound lazily to the first ``heard`` shape :meth:`BoundChannel.apply`
    sees (and rebound if the shape ever changes — a service rebind that
    grew the id space), then refilled in place every round: the uniform
    draw vector plus two boolean mask slots, enough for the widest
    model (``unreliable``) without any per-round allocation.
    """

    __slots__ = ("draws", "mask", "mask2")

    def __init__(self, shape: Tuple[int, ...]):
        self.draws = np.empty(shape, dtype=np.float64)
        self.mask = np.empty(shape, dtype=np.bool_)
        self.mask2 = np.empty(shape, dtype=np.bool_)


class BoundChannel:
    """A channel spec plus the per-engine perturbation counters.

    One instance per engine (per replica, in the batched engine), so
    ``drops_total`` / ``spurious_total`` count that trajectory's
    lifetime perturbations.  ``last_drops`` / ``last_spurious`` cover
    the current round: the engine calls :meth:`start_round` once per
    round before the first :meth:`apply`, and the two-channel engine's
    second application *accumulates* into the same round counters.
    """

    __slots__ = (
        "model",
        "drops_total",
        "spurious_total",
        "last_drops",
        "last_spurious",
        "_scratch",
    )

    def __init__(self, model: ChannelModel):
        self.model = model
        self.drops_total = 0
        self.spurious_total = 0
        self.last_drops = 0
        self.last_spurious = 0
        self._scratch: Optional[_PerturbScratch] = None

    @property
    def is_perfect(self) -> bool:
        return self.model.trivial

    def start_round(self) -> None:
        self.last_drops = 0
        self.last_spurious = 0

    def apply(
        self,
        heard: npt.NDArray[np.bool_],
        rng: Optional[np.random.Generator],
    ) -> npt.NDArray[np.bool_]:
        """Perturb a hear mask **in place** (and return it).

        ``heard`` is the fresh output of a hear-kernel call (solo) or a
        reusable scratch row (batched) — never an aliased input — so
        in-place mutation is safe at every call site.
        """
        scratch = self._scratch
        if not self.model.trivial and (
            scratch is None or scratch.draws.shape != heard.shape
        ):
            scratch = _PerturbScratch(heard.shape)
            self._scratch = scratch
        dropped, spurious = self.model._perturb(heard, rng, scratch)
        self.last_drops += dropped
        self.last_spurious += spurious
        self.drops_total += dropped
        self.spurious_total += spurious
        return heard

    def __repr__(self) -> str:
        return (
            f"BoundChannel({self.model.spec()!r}, "
            f"drops={self.drops_total}, spurious={self.spurious_total})"
        )


# ----------------------------------------------------------------------
# Registry (mirrors the engine registry)
# ----------------------------------------------------------------------
ChannelLike = Union[str, ChannelModel, None]

_CHANNELS: Dict[str, Callable[[str], ChannelModel]] = {}


def register_channel(name: str, factory: Callable[[str], ChannelModel]) -> None:
    """Register a channel factory under ``name``.

    ``factory`` receives the text after ``name:`` in a spec string
    (empty when absent) and returns a :class:`ChannelModel`.
    """
    if name in _CHANNELS:
        raise ValueError(f"channel {name!r} is already registered")
    _CHANNELS[name] = factory


def unregister_channel(name: str) -> None:
    _CHANNELS.pop(name, None)


def available_channels() -> Tuple[str, ...]:
    return tuple(sorted(_CHANNELS))


def channel_from_spec(spec: str) -> ChannelModel:
    """Parse a ``--channel`` spec string (see :data:`CHANNEL_SPECS`)."""
    name, _, argtext = spec.partition(":")
    factory = _CHANNELS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown channel {name!r}; available: {', '.join(available_channels())}"
        )
    return factory(argtext)


def resolve_channel(channel: ChannelLike) -> ChannelModel:
    """Coerce ``None`` / spec string / model instance to a model."""
    if channel is None:
        return PerfectChannel()
    if isinstance(channel, ChannelModel):
        return channel
    if isinstance(channel, str):
        return channel_from_spec(channel)
    raise TypeError(
        f"channel must be a spec string or ChannelModel, got {type(channel).__name__}"
    )


def _perfect_factory(argtext: str) -> ChannelModel:
    if argtext:
        raise ValueError("perfect takes no parameters")
    return PerfectChannel()


def _lossy_factory(argtext: str) -> ChannelModel:
    return LossyChannel(_probability(argtext, "p_miss"))


def _noisy_factory(argtext: str) -> ChannelModel:
    return NoisyChannel(_probability(argtext, "p_false"))


def _unreliable_factory(argtext: str) -> ChannelModel:
    parts = argtext.split(",")
    if len(parts) != 2:
        raise ValueError("unreliable takes exactly two parameters: P_MISS,P_FALSE")
    return UnreliableChannel(
        _probability(parts[0], "p_miss"), _probability(parts[1], "p_false")
    )


register_channel("perfect", _perfect_factory)
register_channel("lossy", _lossy_factory)
register_channel("noisy", _noisy_factory)
register_channel("unreliable", _unreliable_factory)
