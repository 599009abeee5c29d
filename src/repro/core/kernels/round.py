"""The round kernel: the one implementation of an engine round.

The hear kernel (:mod:`repro.core.kernels.hear`) computes one
*operation* of the round — for a block, one replica-packed OR-gather
over the CSR pattern per ≤ 64 rows, Algorithm 2's two channels stacked
into one block; a :class:`RoundKernel` owns the *full* round
(beep decision → stress gate → hear → channel → level update, plus
legality/retirement in its run loop) for a ``(k, n)`` block of
replicas, over preallocated narrow level planes (below) with the
hear delegated to the engine's own
:class:`~repro.core.kernels.hear.HearKernel`.  Its three round bodies
(``_step_single``, ``_step_two``, ``_step_constant``) are the only
round arithmetic of the array engines, all with one signature: every
engine ``step()`` runs one of them on its own levels
(:meth:`RoundKernel.step`), and every solo run and every batched run
without a collector — stressed and observed runs included — runs them
in the one fused loop :meth:`RoundKernel.run_block`, where per-round
dispatch overhead, not arithmetic, is what the fused loop removes.

Algorithm tags and their bands
------------------------------
A kernel is bound to one tag of :data:`ROUND_ALGORITHMS` and an ℓmax
vector; :func:`level_floor` maps both to the floor.  Algorithm 1 lives
in [−ℓmax, ℓmax], Algorithm 2 in [0, ℓmax].  The two-state baseline
(``"constant_state"``) holds 0/1 with IN = 1 as the floor and OUT = 0
as ℓmax, so its legality *is* the Section-3 pass below: ``I_t`` is IN
with no IN neighbour, and a legal row (every OUT vertex dominated by
``I_t``) has the MIS ``I_t`` = IN.  A level's range is ``[min(floor,
ℓmax), max(floor, ℓmax)]``.

Section-3 structure
-------------------
:func:`structure_pass` (``I_t``, ``N(I_t)``, legality) and its pruned
retirement form :func:`pruned_legality` are the only legality
predicates: the engines' mask/legality queries, the fused retirement
and both collectors call them, on every tag.  A solo collector is
observed inside :meth:`RoundKernel.run_block`.  Their local
counterpart is :func:`active_of` (below, "Frontier rounds"): frontier
rounds and :meth:`~repro.core.engines.EngineBase.settled` decide
legality on a vertex subset through it.

Stress models
-------------
Under a non-perfect channel or non-synchronous scheduler the engines
pass their live rows' ``StressState`` objects (``docs/robustness.md``).
Per row and round the body calls, in order: ``begin_round``,
``active_mask(round_index)`` and ``transmit`` after the beep decision;
``apply_channel`` on heard1, then on heard2, after the hear; and holds
delayed vertices at their pre-round level after the update.  The
methods are called, not inlined: each ``StressState`` stays the one
owner of its streams, counters and stale-beep carriers, and a tracer
wrapping them still sees every call.

Narrow level planes
-------------------
Levels live in [−ℓmax, ℓmax] with ℓmax = O(log n), and a round's
integer intermediates stay within ±2ℓmax (the blend's ``up − down``),
so :meth:`RoundKernel.rebind` picks the plane dtype once from the
policy: int8 while every |ℓmax| ≤ :data:`NARROW_ELL_MAX` = 63, int32
otherwise.  :meth:`RoundKernel.run_block` copies the caller's int32
block into its work block once at entry (range-checked, so a bad level
raises instead of wrapping) and writes int32 back at exit; outcomes
carry fresh int32 rows.  :meth:`RoundKernel.step` reads the engine's
int32 state and computes into the narrow scratch (a same-kind cast on
store).  The beep decision needs no table: ``np.ldexp(1.0, −ℓ)`` is
exactly 2^−ℓ (bit-identical to ``np.power``), ≥ 1 > u for ℓ ≤ 0, and
ℓmax is masked out (Algorithm 1 by ``ℓ < ℓmax``, Algorithm 2 by its
``(0, ℓmax)`` band).

Byte-identity contract
----------------------
The random draw layout is one ``Generator.random(out=)`` fill of ``n``
doubles per live replica per round (:class:`PerRoundDraws`, the one
draw source), so every generator stops exactly where its last consumed
draw ended; beep probabilities are exact powers of two (``np.ldexp``),
hear masks equal ``(A @ beeps) > 0`` exactly (the block
path ORs over the all-ones CSR pattern, so it counts nothing and cannot
overflow), and the level update is an exact integer blend.  A fused run
therefore equals the same engine's ``step()`` loop bit for bit —
per-row ``rounds``/``mis``/``final_levels``, every generator position
and every channel counter — which the fused-kernel identity tests and
the differential suite assert, the latter against hand-rolled oracles
that share no code with this module.

Live-prefix compaction
----------------------
A step loop shrinks work as replicas retire by gathering the active
rows every round (``levels[active_idx]`` + scatter-back).  The fused
loop gets the same shrinking work with **zero per-round cost**: rows
``[0, live)`` of the block are always the live replicas, and retiring
row ``i`` *moves* the last live row into slot ``i`` (one row copy, once
per retirement; its draw stream and stress state move with it) — a
permutation recorded so outcomes land on the right replica.  Every
per-round pass (draws, beeps, hear, blend, prune) then runs on a dense
live prefix with no index materialization.  A retired replica's
generator freezes at its retirement position exactly like the step
loop's (its draw stream is simply dropped from the draw set), and the
caller's level block is rebuilt row for row from the recorded
retirement copies on exit, so the in-place result is identical to the
engines'.

Frontier rounds
---------------
A one-row block with no stress state and no observer (every served op,
every ideal solo run) tests legality through its **active set** ``A``:
every vertex except (a) a floor vertex whose neighbours all sit at
ℓmax and (b) an ℓmax vertex with a floor neighbour.  Levels ≤ 0 beep
with certainty (channel 1 in Algorithm 1, channel 2 in Algorithm 2)
and ℓmax never beeps, so the next level of (a) and (b) ignores the
draws and equals the current one, in both algorithms.  ``A = ∅`` iff
:func:`structure_pass` finds the row legal ((a) is ``I_t``, and the
floor neighbour of (b) cannot itself be (b)), and the MIS is then the
floor set.  While ``A`` is small a round runs on ``A`` alone
(``_Frontier``): one ``draws.serve()`` fill of ``n`` doubles, so
every stream position is unchanged; ``A``'s beep, hear and update as
scalar loops over the CSR row slices; the next ``A`` re-tested
(:func:`active_of`) on ``A`` plus the neighbours of vertices that moved
onto or off the floor or ℓmax.  When ``A`` reaches
:data:`FRONTIER_LIMIT` the run continues on the dense bodies, and a
dense round seeds ``A`` again (one hear) only while fewer than
:data:`FRONTIER_LIMIT` levels sit strictly inside (floor, ℓmax).  Both
paths consume one fill per round and produce identical levels, so the
switch is exact at any round boundary; ``tests/test_frontier_rounds.py``
compares them field for field.  Blocks of k ≥ 2, stressed and observed
runs, and the two-state tag (its ℓmax role of 0 admits no ``2^−ℓ``
table) stay dense.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, FrozenSet, Iterable, List, Optional, Sequence, Tuple,
)

import numpy as np
import numpy.typing as npt

from .hear import HearKernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...obs.collectors import RunCollector
    from ..engines.base import StressState

__all__ = [
    "BlockOutcome",
    "active_of",
    "MAX_EXPONENT",
    "RoundKernel",
    "PerRoundDraws",
    "level_floor",
    "level_range",
    "pruned_legality",
    "structure_pass",
]

#: Accepted algorithm tags (the engines' vocabulary).
ROUND_ALGORITHMS = ("single", "two_channel", "constant_state")

#: Each tag's round body; all three share one signature.  Bound per
#: call, not stored bound: a kernel holding its own bound method would
#: sit in a reference cycle and outlive its engine until a GC pass.
_BODIES = {
    "single": "_step_single",
    "two_channel": "_step_two",
    "constant_state": "_step_constant",
}

#: Largest ℓmax with a ``2^−ℓ`` table for frontier rounds (and the
#: exponent clip of the test oracles): ℓmax = O(log n) ≤ 60 at any
#: simulable scale.
MAX_EXPONENT = 1023

#: The largest |ℓmax| an int8 level plane holds: a round's intermediates
#: reach ``up = ℓmax + 1`` and the blend's ``±2ℓmax``, and 2·63 ≤ 127.
NARROW_ELL_MAX = 63

#: Frontier rounds run while the active set has fewer vertices than
#: this, and a dense round seeds the set only while fewer levels than
#: this sit strictly inside (floor, ℓmax); 0 disables both.  Set from
#: the measured crossover against a dense round at n = 4,096
#: (``docs/performance.md``, "Frontier rounds").
FRONTIER_LIMIT = 48

#: The live rows' stress states, or ``None`` on the perfect channel
#: with the synchronous scheduler (nothing to call, nothing drawn).
StressRows = Optional[List["StressState"]]

BoolBlock = npt.NDArray[np.bool_]
LevelBlock = npt.NDArray[np.integer[Any]]  # int8, int32 or int64 levels
#: ``(legal, rows, in_mis)``: see :func:`pruned_legality`.
Verdict = Tuple[BoolBlock, Any, Any]


def level_floor(
    algorithm: str, ell_max: npt.NDArray[np.int64]
) -> npt.NDArray[np.int64]:
    """The floor of a tag's band: ``−ℓmax`` (Algorithm 1), 0 (Algorithm 2)
    or 1 = IN (two-state, whose ℓmax role is 0 = OUT)."""
    if algorithm == "single":
        return -ell_max
    if algorithm == "two_channel":
        return np.zeros_like(ell_max)
    return np.ones_like(ell_max)


def level_range(
    algorithm: str, floor: LevelBlock, ell_max: LevelBlock
) -> Tuple[LevelBlock, LevelBlock]:
    """``(low, high)`` of a tag's band, the given arrays uncopied: the
    two-state floor (IN = 1) sits above its ℓmax role (OUT = 0)."""
    return (ell_max, floor) if algorithm == "constant_state" else (floor, ell_max)


def _fresh(shape: Tuple[int, ...], count: int) -> Tuple[BoolBlock, ...]:
    return tuple(np.empty(shape, dtype=bool) for _ in range(count))


def _plane_dtype(ell_max: npt.NDArray[np.int64]) -> Any:
    """int8 when every intermediate of a round fits, int32 otherwise."""
    top = int(np.abs(ell_max).max()) if ell_max.size else 0
    if top > NARROW_ELL_MAX:
        return np.int32
    narrow = np.int8  # repro: allow[RPR302]
    # The blend's ±2ℓmax (and ``up = ℓmax + 1``) must fit the plane.
    assert 2 * top < np.iinfo(narrow).max
    return narrow


def _widen(row: npt.NDArray[np.integer[Any]]) -> npt.NDArray[np.int32]:
    """A fresh int32 copy of a level row, cast on store."""
    out = np.empty(row.shape[0], dtype=np.int32)
    np.copyto(out, row)
    return out


# ----------------------------------------------------------------------
# The Section-3 structure (paper Section 3), written once.
# ----------------------------------------------------------------------
def structure_pass(
    hear: HearKernel,
    levels: LevelBlock,
    floor: npt.ArrayLike,
    ell_max: npt.ArrayLike,
    out: Optional[Tuple[BoolBlock, ...]] = None,
) -> Tuple[BoolBlock, BoolBlock, BoolBlock]:
    """``(in_mis, dominated, legal)`` of a ``(k, n)`` level block.

    ``in_mis`` is ``I_t`` (floor vertices hearing no neighbour below
    ℓmax), ``dominated`` is ``N(I_t)``, and ``legal[r]`` holds iff
    every vertex of row ``r`` is in ``I_t`` or dominated at ℓmax.
    ``out`` supplies three C-contiguous ``(k, n)`` bool buffers
    (``in_mis``, ``dominated``, work); ``legal`` is always fresh.
    """
    in_mis, dominated, work = out or _fresh(levels.shape, 3)
    np.not_equal(levels, ell_max, out=work)
    hear.hear_rows(work, in_mis)  # blocked: a neighbour below ℓmax
    np.logical_not(in_mis, out=in_mis)
    np.equal(levels, floor, out=work)
    np.logical_and(in_mis, work, out=in_mis)
    hear.hear_rows(in_mis, dominated)
    np.equal(levels, ell_max, out=work)
    np.logical_and(work, dominated, out=work)
    np.logical_or(work, in_mis, out=work)
    return in_mis, dominated, work.all(axis=1)


def pruned_legality(
    hear: HearKernel,
    levels: LevelBlock,
    floor: npt.ArrayLike,
    ell_max: npt.ArrayLike,
    scratch: Optional[Tuple[BoolBlock, ...]] = None,
) -> Verdict:
    """``(legal, rows, in_mis)`` of a ``(k, n)`` block, hearing few rows.

    A legal row holds only floor/ℓmax levels, so only such candidate
    ``rows`` get :func:`structure_pass`; ``in_mis`` holds their ``I_t``
    (both ``None`` without candidates).  ``scratch`` supplies two
    ``(k, n)`` bool buffers and the ``(k,)`` ``legal`` vector.
    """
    k = levels.shape[0]
    eq, other, legal = scratch or _fresh(levels.shape, 2) + _fresh((k,), 1)
    np.equal(levels, floor, out=eq)
    np.equal(levels, ell_max, out=other)
    np.logical_or(eq, other, out=eq)
    np.all(eq, axis=1, out=legal)
    if not legal.any():
        return legal, None, None
    # Candidates are rare (at/after convergence): a data-dependent gather.
    rows = np.flatnonzero(legal)
    block = levels if rows.size == k else levels[rows]
    in_mis, _, verdict = structure_pass(hear, block, floor, ell_max)
    legal[rows] = verdict
    return legal, rows, in_mis


@dataclass
class BlockOutcome:
    """Per-replica outcome of a fused block run.

    ``final_levels`` is a fresh int32 copy taken at the replica's
    retirement round.  Engines convert at their own dtype boundary.
    """

    stabilized: bool
    rounds: int
    mis: FrozenSet[int] = field(default_factory=frozenset)
    final_levels: Optional[np.ndarray] = None


# ----------------------------------------------------------------------
# Draw sources: the RNG-stream adapters between engines and kernels.
# ----------------------------------------------------------------------
class PerRoundDraws:
    """Serve one ``(k, n)`` round of uniforms with zero run-ahead.

    One ``Generator.random(out=row)`` per live replica per round into
    the caller's ``(k, n)`` float64 buffer — the draw layout of every
    engine round, leaving each generator parked at its consumption
    position when the run returns.  Callers like the fault-recovery
    measurement reuse ``engine.rng`` *between* runs, so no generator
    may run ahead of its trajectory.
    """

    __slots__ = ("_fns", "_buf", "_rows", "_nlive")

    def __init__(
        self, rngs: Sequence[np.random.Generator], buf: npt.NDArray[np.float64]
    ):
        self._fns = [rng.random for rng in rngs]
        self._buf = buf
        # Row views bound once: serving a round makes no array objects.
        self._rows = list(buf[: len(self._fns)])
        self._nlive = len(self._fns)

    def serve(self) -> npt.NDArray[np.float64]:
        fns = self._fns
        rows = self._rows
        for i in range(self._nlive):
            fns[i](out=rows[i])
        return self._buf

    def retire(self, row: int) -> None:
        """Compaction support: the last live stream takes over ``row``.

        The retired replica's generator freezes right here.
        """
        self._nlive -= 1
        self._fns[row] = self._fns[self._nlive]


# ----------------------------------------------------------------------
# The round bodies, the one-round entry point, and the fused run loop.
# ----------------------------------------------------------------------
class RoundKernel:
    """Whole-round execution for a ``(k, n)`` replica block.

    One instance is bound to an engine's hear kernel (and through it to
    the graph structure), an algorithm tag, an ℓmax vector (the policy's,
    or 0 for the two-state tag), and a replica count.  Engines build it
    on their first round, run their ``step()`` through :meth:`step` and
    their run loop through :meth:`run_block`, and re-target it with
    :meth:`rebind` when their topology changes (see
    ``docs/performance.md``, "Fused round kernel").
    """

    def __init__(
        self,
        hear: HearKernel,
        *,
        algorithm: str,
        ell_max: npt.ArrayLike,
        replicas: int = 1,
    ):
        if algorithm not in ROUND_ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; choose one of {ROUND_ALGORITHMS}"
            )
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.algorithm = algorithm
        self.replicas = replicas
        self._single = algorithm == "single"
        self._two = algorithm == "two_channel"
        self.n = -1
        self.ell_max: Optional[npt.NDArray[np.int64]] = None
        #: The level planes' dtype (:func:`_plane_dtype`).
        self.plane_dtype: Any = np.int32
        #: ``2^−ℓ`` by level for frontier rounds; ``None`` when the
        #: policy admits none (no per-vertex ℓmax in ``[1, MAX_EXPONENT]``).
        self._pow2: Optional[List[float]] = None
        self.rebind(hear, ell_max)

    def rebind(self, hear: HearKernel, ell_max: npt.ArrayLike) -> None:
        """Re-target the kernel at the engine's rebound hear kernel.

        The policy vectors and the plane dtype are rebuilt when
        ``ell_max`` is a new array (engines hand back the same read-only
        array while the policy holds); the per-round scratch is
        reallocated only when the vertex count or the plane dtype
        changed, so a fixed-``n`` topology delta under the same policy
        costs no allocation at all.
        """
        self._hear = hear
        self.structure = hear.structure
        n = hear.structure.n
        ell = np.asarray(ell_max, dtype=np.int64)
        if ell.shape not in ((), (n,)):
            raise ValueError(f"ell_max must be scalar or shape ({n},)")
        dtype = self.plane_dtype
        if ell is not self.ell_max:
            self.ell_max = ell
            dtype = _plane_dtype(ell)
            self._top = ell.astype(dtype)
            self._floor = level_floor(self.algorithm, ell).astype(dtype)
            self._low, self._high = level_range(self.algorithm, self._floor, self._top)
            self._neg_top = -self._top
            self._pow2 = self._build_pow2()
        if n == self.n and dtype == self.plane_dtype:
            return
        self.n = n
        self.plane_dtype = dtype
        k = self.replicas
        # ---- per-round scratch, bound once (hot-path contract) -------
        self._p_buf = np.empty((k, n), dtype=np.float64)
        self._beeps = np.empty((k, n), dtype=bool)
        self._mask_a = np.empty((k, n), dtype=bool)
        self._mask_b = np.empty((k, n), dtype=bool)
        hear_rows = 2 * k if self._two else k
        self._heard = np.empty((hear_rows, n), dtype=bool)
        self._stack = (
            np.empty((2 * k, n), dtype=bool) if self._two else None
        )
        # The narrow level planes: ``run_block``'s work block, the
        # blend's target, ``up`` and the ``−ℓ``/``sel`` scratch.
        self._work = np.empty((k, n), dtype=dtype)
        self._plane = np.empty((k, n), dtype=dtype)
        self._up = np.empty((k, n), dtype=dtype)
        self._sel = np.empty((k, n), dtype=dtype)
        self._cand = np.empty(k, dtype=bool)
        self._rows = np.arange(k)

    def _build_pow2(self) -> Optional[List[float]]:
        """``[2^−0, …, 2^−max ℓmax]`` for frontier rounds, or ``None``.

        Every entry is an exact power of two, equal to the dense round's
        ``np.ldexp(1.0, −ℓ)``, so a scalar ``u < p`` decides every beep
        exactly as the dense round.  Frontier rounds need a per-vertex
        ℓmax vector in ``[1, MAX_EXPONENT]`` (ℓmax ≥ 1 keeps the floor
        and ℓmax apart).
        """
        ell = self.ell_max
        if ell is None or ell.ndim != 1:
            return None
        hi = int(ell.max()) if ell.size else 1
        if ell.size and (int(ell.min()) < 1 or hi > MAX_EXPONENT):
            return None
        exponent = np.arange(hi + 1, dtype=np.float64)
        return np.power(2.0, -exponent).tolist()  # type: ignore[no-any-return]

    # ------------------------------------------------------------------
    # One round (the engines' step())
    # ------------------------------------------------------------------
    def step(
        self,
        state: npt.NDArray[np.generic],
        draws: npt.NDArray[np.float64],
        stress: StressRows = None,
        round_index: int = 0,
    ) -> npt.NDArray[np.bool_]:
        """One round on a ``(k, n)`` block, updating ``state`` in place.

        ``state`` is int32 levels, computed into the narrow planes and
        stored back; ``draws`` the round's ``(k, n)`` uniforms,
        ``stress`` the rows' stress states and ``round_index`` the
        scheduler's round.  Returns the emitted beeps as a view of the
        kernel's scratch, valid until the next round: ``(k, n)``, or
        ``(2k, n)`` for Algorithm 2 with channel 2 in rows ``k:``.
        """
        k = state.shape[0]
        nxt = self._plane[:k]
        getattr(self, _BODIES[self.algorithm])(state, nxt, draws, stress, round_index)
        np.copyto(state, nxt)
        return self._stack[: 2 * k] if self._two else self._beeps[:k]

    # ------------------------------------------------------------------
    # The fused run loop
    # ------------------------------------------------------------------
    def run_block(
        self,
        levels: npt.NDArray[np.int32],
        draws: "PerRoundDraws",
        max_rounds: int,
        check_every: int = 1,
        stress: StressRows = None,
        round_index: int = 0,
        observer: Optional["RunCollector"] = None,
    ) -> Tuple[List[BlockOutcome], int]:
        """Drive a ``(k, n)`` int32 level block to per-row legality.

        Mirrors a hand-driven ``step()`` loop exactly: legality is
        observed before stepping at rounds ``0, check_every,
        2·check_every, …`` plus once at budget exhaustion, so each
        row's ``rounds`` equals the step loop's.  The rounds run on the
        kernel's narrow work block, loaded once at entry (a level
        outside the tag's range raises ``ValueError``).  Rows are
        compacted as replicas retire (see the module docstring), and
        ``levels`` is rebuilt in place from the per-replica int32
        retirement copies on exit.  ``stress`` holds each row's stress
        state (``None`` when ideal) and ``round_index`` the scheduler
        round of the first step.  ``observer`` (a solo ``RunCollector``, ``k == 1``) gets
        every round's :func:`structure_pass`, which also serves the
        retirement, and the emitted beeps.  An ideal, unobserved
        one-row block tests legality through its active set and runs
        frontier rounds while that set is small (module docstring).
        Returns ``(outcomes, steps_executed)``.
        """
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        k = levels.shape[0]
        if observer is not None and k != 1:
            raise ValueError("an observer watches a solo (1, n) block")
        cur = self._work[:k]
        self._load(levels, cur)
        outcomes: List[Optional[BlockOutcome]] = [None] * k
        perm = list(range(k))
        # Stress states move with their rows on retirement, like perm.
        stress = None if stress is None else list(stress)
        live = k
        nxt = self._plane[:k]
        executed = 0
        step = getattr(self, _BODIES[self.algorithm])
        front: Optional[_Frontier] = None
        if (
            k == 1 and stress is None and observer is None
            and self._pow2 is not None and FRONTIER_LIMIT > 0
        ):
            front = _Frontier(self, FRONTIER_LIMIT)
        # The active set while frontier rounds run, else ``None``.
        active: Optional[List[int]] = None
        while True:
            should_check = executed % check_every == 0 or executed >= max_rounds
            if front is not None:
                if active is None:
                    active = front.seed(cur[0])
                # Legal ⇔ A = ∅.  No A means A, or the levels strictly
                # inside (floor, ℓmax), reached the limit: not legal.
                if should_check and active == []:
                    outcomes[0] = front.outcome(cur[0], executed)
                    break
            verdict: Optional[Verdict] = None
            if observer is not None:
                rows = cur[:1]
                in_mis, dominated, legal = structure_pass(
                    self._hear, rows, self._floor, self._top,
                    out=(self._mask_a[:1], self._mask_b[:1], self._heard[:1]),
                )
                observer.observe_masks(rows[0], in_mis[0], dominated[0], bool(legal[0]))
                verdict = (legal, self._rows[:1], in_mis)
            if should_check and front is None:
                live = self._retire_legal(
                    cur, live, perm, outcomes, executed, draws, stress, verdict
                )
                if live == 0:
                    break
            if executed >= max_rounds:
                # Budget exhausted: record the still-live prefix as-is.
                for i in range(live):
                    outcomes[perm[i]] = BlockOutcome(
                        stabilized=False,
                        rounds=executed,
                        mis=frozenset(),
                        final_levels=_widen(cur[i]),
                    )
                break
            if active is not None:
                active = front.step(draws.serve(), active)  # type: ignore[union-attr]
                executed += 1
                continue
            step(
                cur[:live], nxt[:live], draws.serve()[:live], stress,
                round_index + executed,
            )
            if observer is not None:
                observer.observe_beeps(tuple(self._stack[:2]) if self._two else self._beeps[0])
            cur, nxt = nxt, cur
            executed += 1
        # Compaction permuted the block rows (and the run ended on a
        # narrow plane); every replica's ground truth is its recorded
        # int32 copy.  One pass, once per run.
        for r in range(k):
            np.copyto(levels[r], outcomes[r].final_levels)
        return outcomes, executed  # type: ignore[return-value]

    def _load(
        self, levels: npt.NDArray[np.int32], work: LevelBlock
    ) -> None:
        """Copy ``levels`` into the narrow ``work`` block, range-checked."""
        k = levels.shape[0]
        low = self._mask_a[:k]
        high = self._mask_b[:k]
        np.less(levels, self._low, out=low)
        np.greater(levels, self._high, out=high)
        if low.any() or high.any():
            raise ValueError("levels outside the admissible range")
        np.copyto(work, levels, casting="same_kind")

    # ------------------------------------------------------------------
    # Legality + retirement
    # ------------------------------------------------------------------
    def _retire_legal(
        self,
        cur: LevelBlock,
        live: int,
        perm: List[int],
        outcomes: List[Optional[BlockOutcome]],
        executed: int,
        draws: "PerRoundDraws",
        stress: StressRows,
        verdict: Optional[Verdict] = None,
    ) -> int:
        """Test-and-retire legal rows; returns the new live count.

        ``verdict`` is this round's :func:`pruned_legality` shape when
        an observer's full pass already holds it; otherwise the pruned
        pass runs here.  Retirement compacts the live prefix: the last
        live row *moves* into the retired slot (levels row, draw
        stream, stress state and permutation entry), so every
        per-round pass keeps operating on dense rows ``[0, live)``.
        Rows are processed in descending order so each move sources a
        still-live tail row.
        """
        if verdict is None:
            verdict = pruned_legality(
                self._hear, cur[:live], self._floor, self._top,
                (self._mask_a[:live], self._mask_b[:live], self._cand[:live]),
            )
        legal, idx, in_mis = verdict
        if idx is None or not legal.any():
            return live
        for jj in np.flatnonzero(legal[idx])[::-1].tolist():
            j = int(idx[jj])
            outcomes[perm[j]] = BlockOutcome(
                stabilized=True,
                rounds=executed,
                mis=frozenset(np.flatnonzero(in_mis[jj]).tolist()),
                final_levels=_widen(cur[j]),
            )
            last = live - 1
            if j != last:
                np.copyto(cur[j], cur[last])
                perm[j] = perm[last]
                if stress is not None:
                    stress[j] = stress[last]
            draws.retire(j)
            live = last
        return live

    # ------------------------------------------------------------------
    # Round bodies
    # ------------------------------------------------------------------
    def _beep_below(
        self,
        cur: LevelBlock,
        draws: npt.NDArray[np.float64],
        out: npt.NDArray[np.bool_],
    ) -> None:
        """``out = draws < 2^−cur``: the Figure-1 activation below ℓmax.

        ``np.ldexp(1.0, −ℓ)`` is exactly 2^−ℓ, and at ℓ ≤ 0 it is ≥ 1 >
        u, so the vertex always beeps; the caller masks out ℓmax, which
        never beeps on channel 1.  ``−ℓ`` goes through the ``sel``
        scratch, which the update overwrites only after the hear.
        """
        k = cur.shape[0]
        neg = self._sel[:k]
        np.negative(cur, out=neg)
        p = self._p_buf[:k]
        np.ldexp(1.0, neg, out=p)
        np.less(draws, p, out=out)

    def _step_single(
        self,
        cur: LevelBlock,
        nxt: LevelBlock,
        draws: npt.NDArray[np.float64],
        stress: StressRows,
        round_index: int,
    ) -> None:
        """One Algorithm-1 round, writing the new levels into ``nxt``.

        ``draws < 2^−ℓ`` below ℓmax decides the beeps, the hear booleans
        pick the branch, and the branch-free integer blend ``x + (y −
        x)·mask`` computes ``where(heard, up, where(beeps, −ℓmax,
        down))`` exactly.  Unlike a masked ``copyto`` its cost does not
        blow up at the ~30–50 % beep densities this algorithm lives at.
        """
        k = cur.shape[0]
        up = self._up[:k]
        np.add(cur, 1, out=up)
        np.minimum(up, self._top, out=up)
        beeps = self._beeps[:k]
        self._beep_below(cur, draws, beeps)
        below = self._mask_a[:k]
        np.less(cur, self._top, out=below)
        np.logical_and(beeps, below, out=beeps)
        masks = _gate(stress, round_index, beeps)
        heard = self._hear.hear_rows(beeps, self._heard[:k])
        _perturb(stress, heard)
        np.subtract(cur, 1, out=nxt)
        np.maximum(nxt, 1, out=nxt)
        sel = self._sel[:k]
        np.subtract(self._neg_top, nxt, out=sel)
        np.multiply(sel, beeps, out=sel)
        np.add(nxt, sel, out=nxt)
        np.subtract(up, nxt, out=sel)
        np.multiply(sel, heard, out=sel)
        np.add(nxt, sel, out=nxt)
        _hold(masks, nxt, cur)

    def _step_two(
        self,
        cur: LevelBlock,
        nxt: LevelBlock,
        draws: npt.NDArray[np.float64],
        stress: StressRows,
        round_index: int,
    ) -> None:
        """One Algorithm-2 round, writing the new levels into ``nxt``.

        Both channels' beeps are stacked into one hear call, and the
        priority order ``heard2 > heard1 > beep1 > ~beep2`` is applied
        in reverse as branch-free integer blends (``np.copyto(...,
        where=)`` takes a buffered scalar path that costs several times
        more per pass for the identical integers).
        """
        k = cur.shape[0]
        up = self._up[:k]
        np.add(cur, 1, out=up)
        np.minimum(up, self._top, out=up)
        band = self._mask_a[:k]
        hi = self._mask_b[:k]
        np.greater(cur, 0, out=band)
        np.less(cur, self._top, out=hi)
        np.logical_and(band, hi, out=band)
        stacked = self._stack[: 2 * k]
        beep1 = stacked[:k]
        self._beep_below(cur, draws, beep1)
        np.logical_and(beep1, band, out=beep1)
        beep2 = stacked[k:]
        np.equal(cur, 0, out=beep2)
        masks = _gate(stress, round_index, beep1, beep2)
        heard = self._hear.hear_rows(stacked, self._heard[: 2 * k])
        heard1 = heard[:k]
        heard2 = heard[k:]
        _perturb(stress, heard1, heard2)
        np.subtract(cur, 1, out=nxt)
        np.maximum(nxt, 1, out=nxt)
        not_beep2 = self._mask_b[:k]
        np.logical_not(beep2, out=not_beep2)
        # A firing vertex's ``beep2`` is exactly ``cur == 0`` (a delayed
        # one is held below), so keeping level 0 there and taking
        # ``down`` elsewhere is one masked product.
        np.multiply(nxt, not_beep2, out=nxt)
        sel = self._sel[:k]
        np.multiply(nxt, beep1, out=sel)
        np.subtract(nxt, sel, out=nxt)
        np.subtract(up, nxt, out=sel)
        np.multiply(sel, heard1, out=sel)
        np.add(nxt, sel, out=nxt)
        np.subtract(self._top, nxt, out=sel)
        np.multiply(sel, heard2, out=sel)
        np.add(nxt, sel, out=nxt)
        _hold(masks, nxt, cur)

    def _step_constant(
        self,
        cur: LevelBlock,
        nxt: LevelBlock,
        draws: npt.NDArray[np.float64],
        stress: StressRows,
        round_index: int,
    ) -> None:
        """One two-state round (1 = IN), writing the new state into ``nxt``.

        IN beeps; on a heads coin (``u < 1/2``) an IN vertex that heard
        a neighbour retreats and an OUT vertex that heard nothing
        rejoins.  Both are one flip: ``coin & (cur == heard)``.
        """
        k = cur.shape[0]
        beeps = self._beeps[:k]
        np.not_equal(cur, 0, out=beeps)
        masks = _gate(stress, round_index, beeps)
        heard = self._hear.hear_rows(beeps, self._heard[:k])
        _perturb(stress, heard)
        coin = self._mask_a[:k]
        np.less(draws, 0.5, out=coin)
        flip = self._mask_b[:k]
        np.equal(cur, heard, out=flip)
        np.logical_and(flip, coin, out=flip)
        np.bitwise_xor(cur, flip, out=nxt)
        _hold(masks, nxt, cur)


# ----------------------------------------------------------------------
# Frontier rounds: an ideal solo row stepped on its active set alone.
# ----------------------------------------------------------------------
def active_of(
    vertices: Iterable[int],
    levels: Sequence[int],
    floor: Sequence[int],
    top: Sequence[int],
    indptr: Sequence[int],
    indices: Sequence[int],
) -> List[int]:
    """The active vertices among ``vertices``, in their order.

    The one scalar definition of "active" (module docstring, "Frontier
    rounds"): every vertex except a floor vertex whose neighbours all
    sit at ℓmax and an ℓmax vertex with a floor neighbour.  It reads
    only ``vertices``' own levels and CSR rows, so its cost is
    ``Σ deg(vertices)``.  The sequences are indexed per vertex
    (memoryviews of the level row, the floor and ℓmax vectors and the
    CSR arrays, or plain lists).
    """
    out = []
    for v in vertices:
        lv = levels[v]
        if lv == floor[v]:  # active unless every neighbour is at ℓmax
            for w in indices[indptr[v]:indptr[v + 1]]:
                if levels[w] != top[w]:
                    out.append(v)
                    break
        elif lv == top[v]:  # active unless a neighbour is at the floor
            for w in indices[indptr[v]:indptr[v + 1]]:
                if levels[w] == floor[w]:
                    break
            else:
                out.append(v)
        else:
            out.append(v)
    return out


class _Frontier:
    """Frontier rounds of one ideal, unobserved ``(1, n)`` run.

    Scalar loops over memoryviews of the level row, the draw row, the
    policy vectors and the structure's own CSR arrays (no copies): a
    handful of vertices costs a few microseconds in plain Python, where
    numpy's per-call overhead on tiny arrays would cost as much as a
    dense round.  The active set ``A`` is every vertex except a floor
    vertex whose neighbours all sit at ℓmax and an ℓmax vertex with a
    floor neighbour (module docstring).
    """

    __slots__ = (
        "_kernel", "_limit", "_single", "_indptr", "_indices",
        "_floor", "_top", "_pow2", "_levels", "_draws",
    )

    def __init__(self, kernel: RoundKernel, limit: int):
        csr = kernel.structure.csr
        self._kernel = kernel
        self._limit = limit
        self._single = kernel._single
        self._indptr = memoryview(csr.indptr)
        self._indices = memoryview(csr.indices)
        self._floor = memoryview(kernel._floor)
        self._top = memoryview(kernel._top)
        self._pow2 = kernel._pow2
        self._levels: Any = None
        self._draws: Any = None

    def seed(self, row: LevelBlock) -> Optional[List[int]]:
        """``A`` of ``row`` by a full scan, or ``None`` when it is large.

        Counts the levels strictly inside (floor, ℓmax) first; only when
        they are few does it pay one hear (a floor neighbour) and the
        scalar pass over their neighbourhoods.
        """
        kern = self._kernel
        at_floor = kern._mask_a[0]
        at_top = kern._mask_b[0]
        work = kern._beeps[0]
        np.equal(row, kern._floor, out=at_floor)
        np.equal(row, kern._top, out=at_top)
        np.logical_or(at_floor, at_top, out=work)
        if row.size - np.count_nonzero(work) >= self._limit:
            return None
        heard = kern._hear.hear_rows(kern._mask_a[:1], kern._heard[:1])[0]
        # Settled so far: ℓmax beside the floor, or floor beside no floor.
        np.logical_and(at_top, heard, out=at_top)
        np.greater(at_floor, heard, out=at_floor)
        np.logical_or(at_floor, at_top, out=work)
        np.logical_not(work, out=work)
        active = np.flatnonzero(work).tolist()
        if len(active) >= self._limit:
            return None
        # A floor vertex beside a level inside (floor, ℓmax) is active
        # too: the hear above only saw its floor neighbours.
        self._levels = levels = memoryview(row)
        floor, top, indptr, indices = self._floor, self._top, self._indptr, self._indices
        extra = set()
        for v in active:
            lv = levels[v]
            if lv != floor[v] and lv != top[v]:
                for w in indices[indptr[v]:indptr[v + 1]]:
                    if levels[w] == floor[w]:
                        extra.add(w)
        if extra:
            extra.update(active)
            active = list(extra)
        return active if len(active) < self._limit else None

    def step(
        self, draws: npt.NDArray[np.float64], active: List[int]
    ) -> Optional[List[int]]:
        """One round on ``active``; the next ``A``, or ``None`` when large.

        ``draws`` is the round's ``(1, n)`` fill, already served: every
        vertex's uniform is drawn as in a dense round, only ``A`` reads
        them.  The next levels are decided from the current ones before
        any is written, as in the dense blend.
        """
        u = self._draws
        if u is None:
            u = self._draws = memoryview(draws[0])
        levels, floor, top, pw = self._levels, self._floor, self._top, self._pow2
        indptr, indices = self._indptr, self._indices
        moves = []
        if self._single:
            for v in active:
                lv = levels[v]
                for w in indices[indptr[v]:indptr[v + 1]]:
                    lw = levels[w]
                    if lw <= 0 or (lw < top[w] and u[w] < pw[lw]):
                        nl = lv + 1 if lv < top[v] else top[v]
                        break
                else:
                    if lv <= 0 or (lv < top[v] and u[v] < pw[lv]):
                        nl = floor[v]
                    else:
                        nl = lv - 1 if lv > 1 else 1
                if nl != lv:
                    moves.append((v, nl))
        else:
            for v in active:
                lv = levels[v]
                heard1 = False
                for w in indices[indptr[v]:indptr[v + 1]]:
                    lw = levels[w]
                    if lw == 0:  # heard2 wins over everything
                        nl = top[v]
                        break
                    if not heard1 and 0 < lw < top[w] and u[w] < pw[lw]:
                        heard1 = True
                else:
                    if heard1:
                        nl = lv + 1 if lv < top[v] else top[v]
                    elif lv == 0 or (0 < lv < top[v] and u[v] < pw[lv]):
                        nl = 0
                    else:
                        nl = lv - 1 if lv > 1 else 1
                if nl != lv:
                    moves.append((v, nl))
        if not moves:
            return active
        # A settled vertex reads only whether each neighbour sits at the
        # floor or at ℓmax, so only a move onto or off those levels can
        # unsettle the mover's neighbours.
        candidates = set(active)
        for v, nl in moves:
            lv = levels[v]
            levels[v] = nl
            if (lv == floor[v]) != (nl == floor[v]) or (lv == top[v]) != (nl == top[v]):
                candidates.update(indices[indptr[v]:indptr[v + 1]])
        nxt = active_of(candidates, levels, floor, top, indptr, indices)
        return nxt if len(nxt) < self._limit else None

    def outcome(self, row: LevelBlock, rounds: int) -> BlockOutcome:
        """The legal row's outcome: its MIS is its floor set."""
        in_mis = self._kernel._mask_a[0]
        np.equal(row, self._kernel._floor, out=in_mis)
        return BlockOutcome(
            stabilized=True,
            rounds=rounds,
            mis=frozenset(np.flatnonzero(in_mis).tolist()),
            final_levels=_widen(row),
        )


# ----------------------------------------------------------------------
# Stress hooks: per-row calls into the engines' StressState objects.
# ----------------------------------------------------------------------
def _gate(
    stress: StressRows,
    round_index: int,
    *channels: npt.NDArray[np.bool_],
) -> Optional[List[Optional[npt.NDArray[np.bool_]]]]:
    """Begin each row's round and gate its fresh beeps by activity.

    Delayed vertices re-emit their stale carrier on every channel (in
    place).  Returns each row's firing mask (``None`` = all fire), or
    ``None`` when the run is ideal.  Rows pair with ``stress`` in order;
    entries past the block's rows (retired) are ignored.
    """
    if stress is None:
        return None
    masks: List[Optional[npt.NDArray[np.bool_]]] = []
    for state, *beeps in zip(stress, *channels):
        state.begin_round()
        mask = state.active_mask(round_index)
        if mask is not None:
            for key, row in enumerate(beeps):
                state.transmit(key, row, mask)
        masks.append(mask)
    return masks


def _perturb(stress: StressRows, *heard: npt.NDArray[np.bool_]) -> None:
    """Apply each row's channel to its heard rows in place (heard1 first)."""
    if stress is None:
        return
    for state, *rows in zip(stress, *heard):
        for row in rows:
            state.apply_channel(row)


def _hold(
    masks: Optional[List[Optional[npt.NDArray[np.bool_]]]],
    nxt: LevelBlock,
    cur: LevelBlock,
) -> None:
    """Delayed vertices keep their pre-round level."""
    if masks is None:
        return
    for i, mask in enumerate(masks):
        if mask is not None:
            np.copyto(nxt[i], cur[i], where=~mask)

