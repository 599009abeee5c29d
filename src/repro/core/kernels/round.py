"""The round kernel: the one implementation of an engine round.

The hear kernel (:mod:`repro.core.kernels.hear`) computes one
*operation* of the round — for a block, one replica-packed OR-gather
over the CSR pattern per ≤ 64 rows, Algorithm 2's two channels stacked
into one block; a :class:`RoundKernel` owns the *full* round
(beep decision → stress gate → hear → channel → level update, plus
legality/retirement in its run loops) for a ``(k, n)`` block of
replicas, over preallocated int32 planes with the hear delegated to the
engine's own :class:`~repro.core.kernels.hear.HearKernel`.  Its three
round bodies (``_step_single``, ``_step_two``, ``_step_constant``) are
the only round arithmetic of the array engines: every engine ``step()``
runs one of them on its own levels (:meth:`RoundKernel.step`), and
every solo run and every batched run without a collector — stressed
and observed runs included — runs them in the fused loops
:meth:`RoundKernel.run_block` / :meth:`RoundKernel.run_constant`, where
per-round dispatch overhead, not arithmetic, is what the fused loop
removes.

Section-3 structure
-------------------
:func:`structure_pass` (``I_t``, ``N(I_t)``, legality), its pruned
retirement form :func:`pruned_legality` and the two-state
:func:`constant_legality` are the only legality predicates: the
engines' mask/legality queries, the fused retirement and both
collectors call them.  A solo collector is observed inside
:meth:`RoundKernel.run_block`.

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

Byte-identity contract
----------------------
The random draw layout is one ``Generator.random(out=)`` fill of ``n``
doubles per replica per round, served either per round
(:class:`PerRoundDraws`) or through the batched engine's contiguous
pre-draw blocks (:class:`BlockDraws`); beep probabilities come from one
``np.power`` construction, hear masks equal ``(A @ beeps) > 0``
exactly (the block path ORs over the all-ones CSR pattern, so it
counts nothing and cannot overflow), and the level update is an exact integer blend.  A fused run
therefore equals the same engine's ``step()`` loop bit for bit —
per-row ``rounds``/``mis``/``final_levels``, every generator position
and every channel counter — which the fused-kernel identity tests and
the differential suite assert, the latter against hand-rolled oracles
that share no code with this module.

Live-prefix compaction
----------------------
A step loop shrinks work as replicas retire by gathering the active
rows every round (``levels[active_idx]`` + scatter-back).  The fused
loops get the same shrinking work with **zero per-round cost**: rows
``[0, live)`` of the block are always the live replicas, and retiring
row ``i`` *moves* the last live row into slot ``i`` (one row copy, once
per retirement; its draw stream and stress state move with it) — a
permutation recorded so outcomes land on the right replica.  Every
per-round pass (draws, beeps, hear, blend, prune) then runs on a dense
live prefix with no index materialization.  A retired replica's
generator freezes at its retirement position exactly like the step
loop's (its draw stream is simply dropped from the refill set), and the
caller's level block is rebuilt row for row from the recorded
retirement copies on exit, so the in-place result is identical to the
engines'.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from .hear import HearKernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...obs.collectors import RunCollector
    from ..engines.base import StressState

__all__ = [
    "BlockOutcome",
    "MAX_EXPONENT",
    "RoundKernel",
    "PerRoundDraws",
    "BlockDraws",
    "constant_legality",
    "pruned_legality",
    "structure_pass",
]

#: Accepted algorithm tags (mirrors the engines' vocabulary).
ROUND_ALGORITHMS = ("single", "two_channel", "constant_state")

#: Exponent clip for 2^(−ℓ): ℓmax = O(log n) ≤ 60 at any simulable scale,
#: and clipping avoids float overflow on corrupted/extreme inputs.
MAX_EXPONENT = 1023

#: The live rows' stress states, or ``None`` on the perfect channel
#: with the synchronous scheduler (nothing to call, nothing drawn).
StressRows = Optional[List["StressState"]]

BoolBlock = npt.NDArray[np.bool_]
LevelBlock = npt.NDArray[np.integer[Any]]  # int32 or int64 levels
#: ``(legal, rows, in_mis)``: see :func:`pruned_legality`.
Verdict = Tuple[BoolBlock, Any, Any]


def _fresh(shape: Tuple[int, ...], count: int) -> Tuple[BoolBlock, ...]:
    return tuple(np.empty(shape, dtype=bool) for _ in range(count))


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


def constant_legality(
    hear: HearKernel,
    in_mis: BoolBlock,
    out: Optional[Tuple[BoolBlock, ...]] = None,
) -> BoolBlock:
    """Per-row two-state legality: IN is independent and dominating.

    ``out`` supplies two ``(k, n)`` bool buffers; the verdict is fresh.
    """
    heard, work = out or _fresh(in_mis.shape, 2)
    hear.hear_rows(in_mis, heard)
    np.logical_or(in_mis, heard, out=work)
    legal = work.all(axis=1)
    np.logical_and(in_mis, heard, out=work)
    legal &= ~work.any(axis=1)
    return legal


@dataclass
class BlockOutcome:
    """Per-replica outcome of a fused block run.

    ``final_levels`` is a fresh copy taken at the replica's retirement
    round: int32 for the level algorithms, bool for the two-state
    baseline.  Engines convert at their own dtype boundary.
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

    One ``Generator.random(out=row)`` per replica per round — the exact
    draw layout of the solo engines, leaving every generator parked at
    the consumption position when the run returns.  This is the adapter
    the solo fast paths must use: callers like the fault-recovery
    measurement reuse ``engine.rng`` *between* runs, so the generator
    may not run ahead of the trajectory.
    """

    __slots__ = ("_fns", "_buf", "_nlive")

    def __init__(self, rngs: Sequence[np.random.Generator], n: int):
        self._fns = [rng.random for rng in rngs]
        self._buf = np.empty((len(self._fns), n), dtype=np.float64)
        self._nlive = len(self._fns)

    def serve(self) -> npt.NDArray[np.float64]:
        buf = self._buf
        fns = self._fns
        for i in range(self._nlive):
            fns[i](out=buf[i])
        return buf

    def finish(self) -> None:
        """No reconciliation needed — the generators never run ahead."""

    def retire(self, row: int) -> None:
        """Compaction support: the last live stream takes over ``row``.

        The retired replica's generator freezes right here.
        """
        self._nlive -= 1
        self._fns[row] = self._fns[self._nlive]


class BlockDraws:
    """Serve rounds from shared per-replica pre-draw blocks, adaptively.

    Wraps the batched engine's *own* ``(R, block, n)`` pre-draw storage,
    cursor vector, and bound draw functions, so fused and step-loop runs
    on the same engine consume one continuous stream.  Any rounds the
    engine already pre-drew are consumed first: in place when the
    cursors are aligned (the hot serve is then a Python-int compare and
    a strided view), else adopted by the first refill, which moves each
    replica's pending tail to the front of its row and fills the rest
    from its generator (which sits right after the tail).

    Refills **grow geometrically** (8 → 16 → … → the engine's block
    length) instead of always drawing the full block: a stabilization
    run at n = 64 lasts ~30 rounds while the engine's block holds 256,
    so the legacy path generates ~8× the uniforms it consumes.  A
    replica still consumes a contiguous prefix of its own stream —
    uniform doubles are generated sequentially, so chunk size never
    changes a served value — which keeps trajectories byte-identical;
    only the generator run-ahead shrinks.  :meth:`finish` hands every
    replica's unserved pre-drawn values back to the engine on exit, so
    step-loop rounds can follow a fused run without skipping or
    replaying a draw.
    """

    __slots__ = (
        "_blocks",
        "_cursor",
        "_fns",
        "_block",
        "_chunk",
        "_pos",
        "_grow",
        "_nlive",
        "_ids",
        "_tails",
        "_heads",
    )

    def __init__(
        self,
        blocks: npt.NDArray[np.float64],
        cursor: npt.NDArray[np.intp],
        draw_fns: Sequence,
        min_chunk: int = 8,
    ):
        self._blocks = blocks
        self._cursor = cursor
        self._fns = list(draw_fns)
        self._block = block = blocks.shape[1]
        self._chunk = block
        self._grow = min(min_chunk, block)
        self._nlive = blocks.shape[0]
        #: Replica id of each block row (compaction permutes the rows).
        self._ids = list(range(self._nlive))
        #: Unserved pre-drawn values of each retired replica.
        self._tails: Dict[int, npt.NDArray[np.float64]] = {}
        #: Per row, the pending tail the first refill adopts (misaligned
        #: entry cursors only; ``None`` once adopted or when aligned).
        self._heads: Optional[List[npt.NDArray[np.float64]]] = None
        # Aligned: rows [pos, chunk) are already-drawn stream to serve
        # before any refill (a fresh engine starts exhausted).
        self._pos = int(cursor[0]) if cursor.size else 0
        if not np.all(cursor == self._pos):
            self._heads = [blocks[r, c:].copy() for r, c in enumerate(cursor.tolist())]
            self._pos = block

    def serve(self) -> npt.NDArray[np.float64]:
        pos = self._pos
        if pos == self._chunk:
            self._refill()
            pos = 0
        self._pos = pos + 1
        return self._blocks[:, pos]

    def _refill(self) -> None:
        """Draw the next chunk of every live row (adopting pending tails)."""
        blocks, fns, heads = self._blocks, self._fns, self._heads
        chunk = self._grow
        if heads is not None:
            chunk = max([chunk] + [head.shape[0] for head in heads[: self._nlive]])
        if chunk >= self._block:
            chunk = self._block
        else:
            self._grow = chunk * 2
        for r in range(self._nlive):
            start = 0
            if heads is not None:
                start = heads[r].shape[0]
                blocks[r, :start] = heads[r]
            fns[r](out=blocks[r, start:chunk])
        self._heads = None
        self._chunk = chunk

    def retire(self, row: int) -> None:
        """Compaction support: the last live stream takes over ``row``.

        The retired replica's not-yet-served values are kept for
        :meth:`finish` — its generator is frozen *after* them.  The
        relocated replica's unserved values follow it into ``row`` (one
        strided row copy, once per retirement), so it keeps consuming
        the exact values its generator already produced.
        """
        pos, chunk = self._pos, self._chunk
        self._tails[self._ids[row]] = self._unserved(row)
        self._nlive -= 1
        last = self._nlive
        if row != last:
            self._fns[row] = self._fns[last]
            self._ids[row] = self._ids[last]
            if self._heads is not None:
                self._heads[row] = self._heads[last]
            else:
                self._blocks[row, pos:chunk] = self._blocks[last, pos:chunk]

    def _unserved(self, row: int) -> npt.NDArray[np.float64]:
        """A copy of ``row``'s drawn-but-unserved values."""
        if self._heads is not None:
            return self._heads[row]
        return self._blocks[row, self._pos:self._chunk].copy()

    def finish(self) -> None:
        """Hand the unserved pre-drawn values back to the engine.

        With a full-width serving window and no retirements the whole
        block holds valid contiguous stream, so the engine keeps
        consuming from ``pos``.  Otherwise each replica's unserved
        values (retired replicas' from :meth:`retire`, live rows' from
        the block) move to the end of its own engine row, with its
        cursor at their start: the engine's next step serves them, then
        refills from the generator — which sits right after them — so
        every replica's stream continues exactly where the step loop
        would have left it.  Cursors are then generally misaligned, and
        the engine's next run adopts them on its first refill.
        """
        pos, chunk, block = self._pos, self._chunk, self._block
        if chunk == block and not self._tails and self._heads is None:
            self._cursor[:] = pos
            return
        tails = dict(self._tails)
        for row in range(self._nlive):
            tails[self._ids[row]] = self._unserved(row)
        for replica, tail in tails.items():
            start = block - tail.shape[0]
            self._blocks[replica, start:] = tail
            self._cursor[replica] = start


# ----------------------------------------------------------------------
# The round bodies, the one-round entry point, and the fused run loops.
# ----------------------------------------------------------------------
class RoundKernel:
    """Whole-round execution for a ``(k, n)`` replica block.

    One instance is bound to an engine's hear kernel (and through it to
    the graph structure), an algorithm tag, an ℓmax policy vector, and a
    replica count.  Engines build it on their first round, run their
    ``step()`` through :meth:`step` and their run loops through
    :meth:`run_block` / :meth:`run_constant`, and re-target it with
    :meth:`rebind` when their topology changes (see
    ``docs/performance.md``, "Fused round kernel").
    """

    def __init__(
        self,
        hear: HearKernel,
        *,
        algorithm: str,
        ell_max: npt.ArrayLike = None,
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
        self._constant = algorithm == "constant_state"
        self.n = -1
        self.rebind(hear, ell_max)

    def rebind(self, hear: HearKernel, ell_max: npt.ArrayLike = None) -> None:
        """Re-target the kernel at the engine's rebound hear kernel.

        The policy tables are rebuilt from ``ell_max``; the per-round
        scratch is reallocated only when the vertex count changed, so a
        fixed-``n`` topology delta costs no allocation beyond the tables.
        """
        self._hear = hear
        self.structure = hear.structure
        n = hear.structure.n
        if not self._constant:
            self.ell_max = np.asarray(ell_max, dtype=np.int64)
            if self.ell_max.shape not in ((), (n,)):
                raise ValueError(f"ell_max must be scalar or shape ({n},)")
            floor = (
                -self.ell_max if self._single else np.zeros_like(self.ell_max)
            )
            self._ell32 = self.ell_max.astype(np.int32)
            self._floor32 = floor.astype(np.int32)
            self._neg_ell32 = -self._ell32
            self._p_table = self._build_p_table()
            self._p_offset = (
                int(self.ell_max.flat[0]) if self._p_table is not None else 0
            )
        if n == self.n:
            return
        self.n = n
        k = self.replicas
        # ---- per-round scratch, bound once (hot-path contract) -------
        self._p_buf = np.empty((k, n), dtype=np.float64)
        self._idx32 = np.empty((k, n), dtype=np.int32)
        self._beeps = np.empty((k, n), dtype=bool)
        self._mask_a = np.empty((k, n), dtype=bool)
        self._mask_b = np.empty((k, n), dtype=bool)
        hear_rows = 2 * k if self._two else k
        self._heard = np.empty((hear_rows, n), dtype=bool)
        self._stack = (
            np.empty((2 * k, n), dtype=bool) if self._two else None
        )
        self._up = np.empty((k, n), dtype=np.int32)
        self._sel = np.empty((k, n), dtype=np.int32)
        self._plane = np.empty((k, n), dtype=np.int32)
        self._cand = np.empty(k, dtype=bool)
        self._rows = np.arange(k)

    def _build_p_table(self) -> Optional[npt.NDArray[np.float64]]:
        """Beep-probability lookup table for uniform-ℓmax policies.

        With one global ``L = ℓmax`` the Figure-1 activation depends only
        on the level, so ``p = table[level + L]`` replaces the per-round
        clip/power/masked-assignment chain with a single fancy index.
        Entries are computed by the *same* ``np.power`` call as the
        direct formula of :meth:`_probabilities`, so probabilities are
        bit-identical:

        * ``table[0..L] = 1.0`` (levels ≤ 0 beep always);
        * ``table[L+k] = 2^−k`` for ``0 < k < L``;
        * ``table[2L] = 0.0`` (level ℓmax never beeps on channel 1).

        Algorithm 2 indexes the same table (levels ∈ [0, L]): level 0
        maps to 1.0 = 2^0 and the 0.0 entry at level L is masked out by
        the activity band, exactly as in the direct formula.
        """
        ell = self.ell_max
        if ell is None or ell.size == 0:
            return None
        lo = int(ell.min())
        hi = int(ell.max())
        if lo != hi or hi < 1 or hi > MAX_EXPONENT:
            return None
        exponent = np.arange(2 * hi + 1, dtype=np.float64) - float(hi)
        table = np.power(2.0, -np.clip(exponent, 0.0, float(MAX_EXPONENT)))
        table[: hi + 1] = 1.0
        table[2 * hi] = 0.0
        return table

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

        ``state`` is int32 levels (bool membership for the two-state
        baseline), ``draws`` the round's ``(k, n)`` uniforms, ``stress``
        the rows' stress states and ``round_index`` the scheduler's
        round.  Returns the emitted beeps as a view of the kernel's
        scratch, valid until the next round: ``(k, n)``, or ``(2k, n)``
        for Algorithm 2 with channel 2 in rows ``k:``.
        """
        k = state.shape[0]
        if self._constant:
            self._step_constant(state, draws, stress, round_index)
            return self._beeps[:k]
        nxt = self._plane[:k]
        if self._single:
            self._step_single(state, nxt, draws, stress, round_index)
            emitted = self._beeps[:k]
        else:
            self._step_two(state, nxt, draws, stress, round_index)
            emitted = self._stack[: 2 * k]
        np.copyto(state, nxt)
        return emitted

    # ------------------------------------------------------------------
    # The fused run loop (level algorithms)
    # ------------------------------------------------------------------
    def run_block(
        self,
        levels: npt.NDArray[np.int32],
        draws: "PerRoundDraws | BlockDraws",
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
        row's ``rounds`` equals the step loop's.  Rows are compacted as
        replicas retire (see the module docstring), and ``levels`` is
        rebuilt in place from the per-replica retirement copies on
        exit.  ``stress`` holds each row's stress state (``None`` when
        ideal) and ``round_index`` the scheduler round of the first
        step.  ``observer`` (a solo ``RunCollector``, ``k == 1``) gets
        every round's :func:`structure_pass`, which also serves the
        retirement, and the emitted beeps.  Returns ``(outcomes,
        steps_executed)``.
        """
        if self._constant:
            raise ValueError("run_block is for level algorithms; use run_constant")
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        k = levels.shape[0]
        if observer is not None and k != 1:
            raise ValueError("an observer watches a solo (1, n) block")
        outcomes: List[Optional[BlockOutcome]] = [None] * k
        perm = list(range(k))
        # Stress states move with their rows on retirement, like perm.
        stress = None if stress is None else list(stress)
        live = k
        cur = levels
        nxt = self._plane[:k]
        executed = 0
        step = self._step_single if self._single else self._step_two
        while True:
            should_check = executed % check_every == 0 or executed >= max_rounds
            verdict: Optional[Verdict] = None
            if observer is not None:
                rows = cur[:1]
                in_mis, dominated, legal = structure_pass(
                    self._hear, rows, self._floor32, self._ell32,
                    out=(self._mask_a[:1], self._mask_b[:1], self._heard[:1]),
                )
                observer.observe_masks(rows[0], in_mis[0], dominated[0], bool(legal[0]))
                verdict = (legal, self._rows[:1], in_mis)
            if should_check:
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
                        final_levels=cur[i].copy(),
                    )
                break
            step(
                cur[:live], nxt[:live], draws.serve()[:live], stress,
                round_index + executed,
            )
            if observer is not None:
                observer.observe_beeps(self._beeps[0] if self._single else tuple(self._stack[:2]))
            cur, nxt = nxt, cur
            executed += 1
        # Compaction permuted the block rows (and the run may have ended
        # on the scratch plane); every replica's ground truth is its
        # recorded copy.  One pass, once per run.
        for r in range(k):
            np.copyto(levels[r], outcomes[r].final_levels)
        return outcomes, executed  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Legality + retirement
    # ------------------------------------------------------------------
    def _retire_legal(
        self,
        cur: npt.NDArray[np.int32],
        live: int,
        perm: List[int],
        outcomes: List[Optional[BlockOutcome]],
        executed: int,
        draws: "PerRoundDraws | BlockDraws",
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
                self._hear, cur[:live], self._floor32, self._ell32,
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
                final_levels=cur[j].copy(),
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
    def _probabilities(
        self, cur: npt.NDArray[np.int32], k: int
    ) -> npt.NDArray[np.float64]:
        """Channel-1 beep probabilities (the Figure-1 activation)."""
        table = self._p_table
        p = self._p_buf[:k]
        if table is not None:
            idx = self._idx32[:k]
            np.add(cur, self._p_offset, out=idx)
            # Levels are invariants of the dynamics, so indices are
            # always in range; mode="clip" only skips the bounds-check
            # pass (measurably faster, value-identical).
            np.take(table, idx, out=p, mode="clip")
            return p
        # Non-uniform ℓmax: the direct clip/negate/power chain
        # (cast-on-store, value-identical to ``.astype``).
        np.clip(cur, 0, MAX_EXPONENT, out=p)
        np.negative(p, out=p)
        np.power(2.0, p, out=p)
        if self._single:
            low = self._mask_a[:k]
            np.less_equal(cur, 0, out=low)
            p[low] = 1.0
            np.greater_equal(cur, self._ell32, out=low)
            p[low] = 0.0
        return p

    def _step_single(
        self,
        cur: npt.NDArray[np.int32],
        nxt: npt.NDArray[np.int32],
        draws: npt.NDArray[np.float64],
        stress: StressRows,
        round_index: int,
    ) -> None:
        """One Algorithm-1 round, writing the new levels into ``nxt``.

        ``draws < p`` decides the beeps, the hear booleans pick the
        branch, and the branch-free integer blend ``x + (y − x)·mask``
        computes ``where(heard, up, where(beeps, −ℓmax, down))`` exactly.
        Unlike a masked ``copyto`` its cost does not blow up at the
        ~30–50 % beep densities this algorithm lives at.
        """
        k = cur.shape[0]
        up = self._up[:k]
        np.add(cur, 1, out=up)
        np.minimum(up, self._ell32, out=up)
        p = self._probabilities(cur, k)
        beeps = self._beeps[:k]
        np.less(draws, p, out=beeps)
        masks = _gate(stress, round_index, beeps)
        heard = self._hear.hear_rows(beeps, self._heard[:k])
        _perturb(stress, heard)
        np.subtract(cur, 1, out=nxt)
        np.maximum(nxt, 1, out=nxt)
        sel = self._sel[:k]
        np.subtract(self._neg_ell32, nxt, out=sel)
        np.multiply(sel, beeps, out=sel)
        np.add(nxt, sel, out=nxt)
        np.subtract(up, nxt, out=sel)
        np.multiply(sel, heard, out=sel)
        np.add(nxt, sel, out=nxt)
        _hold(masks, nxt, cur)

    def _step_two(
        self,
        cur: npt.NDArray[np.int32],
        nxt: npt.NDArray[np.int32],
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
        np.minimum(up, self._ell32, out=up)
        p1 = self._probabilities(cur, k)
        band = self._mask_a[:k]
        hi = self._mask_b[:k]
        np.greater(cur, 0, out=band)
        np.less(cur, self._ell32, out=hi)
        np.logical_and(band, hi, out=band)
        stacked = self._stack[: 2 * k]
        beep1 = stacked[:k]
        np.less(draws, p1, out=beep1)
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
        np.subtract(self._ell32, nxt, out=sel)
        np.multiply(sel, heard2, out=sel)
        np.add(nxt, sel, out=nxt)
        _hold(masks, nxt, cur)

    # ------------------------------------------------------------------
    # Two-state baseline
    # ------------------------------------------------------------------
    def run_constant(
        self,
        in_mis: npt.NDArray[np.bool_],
        draws: "PerRoundDraws | BlockDraws",
        max_rounds: int,
        stress: StressRows = None,
        round_index: int = 0,
    ) -> Tuple[List[BlockOutcome], int]:
        """Drive a ``(k, n)`` bool membership block to per-row MIS.

        Legality is observed every round (including round 0) before
        stepping, and the budget checked between observation and step —
        the order of a ``ConstantStateEngine.step()`` loop.  ``in_mis``
        is updated in place; ``stress``/``round_index`` as in
        :meth:`run_block`.
        """
        if not self._constant:
            raise ValueError(
                "run_constant requires a constant_state round kernel"
            )
        k = in_mis.shape[0]
        outcomes: List[Optional[BlockOutcome]] = [None] * k
        perm = list(range(k))
        stress = None if stress is None else list(stress)
        live = k
        executed = 0
        while True:
            live = self._retire_constant(
                in_mis, live, perm, outcomes, executed, draws, stress
            )
            if live == 0:
                break
            if executed >= max_rounds:
                for i in range(live):
                    outcomes[perm[i]] = BlockOutcome(
                        stabilized=False,
                        rounds=executed,
                        mis=frozenset(),
                        final_levels=in_mis[i].copy(),
                    )
                break
            self._step_constant(
                in_mis[:live], draws.serve()[:live], stress,
                round_index + executed,
            )
            executed += 1
        # Rebuild the caller's block from the per-replica records (the
        # compaction permuted rows in place).  Once per run.
        for r in range(k):
            np.copyto(in_mis[r], outcomes[r].final_levels)
        return outcomes, executed  # type: ignore[return-value]

    def _retire_constant(
        self,
        in_mis: npt.NDArray[np.bool_],
        live: int,
        perm: List[int],
        outcomes: List[Optional[BlockOutcome]],
        executed: int,
        draws: "PerRoundDraws | BlockDraws",
        stress: StressRows,
    ) -> int:
        legal = constant_legality(
            self._hear, in_mis[:live], (self._heard[:live], self._mask_a[:live])
        )
        if not legal.any():
            return live
        # Legal two-state rows are draw-independent fixed points (IN
        # hears nothing so it stays; OUT hears so it cannot rejoin) —
        # compact them out exactly like the level algorithms.
        for j in np.flatnonzero(legal)[::-1].tolist():
            outcomes[perm[j]] = BlockOutcome(
                stabilized=True,
                rounds=executed,
                mis=frozenset(np.flatnonzero(in_mis[j]).tolist()),
                final_levels=in_mis[j].copy(),
            )
            last = live - 1
            if j != last:
                np.copyto(in_mis[j], in_mis[last])
                perm[j] = perm[last]
                if stress is not None:
                    stress[j] = stress[last]
            draws.retire(j)
            live = last
        return live

    def _step_constant(
        self,
        in_mis: npt.NDArray[np.bool_],
        draws: npt.NDArray[np.float64],
        stress: StressRows,
        round_index: int,
    ) -> None:
        """One two-state round in place.

        IN beeps; on a heads coin (``u < 1/2``) an IN vertex that heard
        a neighbour retreats and an OUT vertex that heard nothing
        rejoins.  Both are one flip: ``coin & (in == heard)``.
        """
        k = in_mis.shape[0]
        beeps = self._beeps[:k]
        np.copyto(beeps, in_mis)
        masks = _gate(stress, round_index, beeps)
        heard = self._hear.hear_rows(beeps, self._heard[:k])
        _perturb(stress, heard)
        coin = self._mask_a[:k]
        np.less(draws, 0.5, out=coin)
        flip = self._mask_b[:k]
        np.equal(in_mis, heard, out=flip)
        np.logical_and(flip, coin, out=flip)
        if masks is not None:
            # Delayed vertices keep their membership: no flip.
            for i, mask in enumerate(masks):
                if mask is not None:
                    np.logical_and(flip[i], mask, out=flip[i])
        np.logical_xor(in_mis, flip, out=in_mis)


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
    nxt: npt.NDArray[np.int32],
    cur: npt.NDArray[np.int32],
) -> None:
    """Delayed vertices keep their pre-round level."""
    if masks is None:
        return
    for i, mask in enumerate(masks):
        if mask is not None:
            np.copyto(nxt[i], cur[i], where=~mask)

