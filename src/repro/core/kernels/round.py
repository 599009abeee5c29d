"""The fused round kernel: whole-round execution for a block of replicas.

The hear kernels (:mod:`repro.core.kernels.hear`) accelerate one
*operation* of the round; a :class:`RoundKernel` owns the *full* round
(hear → beep-decision → level update → legality/retirement) for a
``(k, n)`` block of replicas, as one tight function per round over
preallocated int32 planes with the hear delegated to the engine's own
:class:`~repro.core.kernels.hear.HearKernel`.  At the sizes the
Theorem-2.1/2.2 sweeps run, per-round dispatch overhead — not
arithmetic — dominates wall time, which is what the fused loop removes.

Every engine run that is *eligible* goes through this kernel: perfect
channel, synchronous scheduler, no collector, no per-round series, and
(batched engine only) aligned draw cursors.  Everything else runs the
engines' ``step()`` loops.  There is no option to choose between the
two: the result is the same either way, so the choice is the engines'.

Byte-identity contract
----------------------
The kernel reproduces the step loops' trajectories **bit for bit**: the
random draw layout is unchanged (one ``Generator.random(out=)`` fill of
``n`` doubles per replica per round, served through the same
contiguous-prefix block discipline as the batched engine), beep
probabilities come from the same ``np.power`` values, hear masks equal
``(A @ beeps) > 0`` exactly, and the level select is the same integer
blend the batched engine uses.  Per-row ``rounds``/``mis``/
``final_levels`` equal the step-loop results element for element —
asserted by the fused-kernel identity tests and the differential suite.

Live-prefix compaction
----------------------
The engines' step loops shrink work as replicas retire by gathering
the active rows every round (``levels[active_idx]`` + scatter-back).
The fused kernel gets the same shrinking work with **zero per-round
cost**: rows ``[0, live)`` of the block are always the live replicas,
and retiring row ``i`` *moves* the last live row into slot ``i`` (one
row copy, once per retirement) — a permutation recorded so outcomes
land on the right replica.  Every per-round pass (draws, beeps, hear,
blend, prune) then runs on a dense live prefix with no index
materialization.  A retired replica's generator freezes at its
retirement position exactly like the step loop's (its draw stream is
simply dropped from the refill set), and the caller's level block is
rebuilt row for row from the recorded retirement copies on exit, so
the in-place result is identical to the engines'.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from .hear import HearKernel

__all__ = [
    "BlockOutcome",
    "RoundKernel",
    "PerRoundDraws",
    "BlockDraws",
]

#: Accepted algorithm tags (mirrors the engines' vocabulary).
ROUND_ALGORITHMS = ("single", "two_channel", "constant_state")

#: Exponent clip for 2^(−ℓ) — the same constant as
#: ``repro.core.engines.base.MAX_EXPONENT`` (kernels must not import the
#: engines package; the engines' equivalence tests pin the two equal).
_MAX_EXPONENT = 1023


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
    engine already pre-drew are consumed first (the entry cursor must be
    aligned — full-block stepping then keeps it aligned for free, so the
    hot serve is a Python-int compare and a strided view).

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
        self._block = blocks.shape[1]
        # Adopt the engine's aligned cursor: rows [pos, chunk) of the
        # block storage are already-drawn stream to serve before any
        # refill.  A fresh engine starts exhausted (pos == chunk).
        self._pos = int(cursor[0]) if cursor.size else 0
        self._chunk = self._block
        self._grow = min(min_chunk, self._block)
        self._nlive = blocks.shape[0]
        #: Replica id of each block row (compaction permutes the rows).
        self._ids = list(range(self._nlive))
        #: Unserved pre-drawn values of each retired replica.
        self._tails: Dict[int, npt.NDArray[np.float64]] = {}

    def aligned(self) -> bool:
        """True iff every replica cursor sits at the same position."""
        cursor = self._cursor
        return bool(cursor.size == 0 or np.all(cursor == cursor[0]))

    def serve(self) -> npt.NDArray[np.float64]:
        pos = self._pos
        if pos == self._chunk:
            blocks = self._blocks
            fns = self._fns
            chunk = self._grow
            if chunk >= self._block:
                chunk = self._block
                for r in range(self._nlive):
                    fns[r](out=blocks[r])
            else:
                for r in range(self._nlive):
                    fns[r](out=blocks[r, :chunk])
                self._grow = chunk * 2
            self._chunk = chunk
            pos = 0
        self._pos = pos + 1
        return self._blocks[:, pos]

    def retire(self, row: int) -> None:
        """Compaction support: the last live stream takes over ``row``.

        The retired replica's not-yet-served values are kept for
        :meth:`finish` — its generator is frozen *after* them.  The
        relocated replica's unserved values follow it into ``row`` (one
        strided row copy, once per retirement), so it keeps consuming
        the exact values its generator already produced.
        """
        pos, chunk = self._pos, self._chunk
        self._tails[self._ids[row]] = self._blocks[row, pos:chunk].copy()
        self._nlive -= 1
        last = self._nlive
        if row != last:
            self._fns[row] = self._fns[last]
            self._ids[row] = self._ids[last]
            self._blocks[row, pos:chunk] = self._blocks[last, pos:chunk]

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
        the engine's next run takes the step loop.
        """
        pos, chunk, block = self._pos, self._chunk, self._block
        if chunk == block and not self._tails:
            self._cursor[:] = pos
            return
        tails = dict(self._tails)
        for row in range(self._nlive):
            tails[self._ids[row]] = self._blocks[row, pos:chunk].copy()
        for replica, tail in tails.items():
            start = block - tail.shape[0]
            self._blocks[replica, start:] = tail
            self._cursor[replica] = start


# ----------------------------------------------------------------------
# Base class: the fused run loop + the numpy round bodies.
# ----------------------------------------------------------------------
class RoundKernel:
    """Whole-round execution for a ``(k, n)`` replica block.

    One instance is bound to an engine's hear kernel (and through it to
    the graph structure), an algorithm tag, an ℓmax policy vector, and a
    replica count.  Engines build it on their first eligible run,
    delegate their run loops to :meth:`run_block` / :meth:`run_constant`,
    and re-target it with :meth:`rebind` when their topology changes
    (see ``docs/performance.md``, "Fused round kernel").
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
        self._draws_source: "PerRoundDraws | BlockDraws | None" = None
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
        self._row_any = np.empty(k, dtype=bool)

    def _build_p_table(self) -> Optional[npt.NDArray[np.float64]]:
        """Beep-probability lookup for uniform-ℓmax policies.

        Entry for entry the same construction as
        ``BatchedEngine._build_p_table`` — the values come from the same
        ``np.power`` call as the engines' direct formula, so
        probabilities (and hence trajectories) are bit-identical.
        """
        ell = self.ell_max
        if ell is None or ell.size == 0:
            return None
        lo = int(ell.min())
        hi = int(ell.max())
        if lo != hi or hi < 1 or hi > _MAX_EXPONENT:
            return None
        exponent = np.arange(2 * hi + 1, dtype=np.float64) - float(hi)
        table = np.power(2.0, -np.clip(exponent, 0.0, float(_MAX_EXPONENT)))
        table[: hi + 1] = 1.0
        table[2 * hi] = 0.0
        return table

    # ------------------------------------------------------------------
    # The fused run loop (level algorithms)
    # ------------------------------------------------------------------
    def run_block(
        self,
        levels: npt.NDArray[np.int32],
        draws: "PerRoundDraws | BlockDraws",
        max_rounds: int,
        check_every: int = 1,
    ) -> Tuple[List[BlockOutcome], int]:
        """Drive a ``(k, n)`` int32 level block to per-row legality.

        Mirrors the engines' run loops exactly: legality is observed
        before stepping at rounds ``0, check_every, 2·check_every, …``
        plus once at budget exhaustion, so each row's ``rounds`` equals
        the step loop's.  Rows are compacted as replicas retire (see
        the module docstring), and ``levels`` is rebuilt in place from
        the per-replica retirement copies on exit.  Returns
        ``(outcomes, steps_executed)``.
        """
        if self._constant:
            raise ValueError("run_block is for level algorithms; use run_constant")
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        self._draws_source = draws
        k = levels.shape[0]
        outcomes: List[Optional[BlockOutcome]] = [None] * k
        perm = list(range(k))
        live = k
        cur = levels
        nxt = self._plane[:k]
        executed = 0
        step = self._step_single if self._single else self._step_two
        while True:
            should_check = executed % check_every == 0 or executed >= max_rounds
            if should_check:
                live = self._retire_legal(
                    cur, live, perm, outcomes, executed, draws
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
            if self._single:
                step(cur[:live], nxt[:live], live)
                cur, nxt = nxt, cur
            else:
                step(cur[:live], live)
            executed += 1
        # Compaction permuted the block rows (and the single channel may
        # have ended on the scratch plane); every replica's ground truth
        # is its recorded copy.  One pass, once per run.
        for r in range(k):
            np.copyto(levels[r], outcomes[r].final_levels)
        return outcomes, executed  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Legality + retirement
    # ------------------------------------------------------------------
    def _candidate_rows(
        self, cur: npt.NDArray[np.int32]
    ) -> npt.NDArray[np.bool_]:
        """Live rows worth the full legality test (necessary prune).

        ``cur`` is the live prefix.  The prune is the engines': a legal
        row holds only floor/ℓmax levels; the full test decides.
        """
        k = cur.shape[0]
        eq = self._mask_a[:k]
        other = self._mask_b[:k]
        np.equal(cur, self._floor32, out=eq)
        np.equal(cur, self._ell32, out=other)
        np.logical_or(eq, other, out=eq)
        cand = self._cand[:k]
        np.all(eq, axis=1, out=cand)
        return cand

    def _retire_legal(
        self,
        cur: npt.NDArray[np.int32],
        live: int,
        perm: List[int],
        outcomes: List[Optional[BlockOutcome]],
        executed: int,
        draws: "PerRoundDraws | BlockDraws",
    ) -> int:
        """Test-and-retire legal rows; returns the new live count.

        Retirement compacts the live prefix: the last live row *moves*
        into the retired slot (levels row, draw stream, and permutation
        entry), so every per-round pass keeps operating on dense rows
        ``[0, live)``.  Rows are processed in descending order so each
        move sources a still-live tail row.
        """
        cand = self._candidate_rows(cur[:live])
        if not cand.any():
            return live
        # Candidate rows are rare (at/after convergence), so the full
        # test runs on a data-dependent gather; its intermediates are
        # shaped by the candidate count and cannot be preallocated.
        idx = np.flatnonzero(cand)
        rows = cur[idx]
        ne = rows != self._ell32
        blocked = self._hear.hear_rows(ne)
        in_mis = (rows == self._floor32) & ~blocked
        dominated = self._hear.hear_rows(in_mis)
        ok = in_mis | ((rows == self._ell32) & dominated)
        legal = np.all(ok, axis=1)
        if not legal.any():
            return live
        for jj in np.flatnonzero(legal)[::-1].tolist():
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
            draws.retire(j)
            live = last
        return live

    # ------------------------------------------------------------------
    # Round bodies
    # ------------------------------------------------------------------
    def _probabilities(
        self, cur: npt.NDArray[np.int32], k: int
    ) -> npt.NDArray[np.float64]:
        """Channel-1 beep probabilities, bit-identical to the engines."""
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
        # Non-uniform ℓmax fallback: the solo engines' clip/negate/power
        # chain (cast-on-store, value-identical to ``.astype``).
        np.clip(cur, 0, _MAX_EXPONENT, out=p)
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
        k: int,
    ) -> None:
        """One Algorithm-1 round, writing the new levels into ``nxt``.

        Operation for operation the batched engine's ideal-path step:
        the same p-table lookup, the same ``draws < p`` beep decision,
        the same hear booleans, and the same branch-free integer blend
        ``x + (y − x)·mask`` for ``where(heard, up, where(beeps, −ℓmax,
        down))`` — hence bit-identical trajectories.
        """
        draws = self._serve()[:k]
        up = self._up[:k]
        np.add(cur, 1, out=up)
        np.minimum(up, self._ell32, out=up)
        p = self._probabilities(cur, k)
        beeps = self._beeps[:k]
        np.less(draws, p, out=beeps)
        heard = self._hear.hear_rows(beeps, self._heard[:k])
        np.subtract(cur, 1, out=nxt)
        np.maximum(nxt, 1, out=nxt)
        sel = self._sel[:k]
        np.subtract(self._neg_ell32, nxt, out=sel)
        np.multiply(sel, beeps, out=sel)
        np.add(nxt, sel, out=nxt)
        np.subtract(up, nxt, out=sel)
        np.multiply(sel, heard, out=sel)
        np.add(nxt, sel, out=nxt)

    def _step_two(self, cur: npt.NDArray[np.int32], k: int) -> None:
        """One Algorithm-2 round, updating ``cur`` in place.

        Both channels' beeps are stacked into one hear call (as on the
        batched engine's ideal path) and the solo priority order
        ``heard2 > heard1 > beep1 > ~beep2`` is applied in reverse —
        as branch-free integer blends rather than the engines' masked
        ``copyto`` calls, which cost several times more per pass for
        the identical integers (``np.copyto(..., where=)`` takes a
        buffered scalar path; the blends stream through SIMD loops).
        """
        draws = self._serve()[:k]
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
        heard = self._hear.hear_rows(stacked, self._heard[: 2 * k])
        heard1 = heard[:k]
        heard2 = heard[k:]
        down = self._sel[:k]
        np.subtract(cur, 1, out=down)
        np.maximum(down, 1, out=down)
        not_beep2 = self._mask_b[:k]
        np.logical_not(beep2, out=not_beep2)
        # ``beep2`` is exactly ``cur == 0``, so keeping level 0 there
        # and taking ``down`` elsewhere is one masked product.
        np.multiply(down, not_beep2, out=cur)
        sel = self._plane[:k]
        np.multiply(cur, beep1, out=sel)
        np.subtract(cur, sel, out=cur)
        np.subtract(up, cur, out=sel)
        np.multiply(sel, heard1, out=sel)
        np.add(cur, sel, out=cur)
        np.subtract(self._ell32, cur, out=sel)
        np.multiply(sel, heard2, out=sel)
        np.add(cur, sel, out=cur)

    # ------------------------------------------------------------------
    # Two-state baseline
    # ------------------------------------------------------------------
    def run_constant(
        self,
        in_mis: npt.NDArray[np.bool_],
        draws: "PerRoundDraws | BlockDraws",
        max_rounds: int,
    ) -> Tuple[List[BlockOutcome], int]:
        """Drive a ``(k, n)`` bool membership block to per-row MIS.

        The loop mirrors ``simulate_constant_state``: legality observed
        every round (including round 0) before stepping, budget checked
        between observation and step.  ``in_mis`` is updated in place.
        """
        if not self._constant:
            raise ValueError(
                "run_constant requires a constant_state round kernel"
            )
        self._draws_source = draws
        k = in_mis.shape[0]
        outcomes: List[Optional[BlockOutcome]] = [None] * k
        perm = list(range(k))
        live = k
        executed = 0
        while True:
            live = self._retire_constant(
                in_mis, live, perm, outcomes, executed, draws
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
            self._step_constant(in_mis[:live], live)
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
    ) -> int:
        rows = in_mis[:live]
        heard = self._hear.hear_rows(rows, self._heard[:live])
        clash = self._mask_a[:live]
        np.logical_and(rows, heard, out=clash)
        covered = self._mask_b[:live]
        np.logical_or(rows, heard, out=covered)
        legal = self._cand[:live]
        np.all(covered, axis=1, out=legal)
        # independent: no IN vertex heard another IN vertex.
        any_clash = self._row_any[:live]
        np.logical_or.reduce(clash, axis=1, out=any_clash)
        np.logical_not(any_clash, out=any_clash)
        np.logical_and(legal, any_clash, out=legal)
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
            draws.retire(j)
            live = last
        return live

    def _step_constant(self, in_mis: npt.NDArray[np.bool_], k: int) -> None:
        """One two-state round in place (same booleans as the engine)."""
        draws = self._serve()[:k]
        beeps = self._beeps[:k]
        np.copyto(beeps, in_mis)
        heard = self._hear.hear_rows(beeps, self._heard[:k])
        coin = self._mask_a[:k]
        np.less(draws, 0.5, out=coin)
        # stay = in & ~(heard & coin)   (== in & ~retreat)
        stay = self._mask_b[:k]
        np.logical_and(heard, coin, out=stay)
        np.logical_not(stay, out=stay)
        np.logical_and(in_mis, stay, out=stay)
        # rejoin = ~in & ~heard & coin
        rejoin = coin
        np.logical_or(in_mis, heard, out=self._beeps[:k])
        np.logical_not(self._beeps[:k], out=self._beeps[:k])
        np.logical_and(rejoin, self._beeps[:k], out=rejoin)
        np.logical_or(stay, rejoin, out=in_mis)

    # ------------------------------------------------------------------
    # Draw plumbing
    # ------------------------------------------------------------------
    def _serve(self) -> npt.NDArray[np.float64]:
        return self._draws_source.serve()
