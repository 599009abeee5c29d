"""Multi-replica batched engine: R independent runs, one hear a round.

Repetition blocks dominate every sweep behind Theorems 2.1/2.2 and
Corollary 2.3: the same graph and policy are simulated for 20+ seeds.
:class:`BatchedEngine` runs R such replicas simultaneously as an
``(R, n)`` level matrix, so the per-round reception of *all* replicas is
one :meth:`~repro.core.kernels.HearKernel.hear_rows` call instead of R
separate matvecs.

Bit-identical replica contract
------------------------------
Each replica owns its own ``numpy.random.Generator``, spawned from one
``SeedSequence`` (``SeedSequence(seed).spawn(replicas)`` unless explicit
child sequences are given), and consumes randomness in exactly the solo
order: one optional ``integers`` draw for the arbitrary start, then one
``random`` call filling ``n`` doubles per round.  Replica ``k``
therefore produces the *bit-identical* trajectory, round count, and MIS
of a solo :func:`~repro.core.engines.single.simulate_single` /
:func:`~repro.core.engines.two_channel.simulate_two_channel` run seeded
with ``np.random.default_rng(children[k])`` — asserted by
``tests/test_batched_engine.py``.  This is what makes the batched sweep
executor byte-identical to the serial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple, cast

import numpy as np
import numpy.typing as npt

from ...devtools.seeding import SeedSpec, as_seed_sequence, rng_from_sequence
from ...graphs.graph import Graph
from ..kernels import (
    BlockDraws,
    GraphStructure,
    HearKernel,
    RoundKernel,
    structure_for,
)
from ..knowledge import EllMaxPolicy
from .base import MAX_EXPONENT, StressState, VectorizedResult, bind_stress_models

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...beeping.channels import BoundChannel, ChannelLike
    from ...beeping.schedulers import SchedulerLike
    from ...obs.collectors import BatchedCollector

__all__ = ["BatchedEngine", "BatchedResult", "simulate_batched"]

#: Accepted algorithm tags.
ALGORITHMS = ("single", "two_channel")


@dataclass
class BatchedResult:
    """Per-replica outcomes of a batched run (solo-run compatible)."""

    results: List[VectorizedResult]

    @property
    def rounds(self) -> npt.NDArray[np.int64]:
        return np.asarray([r.rounds for r in self.results], dtype=np.int64)

    @property
    def stabilized(self) -> npt.NDArray[np.bool_]:
        return np.asarray([r.stabilized for r in self.results], dtype=bool)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[VectorizedResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> VectorizedResult:
        return self.results[index]


class BatchedEngine:
    """R replicas of Algorithm 1 or 2 on one graph, stepped together.

    Parameters
    ----------
    graph, policy:
        The shared topology and ℓmax policy.
    replicas:
        Number of independent replicas R.
    seed:
        Root of the replica seed tree; children are spawned as
        ``np.random.SeedSequence(seed).spawn(replicas)``.
    seed_sequences:
        Explicit per-replica ``SeedSequence`` objects overriding
        ``seed``/``replicas`` (``replicas`` then defaults to their
        count).  This is the hook the sweep executor uses to hand the
        *same* children to batched and solo paths.
    algorithm:
        ``"single"`` (Algorithm 1) or ``"two_channel"`` (Algorithm 2).
    channel, scheduler:
        Stress models (:mod:`repro.beeping.channels` /
        :mod:`repro.beeping.schedulers`).  Each replica binds its own
        model state and derives its streams from its own generator at
        the same stream position as a solo engine would, so the
        bit-identical replica contract holds under stress too.  The
        defaults draw nothing and keep the historical paths byte for
        byte.
    """

    def __init__(
        self,
        graph: Graph,
        policy: EllMaxPolicy,
        replicas: Optional[int] = None,
        seed: SeedSpec = None,
        seed_sequences: Optional[Sequence[np.random.SeedSequence]] = None,
        algorithm: str = "single",
        channel: "ChannelLike" = None,
        scheduler: "SchedulerLike" = None,
    ):
        if policy.num_vertices != graph.num_vertices:
            raise ValueError("policy size does not match graph size")
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; choose one of {ALGORITHMS}"
            )
        if seed_sequences is None:
            if replicas is None or replicas < 1:
                raise ValueError("replicas must be >= 1 when seed_sequences is not given")
            root = as_seed_sequence(seed)
            seed_sequences = root.spawn(replicas)
        elif replicas is not None and replicas != len(seed_sequences):
            raise ValueError("replicas does not match len(seed_sequences)")

        self.graph = graph
        self.n = graph.num_vertices
        self.replicas = len(seed_sequences)
        self.algorithm = algorithm
        # Derived adjacency forms come from the shared structure cache;
        # ``adjacency``/``_adj_t`` stay as the aliases collectors and
        # tests read (the matrix is symmetric, so both are one object).
        self.structure = structure_for(graph)
        self.adjacency = self.structure.csr
        self._adj_t = self.structure.csr_t
        self.kernel = HearKernel(self.structure)
        self.ell_max = np.asarray(policy.ell_max, dtype=np.int64)
        self.rngs = [rng_from_sequence(s) for s in seed_sequences]
        # Per-replica stress models: the derivation draw (if any)
        # happens here, before ``randomize_levels`` — the same stream
        # position as in a solo engine's constructor.
        self._stress: List[StressState] = [
            bind_stress_models(self.n, channel, scheduler, rng)
            for rng in self.rngs
        ]
        self._ideal = all(s.ideal for s in self._stress)
        #: Per-replica bound channels (perturbation counters live here).
        self.channels: List["BoundChannel"] = [
            s.channel for s in self._stress
        ]
        # Levels are stored as int32: they live in [−ℓmax, ℓmax], far
        # inside int32 range, and the per-round update is memory-bound —
        # halving the element width halves the traffic of every gather,
        # arithmetic op, and scatter below.  All arithmetic is exact, so
        # trajectories are bit-identical to the int64 layout; consumers
        # that need int64 (observability, result comparison) cast at
        # their own boundary.
        self.levels = np.ones((self.replicas, self.n), dtype=np.int32)
        self.round_index = 0
        self._single = algorithm == "single"
        self._floor: npt.NDArray[np.int64] = (
            -self.ell_max if self._single else np.zeros_like(self.ell_max)
        )
        self._ell_max32 = self.ell_max.astype(np.int32)
        self._floor32 = self._floor.astype(np.int32)
        # Round-scratch buffers, reused every step: the uniform draws,
        # the hear output (two channels stack beep1/beep2, hence 2R rows),
        # and the level-update intermediates.  Only the beep matrix is
        # freshly allocated per round — it escapes to collectors.
        self._draws = np.empty((self.replicas, self.n), dtype=np.float64)
        self._heard = np.empty((2 * self.replicas, self.n), dtype=bool)
        self._stack = (
            None
            if self._single
            else np.empty((2 * self.replicas, self.n), dtype=bool)
        )
        self._up = np.empty((self.replicas, self.n), dtype=np.int32)
        self._down = np.empty((self.replicas, self.n), dtype=np.int32)
        self._sel = np.empty((self.replicas, self.n), dtype=np.int32)
        self._p_idx = np.empty((self.replicas, self.n), dtype=np.int32)
        self._p_buf = np.empty((self.replicas, self.n), dtype=np.float64)
        self._neg_ell_max = -self._ell_max32
        # Per-replica block pre-draw: each replica's uniforms are pulled
        # from its own generator ``_draw_block`` rounds at a time, then
        # served round by round from ``_blocks``.  A replica only ever
        # consumes a contiguous prefix of its stream (retired replicas
        # never step again), so the values each round sees — and hence
        # every trajectory — are bit-identical to drawing one ``random``
        # per round; only the Python call overhead is amortized.  The
        # generator may end up to ``_draw_block − 1`` rounds ahead of the
        # last consumed draw, which nothing downstream observes.
        self._draw_block = max(1, 16384 // max(1, self.n))
        self._blocks = np.empty(
            (self.replicas, self._draw_block, self.n), dtype=np.float64
        )
        self._cursor = np.full(self.replicas, self._draw_block, dtype=np.intp)
        self._draw_fns = [rng.random for rng in self.rngs]
        # Candidate MIS rows stashed by the last ``_legal_rows`` call
        # (None when that pass found no candidates or never ran).
        self._mis_scratch: Optional[
            Tuple[npt.NDArray[np.intp], npt.NDArray[np.bool_]]
        ] = None
        # Per-call legality vector, sliced to the active row count —
        # shape (R,), so it survives rebinds untouched.  ``_legal_rows``
        # returns views of it; ``legal_mask`` copies before publishing.
        self._legal_scratch = np.empty(self.replicas, dtype=bool)
        self._p_table = self._build_p_table()
        # The fused round kernel: :meth:`run` delegates the whole
        # retirement loop to it when the run is eligible (ideal stress
        # models, no collector, aligned cursors).  Built on the first
        # such run and re-targeted by :meth:`rebind`.
        self._fused: Optional[RoundKernel] = None

    def _build_p_table(self) -> Optional[npt.NDArray[np.float64]]:
        """Beep-probability lookup table for uniform-ℓmax policies.

        With one global ``L = ℓmax`` the Figure-1 activation depends only
        on the level, so ``p = table[level + L]`` replaces the per-round
        clip/power/masked-assignment chain with a single fancy index.
        Entries are computed by the *same* ``np.power`` call as the
        direct formula, so probabilities are bit-identical:

        * ``table[0..L] = 1.0`` (levels ≤ 0 beep always);
        * ``table[L+k] = 2^−k`` for ``0 < k < L``;
        * ``table[2L] = 0.0`` (level ℓmax never beeps on channel 1).

        The two-channel engine indexes the same table (levels ∈ [0, L]):
        level 0 maps to 1.0 = 2^0 and the 0.0 entry at level L is masked
        out by the activity band, exactly as in the direct formula.
        """
        if self.ell_max.size == 0:
            return None
        lo = int(self.ell_max.min())
        hi = int(self.ell_max.max())
        if lo != hi or hi < 1 or hi > MAX_EXPONENT:
            return None
        exponent = np.arange(2 * hi + 1, dtype=np.float64) - float(hi)
        table = np.power(2.0, -np.clip(exponent, 0.0, float(MAX_EXPONENT)))
        table[: hi + 1] = 1.0
        table[2 * hi] = 0.0
        return table

    # ------------------------------------------------------------------
    # Topology rebinding (mirrors EngineBase.rebind, all replicas at once)
    # ------------------------------------------------------------------
    def rebind(
        self,
        structure: GraphStructure,
        policy: Optional[EllMaxPolicy] = None,
    ) -> None:
        """Swap in a new (patched) structure, carrying all replica levels.

        The common case — a fixed-``n`` delta, which is every serving op
        except an id-space-growing ADD_NODE — leaves every ``(·, n)``
        buffer shape-stable: the per-replica pre-drawn uniform blocks,
        their cursors, and the ping-pong level buffers all stay valid, so
        replica ``k``'s random stream continues exactly where it was (the
        bit-identical replica contract keeps holding across the delta).

        When the id space *grows* (``policy`` then required), every
        per-vertex buffer changes shape: scratch is reallocated, carried
        levels are extended with the canonical start level 1, and each
        replica's unconsumed pre-drawn uniforms are discarded (the next
        step refills blocks at the new width).  Discarding is
        deterministic — a replay of the same op stream discards at the
        same points — but the stream no longer matches a solo run's,
        which is why the equivalence tests only ever rebind at fixed n.
        """
        if policy is not None:
            if policy.num_vertices != structure.n:
                raise ValueError("policy size does not match structure size")
            new_ell = np.asarray(policy.ell_max, dtype=np.int64)
        elif structure.n != self.n:
            raise ValueError(
                "rebind across a vertex-id-space change requires a policy"
            )
        else:
            new_ell = self.ell_max
        old_n = self.n
        self.graph = structure.graph
        self.structure = structure
        self.n = structure.n
        self.adjacency = structure.csr
        self._adj_t = structure.csr_t
        self.kernel = HearKernel(structure)
        self.ell_max = new_ell
        self._floor = (
            -self.ell_max if self._single else np.zeros_like(self.ell_max)
        )
        self._ell_max32 = self.ell_max.astype(np.int32)
        self._floor32 = self._floor.astype(np.int32)
        self._neg_ell_max = -self._ell_max32
        self._p_table = self._build_p_table()
        if self._fused is not None:
            self._fused.rebind(self.kernel, self.ell_max)
        self._mis_scratch = None
        if self.n != old_n:
            n = self.n
            levels = np.ones((self.replicas, n), dtype=np.int32)
            levels[:, :old_n] = self.levels
            self.levels = levels
            self._draws = np.empty((self.replicas, n), dtype=np.float64)
            self._heard = np.empty((2 * self.replicas, n), dtype=bool)
            self._stack = (
                None
                if self._single
                else np.empty((2 * self.replicas, n), dtype=bool)
            )
            self._up = np.empty((self.replicas, n), dtype=np.int32)
            self._down = np.empty((self.replicas, n), dtype=np.int32)
            self._sel = np.empty((self.replicas, n), dtype=np.int32)
            self._p_idx = np.empty((self.replicas, n), dtype=np.int32)
            self._p_buf = np.empty((self.replicas, n), dtype=np.float64)
            self._draw_block = max(1, 16384 // max(1, n))
            self._blocks = np.empty(
                (self.replicas, self._draw_block, n), dtype=np.float64
            )
            self._cursor = np.full(self.replicas, self._draw_block, dtype=np.intp)
        np.clip(self.levels, self._floor32, self._ell_max32, out=self.levels)
        # Stress models follow the id space (scheduler clocks/carriers
        # re-bind on growth; channels persist) — mirrors EngineBase.
        for stress in self._stress:
            stress.rebind(self.n)

    # ------------------------------------------------------------------
    # Level management (mirrors EngineBase, one row per replica)
    # ------------------------------------------------------------------
    def _floor_vector(self) -> npt.NDArray[np.int64]:
        return self._floor

    def set_levels(self, levels: npt.ArrayLike) -> None:
        """Install an (R, n) level matrix (validated, not clamped)."""
        levels = np.asarray(levels, dtype=np.int64)
        if levels.shape != (self.replicas, self.n):
            raise ValueError(f"levels must have shape ({self.replicas}, {self.n})")
        floor = self._floor_vector()
        if np.any(levels < floor) or np.any(levels > self.ell_max):
            raise ValueError("levels outside the admissible range")
        self.levels = levels.astype(np.int32)

    def randomize_levels(self) -> None:
        """Per-replica uniform arbitrary configuration.

        Consumes one ``integers`` draw from each replica's generator —
        the same call, in the same position of the stream, as the solo
        engines' ``randomize_levels``.
        """
        floor = self._floor_vector()
        span = self.ell_max - floor + 1
        for r, rng in enumerate(self.rngs):
            # Same ``integers`` call (and hence the same drawn values) as
            # the solo engines; the shift lands straight in the level row.
            np.add(rng.integers(0, span, size=self.n), floor, out=self.levels[r])

    # ------------------------------------------------------------------
    # Batched stability structure: all masks are (R', n) row blocks.
    # ------------------------------------------------------------------
    def _received(self, rows: npt.NDArray[np.int32]) -> npt.NDArray[np.int32]:
        """``rows @ A`` for an (R', n) int block, C-contiguous output.

        Back-compat count interface (the hear kernel returns booleans); the
        transpose happens *before* the sparse product so the result needs
        no trailing copy.
        """
        cols = np.ascontiguousarray(rows.T)
        received = self._adj_t.dot(cols)
        return np.ascontiguousarray(received.T)

    def _mis_mask_rows(
        self, levels: npt.NDArray[np.int32]
    ) -> npt.NDArray[np.bool_]:
        blocked = self.kernel.hear_rows(levels != self._ell_max32)
        return (levels == self._floor32) & ~blocked

    def mis_mask(self) -> npt.NDArray[np.bool_]:
        """Boolean (R, n) mask of ``I_t`` per replica."""
        return self._mis_mask_rows(self.levels)

    def stable_mask(self) -> npt.NDArray[np.bool_]:
        """Boolean (R, n) mask of ``S_t = I_t ∪ N(I_t)`` per replica."""
        in_mis = self.mis_mask()
        dominated = self.kernel.hear_rows(in_mis)
        return in_mis | dominated

    def _legal_rows(
        self, levels: npt.NDArray[np.int32]
    ) -> npt.NDArray[np.bool_]:
        # Prune (same necessary condition as EngineBase.is_legal): a
        # legal row holds only floor/ℓmax levels.  Rows failing it — in
        # practice every still-converging replica — skip the hear calls.
        candidates = np.all(
            (levels == self._floor32) | (levels == self._ell_max32), axis=1
        )
        legal = self._legal_scratch[: levels.shape[0]]
        legal[:] = False
        self._mis_scratch = None
        if not candidates.any():
            return legal
        rows = levels if candidates.all() else levels[candidates]
        in_mis = self._mis_mask_rows(rows)
        dominated = self.kernel.hear_rows(in_mis)
        others_ok = (rows == self._ell_max32) & dominated
        legal[candidates] = np.all(in_mis | others_ok, axis=1)
        # Stash the candidate MIS rows (positions relative to ``levels``)
        # so the run loop can read a retiring replica's MIS straight out
        # of this legality pass instead of re-deriving it per replica.
        self._mis_scratch = (np.flatnonzero(candidates), in_mis)
        return legal

    def legal_mask(self) -> npt.NDArray[np.bool_]:
        """Boolean (R,) vector: which replicas sit in a legal configuration."""
        # ``_legal_rows`` hands back a view of the reused legality
        # scratch; copy so the public result survives the next check.
        return self._legal_rows(self.levels).copy()

    def mis_vertices(self, replica: int) -> "frozenset[int]":
        row = self._mis_mask_rows(self.levels[replica : replica + 1])[0]
        return frozenset(np.flatnonzero(row).tolist())

    # ------------------------------------------------------------------
    # Stress helpers (no-ops on the ideal fast path, which never calls
    # them): per-replica scheduler gating and channel perturbation,
    # matching the solo engines row by row.
    # ------------------------------------------------------------------
    def _gate_rows(
        self,
        beep1: npt.NDArray[np.bool_],
        beep2: Optional[npt.NDArray[np.bool_]],
        active_idx: npt.NDArray[np.intp],
    ) -> List[Optional[npt.NDArray[np.bool_]]]:
        """Begin the round and apply scheduler gating per stepped row.

        Mutates the fresh beep rows in place (carrier transmit) and
        returns each row's activity mask (``None`` for synchronous).
        """
        masks: List[Optional[npt.NDArray[np.bool_]]] = []
        for i, r in enumerate(active_idx):
            stress = self._stress[r]
            stress.begin_round()
            mask = stress.active_mask(self.round_index)
            masks.append(mask)
            if mask is not None:
                stress.transmit(0, beep1[i], mask)
                if beep2 is not None:
                    stress.transmit(1, beep2[i], mask)
        return masks

    def _perturb_rows(
        self,
        heard1: npt.NDArray[np.bool_],
        heard2: Optional[npt.NDArray[np.bool_]],
        active_idx: npt.NDArray[np.intp],
    ) -> None:
        """Apply each replica's channel to its heard rows, in place.

        Per replica the order is ``heard1`` then ``heard2`` — the same
        documented order as the solo two-channel engine, which keeps
        the per-replica channel streams aligned with solo runs.
        """
        for i, r in enumerate(active_idx):
            stress = self._stress[r]
            stress.apply_channel(heard1[i])
            if heard2 is not None:
                stress.apply_channel(heard2[i])

    @staticmethod
    def _hold_delayed(
        new_levels: npt.NDArray[np.int32],
        prior: npt.NDArray[np.int32],
        masks: List[Optional[npt.NDArray[np.bool_]]],
    ) -> None:
        """Restore delayed vertices' pre-round levels, row by row."""
        for i, mask in enumerate(masks):
            if mask is not None:
                np.copyto(new_levels[i], prior[i], where=~mask)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(
        self,
        active: Optional[npt.NDArray[np.bool_]] = None,
        active_idx: Optional[npt.NDArray[np.intp]] = None,
    ) -> npt.NDArray[np.bool_]:
        """One synchronous round for the ``active`` replicas (default all).

        Returns the (R', n) channel-1 beep matrix of the stepped rows.
        Inactive replicas' levels and generators are left untouched, so a
        retired replica's state stays frozen at its stabilization round.
        ``active_idx`` (sorted replica indices) short-circuits the mask
        conversion when the caller already maintains the index form.
        """
        if active_idx is None:
            if active is None:
                active_idx = np.arange(self.replicas)
            else:
                active_idx = np.nonzero(np.asarray(active, dtype=bool))[0]
        k = active_idx.size
        if k == 0:
            return np.zeros((0, self.n), dtype=bool)

        # With every replica still active the level block is the stored
        # matrix itself (no gather); otherwise a fancy-index copy.
        full = k == self.replicas
        levels = self.levels if full else self.levels[active_idx]
        # Serve this round's uniforms from the replicas' pre-drawn blocks
        # (value-identical to one ``random(n)`` per round — see
        # ``_blocks`` in ``__init__``), refilling each exhausted block
        # from its own generator.
        blocks, cursor, block = self._blocks, self._cursor, self._draw_block
        exhausted = cursor[active_idx] == block
        if exhausted.any():
            for r in active_idx[exhausted]:
                self._draw_fns[r](out=blocks[r])
            cursor[active_idx[exhausted]] = 0
        positions = cursor[active_idx]
        first = positions[0]
        if np.all(positions == first):
            # In-order stepping keeps every active cursor aligned: a
            # strided view (full) or one fancy gather replaces k copies.
            draws = blocks[:, first] if full else blocks[active_idx, first]
        else:
            draws = self._draws[:k]
            for i, r in enumerate(active_idx):
                np.copyto(draws[i], blocks[r, positions[i]])
        cursor[active_idx] = positions + 1

        up = self._up[:k]
        np.add(levels, 1, out=up)
        np.minimum(up, self._ell_max32, out=up)
        stressed = not self._ideal
        if self._single:
            p = self._beep_probabilities(levels)
            beeps = draws < p
            row_masks = (
                self._gate_rows(beeps, None, active_idx) if stressed else []
            )
            heard = self.kernel.hear_rows(beeps, out=self._heard[:k])
            if stressed:
                self._perturb_rows(heard, None, active_idx)
            # Branch-free select chain, lowest priority first (matches
            # the solo ``np.where(heard, up, np.where(beeps, -ℓmax,
            # down))``).  ``x + (y − x)·mask`` equals ``where(mask, y,
            # x)`` exactly in integer arithmetic, and unlike a masked
            # ``copyto`` its cost does not blow up at the ~30–50 % beep
            # densities this algorithm lives at (branchy masked copies
            # cost ~10× more there than at the extremes).
            new_levels = self._down if full else self._down[:k]
            sel = self._sel if full else self._sel[:k]
            np.subtract(levels, 1, out=new_levels)
            np.maximum(new_levels, 1, out=new_levels)
            np.subtract(self._neg_ell_max, new_levels, out=sel)
            np.multiply(sel, beeps, out=sel)
            np.add(new_levels, sel, out=new_levels)
            np.subtract(up, new_levels, out=sel)
            np.multiply(sel, heard, out=sel)
            np.add(new_levels, sel, out=new_levels)
            if stressed:
                # ``levels`` still holds the pre-round block (the select
                # chain wrote into the scratch buffer): delayed vertices
                # keep it verbatim.
                self._hold_delayed(new_levels, levels, row_masks)
            if full:
                # Ping-pong: the freshly written buffer becomes the level
                # matrix and the old one the next round's scratch.
                self.levels, self._down = self._down, self.levels
            else:
                self.levels[active_idx] = new_levels
            beep1 = beeps
        else:
            p1 = self._beep_probabilities(levels)
            active_band = (levels > 0) & (levels < self._ell_max32)
            beep1 = active_band & (draws < p1)
            beep2 = levels == 0
            row_masks = (
                self._gate_rows(beep1, beep2, active_idx) if stressed else []
            )
            # One hear call for both channels: stack the beep rows.
            stacked = cast(npt.NDArray[np.bool_], self._stack)[: 2 * k]
            stacked[:k] = beep1
            stacked[k:] = beep2
            heard = self.kernel.hear_rows(stacked, out=self._heard[: 2 * k])
            heard1 = heard[:k]
            heard2 = heard[k:]
            if stressed:
                self._perturb_rows(heard1, heard2, active_idx)
            down = self._down[:k]
            np.subtract(levels, 1, out=down)
            np.maximum(down, 1, out=down)
            # The update below writes ``levels`` in place, so delayed
            # vertices' pre-round values must be snapshotted first.
            prior = (
                levels.copy()
                if any(mask is not None for mask in row_masks)
                else None
            )
            # Solo priority order heard2 > heard1 > beep1 > ~beep2,
            # applied in reverse.  ``levels`` doubles as the "unchanged"
            # base case: a fancy-index copy when some replicas are
            # retired, the stored matrix itself (updated in place — every
            # read above happened already) when all are active.
            new_levels = levels
            np.copyto(new_levels, down, where=~beep2)
            np.copyto(new_levels, 0, where=beep1)
            np.copyto(new_levels, up, where=heard1)
            np.copyto(new_levels, self._ell_max32, where=heard2)
            if prior is not None:
                self._hold_delayed(new_levels, prior, row_masks)
            if not full:
                self.levels[active_idx] = new_levels
        self.round_index += 1
        return beep1

    def _beep_probabilities(
        self, levels: npt.NDArray[np.int64]
    ) -> npt.NDArray[np.float64]:
        """Per-entry channel-1 beep probability for an (R', n) block."""
        table = self._p_table
        if table is not None:
            # One fancy index for both algorithms: single-channel levels
            # span [−L, L]; two-channel levels sit in [0, L] and the
            # table's 0.0 entry at L is masked out by the activity band.
            k = levels.shape[0]
            idx = self._p_idx[:k]
            np.add(levels, int(self.ell_max[0]), out=idx)
            p = self._p_buf[:k]
            np.take(table, idx, out=p)
            return p
        # Non-uniform ℓmax fallback: same clip/negate/power chain as the
        # solo engines, landed in the reused probability buffer (the
        # clip is a cast-on-store — value-identical to ``.astype``).
        k = levels.shape[0]
        p = self._p_buf[:k]
        np.clip(levels, 0, MAX_EXPONENT, out=p)
        np.negative(p, out=p)
        np.power(2.0, p, out=p)
        if self._single:
            p[levels <= 0] = 1.0
            p[levels >= self.ell_max] = 0.0
        return p

    # ------------------------------------------------------------------
    def run(
        self,
        max_rounds: int = 100_000,
        check_every: int = 1,
        arbitrary_start: bool = False,
        initial_levels: Optional[npt.ArrayLike] = None,
        collector: Optional["BatchedCollector"] = None,
    ) -> BatchedResult:
        """Drive every replica to its first legal configuration.

        The loop mirrors :meth:`repro.core.engines.base.EngineBase.until_stable`
        exactly — legality observed before stepping at rounds ``0,
        check_every, 2·check_every, …`` plus at budget exhaustion — so
        each replica's ``rounds`` equals the solo run's.  Without a
        collector, under the perfect channel and synchronous scheduler,
        and with aligned draw cursors, the loop runs in the fused
        :class:`~repro.core.kernels.RoundKernel`, byte-identical to the
        :meth:`step` loop below.

        ``collector`` (a :class:`repro.obs.BatchedCollector`) observes the
        active rows before every step and the channel-1 beeps after; its
        per-row legality — the exact :meth:`_legal_rows` formula — is
        *reused* for retirement, so observability shares the legality
        matvecs instead of duplicating them.  Collectors read but never
        mutate state and draw no randomness, so trajectories are
        bit-identical with or without one.
        """
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        if collector is not None:
            collector.view.adopt_engine(self)
        if initial_levels is not None:
            self.set_levels(initial_levels)
        elif arbitrary_start:
            self.randomize_levels()

        if self._ideal and collector is None:
            draws = BlockDraws(self._blocks, self._cursor, self._draw_fns)
            # Aligned cursors are a precondition of the fused serve loop;
            # they diverge only after :meth:`step` advanced a subset of
            # the replicas (a step-loop run that retired some of them
            # mid-block) — the step loop runs then.
            if draws.aligned():
                return self._run_fused(draws, max_rounds, check_every)

        results: List[Optional[VectorizedResult]] = [None] * self.replicas
        active = np.ones(self.replicas, dtype=bool)
        active_idx = np.arange(self.replicas)
        executed = 0
        while active_idx.size:
            should_check = executed % check_every == 0 or executed >= max_rounds
            scratch = None
            if collector is not None:
                legal = collector.observe_structure(self.levels, active_idx)
            elif should_check:
                rows = (
                    self.levels
                    if active_idx.size == self.replicas
                    else self.levels[active_idx]
                )
                legal = self._legal_rows(rows)
                scratch = self._mis_scratch
            if should_check and legal.any():
                for i in np.nonzero(legal)[0]:
                    r = int(active_idx[i])
                    if scratch is not None:
                        # The legality pass already holds this row's MIS
                        # mask — read it instead of re-deriving it.
                        positions, mis_rows = scratch
                        j = int(np.searchsorted(positions, i))
                        mis = frozenset(np.flatnonzero(mis_rows[j]).tolist())
                    else:
                        mis = self.mis_vertices(r)
                    results[r] = VectorizedResult(
                        stabilized=True,
                        rounds=executed,
                        mis=mis,
                        final_levels=self.levels[r].copy(),
                    )
                    active[r] = False
                    if collector is not None:
                        collector.finalize_replica(r, True, executed)
                active_idx = active_idx[~legal]
            if executed >= max_rounds:
                for r in active_idx:
                    results[int(r)] = VectorizedResult(
                        stabilized=False,
                        rounds=executed,
                        mis=frozenset(),
                        final_levels=self.levels[int(r)].copy(),
                    )
                    active[int(r)] = False
                    if collector is not None:
                        collector.finalize_replica(int(r), False, executed)
                break
            if active_idx.size:
                beep1 = self.step(active, active_idx=active_idx)
                if collector is not None:
                    collector.observe_beeps(beep1, active_idx)
            executed += 1
        return BatchedResult(results=cast(List[VectorizedResult], results))

    def _run_fused(
        self, draws: BlockDraws, max_rounds: int, check_every: int
    ) -> BatchedResult:
        """Delegate the retirement loop to the fused round kernel.

        The kernel serves uniforms from the engine's own pre-drawn
        blocks/cursors (``BlockDraws``), advances ``self.levels`` in
        place, and records each replica's outcome at its retirement
        round — byte-identical to the step loop above, replica for
        replica (asserted by the fused-kernel identity tests).
        """
        if self._fused is None:
            self._fused = RoundKernel(
                self.kernel,
                algorithm=self.algorithm,
                ell_max=self.ell_max,
                replicas=self.replicas,
            )
        outcomes, executed = self._fused.run_block(
            self.levels, draws, max_rounds, check_every
        )
        draws.finish()
        self.round_index += executed
        results = [
            VectorizedResult(
                stabilized=o.stabilized,
                rounds=o.rounds,
                mis=o.mis,
                final_levels=o.final_levels,
            )
            for o in outcomes
        ]
        return BatchedResult(results=results)


def simulate_batched(
    graph: Graph,
    policy: EllMaxPolicy,
    replicas: Optional[int] = None,
    seed: SeedSpec = None,
    seed_sequences: Optional[Sequence[np.random.SeedSequence]] = None,
    algorithm: str = "single",
    max_rounds: int = 100_000,
    arbitrary_start: bool = False,
    check_every: int = 1,
    collector: Optional["BatchedCollector"] = None,
    channel: "ChannelLike" = None,
    scheduler: "SchedulerLike" = None,
) -> BatchedResult:
    """Run R replicas of Algorithm 1/2 to stabilization, batched."""
    engine = BatchedEngine(
        graph,
        policy,
        replicas=replicas,
        seed=seed,
        seed_sequences=seed_sequences,
        algorithm=algorithm,
        channel=channel,
        scheduler=scheduler,
    )
    return engine.run(
        max_rounds=max_rounds,
        check_every=check_every,
        arbitrary_start=arbitrary_start,
        collector=collector,
    )
