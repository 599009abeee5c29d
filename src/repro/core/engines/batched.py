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

The round itself is the :class:`~repro.core.kernels.RoundKernel`'s:
:meth:`BatchedEngine.step` gathers the stepped rows, serves their draws
from the pre-draw blocks and runs one kernel round on them, and
:meth:`BatchedEngine.run` hands every collector-free run to the
kernel's fused loop, stress models included.
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
from ..kernels.round import pruned_legality, structure_pass
from ..knowledge import EllMaxPolicy
from .base import StepOutput, StressState, VectorizedResult, bind_stress_models

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
        # ``adjacency`` stays as the alias collectors and tests read.
        self.structure = structure_for(graph)
        self.adjacency = self.structure.csr
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
        # What the round kernel gets: nothing on the ideal defaults.
        self._stress_rows: Optional[List[StressState]] = (
            None if all(s.ideal for s in self._stress) else self._stress
        )
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
        # Gather target for a round whose cursors are misaligned.
        self._draws = np.empty((self.replicas, self.n), dtype=np.float64)
        # The round kernel: :meth:`step` runs one of its rounds, and
        # :meth:`run` delegates the whole retirement loop to it when no
        # collector is attached.  Built on first use and re-targeted by
        # :meth:`rebind`.
        self._fused: Optional[RoundKernel] = None

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
        self.kernel = HearKernel(structure)
        self.ell_max = new_ell
        self._floor = (
            -self.ell_max if self._single else np.zeros_like(self.ell_max)
        )
        self._ell_max32 = self.ell_max.astype(np.int32)
        self._floor32 = self._floor.astype(np.int32)
        if self._fused is not None:
            self._fused.rebind(self.kernel, self.ell_max)
        if self.n != old_n:
            n = self.n
            levels = np.ones((self.replicas, n), dtype=np.int32)
            levels[:, :old_n] = self.levels
            self.levels = levels
            self._draws = np.empty((self.replicas, n), dtype=np.float64)
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
    # Batched stability structure: the kernels' one structure pass on
    # (R', n) row blocks.
    # ------------------------------------------------------------------
    def _structure(self, levels: npt.NDArray[np.int32]) -> Tuple[npt.NDArray[np.bool_], ...]:
        return structure_pass(self.kernel, levels, self._floor32, self._ell_max32)

    def mis_mask(self) -> npt.NDArray[np.bool_]:
        """Boolean (R, n) mask of ``I_t`` per replica."""
        return self._structure(self.levels)[0]

    def stable_mask(self) -> npt.NDArray[np.bool_]:
        """Boolean (R, n) mask of ``S_t = I_t ∪ N(I_t)`` per replica."""
        in_mis, dominated, _ = self._structure(self.levels)
        return in_mis | dominated

    def legal_mask(self) -> npt.NDArray[np.bool_]:
        """Boolean (R,) vector: which replicas sit in a legal configuration."""
        legal, _, _ = pruned_legality(
            self.kernel, self.levels, self._floor32, self._ell_max32
        )
        return legal

    def mis_vertices(self, replica: int) -> "frozenset[int]":
        row = self._structure(self.levels[replica : replica + 1])[0][0]
        return frozenset(np.flatnonzero(row).tolist())

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(
        self,
        active: Optional[npt.NDArray[np.bool_]] = None,
        active_idx: Optional[npt.NDArray[np.intp]] = None,
    ) -> StepOutput:
        """One synchronous round for the ``active`` replicas (default all).

        Returns fresh copies of the stepped rows' *emitted* beeps, as the
        solo engines do: the (R', n) beep matrix for Algorithm 1, the
        ``(beep1, beep2)`` pair of (R', n) matrices for Algorithm 2.
        Under a non-synchronous scheduler delayed vertices emit their
        stale carriers.  Inactive replicas' levels, generators and stress
        states are left untouched, so a retired replica's state stays
        frozen at its stabilization round.  ``active_idx`` (sorted
        replica indices) short-circuits the mask conversion when the
        caller already maintains the index form.
        """
        if active_idx is None:
            if active is None:
                active_idx = np.arange(self.replicas)
            else:
                active_idx = np.nonzero(np.asarray(active, dtype=bool))[0]
        k = active_idx.size
        if k == 0:
            silent = np.zeros((0, self.n), dtype=bool)
            return silent if self._single else (silent, silent)
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

        rows = self._stress_rows
        stress = None if rows is None else [rows[r] for r in active_idx]
        emitted = self._kernel().step(levels, draws, stress, self.round_index)
        if not full:
            self.levels[active_idx] = levels
        self.round_index += 1
        if self._single:
            return emitted.copy()
        return emitted[:k].copy(), emitted[k:].copy()

    def _kernel(self) -> RoundKernel:
        """The engine's round kernel, built on first use."""
        if self._fused is None:
            self._fused = RoundKernel(
                self.kernel,
                algorithm=self.algorithm,
                ell_max=self.ell_max,
                replicas=self.replicas,
            )
        return self._fused

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
        collector the loop runs in the fused
        :class:`~repro.core.kernels.RoundKernel`, stress models
        included, byte-identical to the :meth:`step` loop below.

        ``collector`` (a :class:`repro.obs.BatchedCollector`) observes the
        active rows before every step and the emitted beeps after; its
        per-row legality — the kernels' structure pass — is *reused* for
        retirement.  Collectors read but never mutate state and draw no
        randomness, so trajectories are bit-identical with or without
        one.
        """
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        if collector is not None:
            collector.view.adopt_engine(self)
        if initial_levels is not None:
            self.set_levels(initial_levels)
        elif arbitrary_start:
            self.randomize_levels()

        if collector is None:
            return self._run_fused(max_rounds, check_every)

        # The collector's step loop, through public ``step()``: bench/
        # test_bench.py::test_child_self_times_fit_inside_the_parent_span
        # asserts its ``engines.step`` span on ``sweep-stress``.
        results: List[Optional[VectorizedResult]] = [None] * self.replicas
        active_idx = np.arange(self.replicas)
        executed = 0
        while active_idx.size:
            should_check = executed % check_every == 0 or executed >= max_rounds
            legal = collector.observe_structure(self.levels, active_idx)
            if should_check and legal.any():
                for i in np.nonzero(legal)[0]:
                    r = int(active_idx[i])
                    results[r] = VectorizedResult(
                        stabilized=True,
                        rounds=executed,
                        mis=self.mis_vertices(r),
                        final_levels=self.levels[r].copy(),
                    )
                    collector.finalize_replica(r, True, executed)
                active_idx = active_idx[~legal]
            if executed >= max_rounds:
                for r in active_idx.tolist():
                    results[r] = VectorizedResult(
                        stabilized=False,
                        rounds=executed,
                        mis=frozenset(),
                        final_levels=self.levels[r].copy(),
                    )
                    collector.finalize_replica(r, False, executed)
                break
            if active_idx.size:
                # The fresh beep copies of ``step()`` are the per-round
                # cost of this collector-only loop.
                beeps = self.step(active_idx=active_idx)  # repro: allow[RPR801]
                collector.observe_beeps(beeps, active_idx)
            executed += 1
        return BatchedResult(results=cast(List[VectorizedResult], results))

    def _run_fused(self, max_rounds: int, check_every: int) -> BatchedResult:
        """Delegate the retirement loop to the fused round kernel.

        The kernel serves uniforms from the engine's own pre-drawn
        blocks/cursors (``BlockDraws``, which adopts misaligned cursors
        on its first refill), calls each replica's stress state,
        advances ``self.levels`` in place, and records each replica's
        outcome at its retirement round — byte-identical to a
        hand-driven :meth:`step` loop, replica for replica (asserted by
        the fused-kernel identity tests).
        """
        draws = BlockDraws(self._blocks, self._cursor, self._draw_fns)
        outcomes, executed = self._kernel().run_block(
            self.levels, draws, max_rounds, check_every,
            self._stress_rows, self.round_index,
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
