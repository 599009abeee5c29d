"""The engine state: R independent runs as one level block, one hear a round.

Repetition blocks dominate every sweep behind Theorems 2.1/2.2 and
Corollary 2.3: the same graph and policy are simulated for 20+ seeds.
:class:`BatchedEngine` runs R such replicas as an ``(R, n)`` int32
level block, so the reception of *all* replicas is one
:meth:`~repro.core.kernels.HearKernel.hear_rows` call a round.  It is
the only engine state, for all three algorithm tags (the two-state
baseline's block holds 0/1 with 1 = IN): a solo engine
(:class:`~repro.core.engines.base.EngineBase`) is a facade over a
one-row block on the caller's generator.

Bit-identical replica contract
------------------------------
Each replica owns one ``numpy.random.Generator`` (``rngs=``, or the
children of ``SeedSequence(seed).spawn(replicas)``) and consumes it in
the solo order: the stress models' optional derivation draw at
construction, one optional ``integers`` draw for the arbitrary start,
then one ``random(out=row)`` of ``n`` doubles per round it steps
(:class:`~repro.core.kernels.PerRoundDraws`).  Nothing is drawn ahead,
so every generator stops exactly where its last consumed draw ended —
across retirement, a hand-stepped row subset and any rebind — and
replica ``k`` reproduces a solo run on the same generator bit for bit
(``tests/test_batched_engine.py``, ``tests/test_engine_identity.py``).
This is what makes the batched sweep executor byte-identical to the
serial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple, cast

import numpy as np
import numpy.typing as npt

from ...devtools.seeding import SeedSpec, as_seed_sequence, rng_from_sequence
from ...graphs.graph import Graph
from ..kernels import (
    GraphStructure,
    HearKernel,
    PerRoundDraws,
    RoundKernel,
    structure_for,
)
from ..kernels.round import (
    ROUND_ALGORITHMS, level_floor, level_range, pruned_legality, structure_pass,
)
from ..knowledge import EllMaxPolicy
from .base import StepOutput, StressState, VectorizedResult, bind_stress_models

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...beeping.channels import BoundChannel, ChannelLike
    from ...beeping.schedulers import SchedulerLike
    from ...obs.collectors import BatchedCollector, RunCollector

__all__ = ["BatchedEngine", "BatchedResult", "simulate_batched"]


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
    """R replicas of one algorithm on one graph, stepped together.

    Parameters
    ----------
    graph, policy:
        The shared topology and ℓmax policy (``None`` for the two-state
        tag, whose band is fixed: see
        :func:`~repro.core.kernels.round.level_floor`).
    replicas:
        Number of independent replicas R.
    seed:
        Root of the replica seed tree; the replica generators are
        ``rng_from_sequence`` of ``SeedSequence(seed).spawn(replicas)``.
    rngs:
        Explicit per-replica generators overriding ``seed``/``replicas``
        (``replicas`` then defaults to their count).  The engine draws
        from them in place: this is how the sweep executor hands the
        *same* streams to batched and solo paths, and how a solo
        facade runs a one-row block on the caller's generator.
    algorithm:
        ``"single"`` (Algorithm 1), ``"two_channel"`` (Algorithm 2) or
        ``"constant_state"`` (the two-state baseline: 1 = IN, 0 = OUT).
    channel, scheduler:
        Stress models (:mod:`repro.beeping.channels` /
        :mod:`repro.beeping.schedulers`).  Each replica binds its own
        model state and derives its streams from its own generator
        before any level is drawn, so the bit-identical replica
        contract holds under stress too.  The defaults draw nothing
        and keep the historical paths byte for byte.
    """

    def __init__(
        self,
        graph: Graph,
        policy: Optional[EllMaxPolicy],
        replicas: Optional[int] = None,
        seed: SeedSpec = None,
        rngs: Optional[Sequence[np.random.Generator]] = None,
        algorithm: str = "single",
        channel: "ChannelLike" = None,
        scheduler: "SchedulerLike" = None,
    ):
        if algorithm not in ROUND_ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; choose one of {ROUND_ALGORITHMS}"
            )
        self.algorithm = algorithm
        self._constant = algorithm == "constant_state"
        self._check_policy(policy, graph.num_vertices)
        if rngs is None:
            if replicas is None or replicas < 1:
                raise ValueError("replicas must be >= 1 when rngs is not given")
            rngs = [rng_from_sequence(s) for s in as_seed_sequence(seed).spawn(replicas)]
        elif replicas is not None and replicas != len(rngs):
            raise ValueError("replicas does not match len(rngs)")

        self.rngs = list(rngs)
        self.replicas = len(self.rngs)
        self._two = algorithm == "two_channel"
        self.n = graph.num_vertices
        # Per-replica stress models: any derivation draw happens here,
        # before ``randomize_levels``.
        self._stress: List[StressState] = [
            bind_stress_models(self.n, channel, scheduler, rng)
            for rng in self.rngs
        ]
        # What the round kernel gets: nothing on the ideal defaults.
        self._stress_rows: Optional[List[StressState]] = (
            None if all(s.ideal for s in self._stress) else self._stress
        )
        #: Per-replica bound channels (perturbation counters live here).
        self.channels: List["BoundChannel"] = [s.channel for s in self._stress]
        # The round kernel, built on first use, re-targeted by rebind.
        self._fused: Optional[RoundKernel] = None
        self._bind(structure_for(graph), policy)
        # int32 levels, the engine's state at every boundary: the round
        # kernel steps them on its own narrow (int8 while ℓmax ≤ 63)
        # planes and hands int32 back; int64 consumers (the solo
        # facade) cast at their own boundary.
        self.levels = np.ones((self.replicas, self.n), dtype=np.int32)
        # The uniform-draw buffer every round fills in place, row by row.
        self._draws = np.empty((self.replicas, self.n), dtype=np.float64)
        self._draw_rows = list(self._draws)
        self._all_rows = np.arange(self.replicas)
        self.round_index = 0

    # ------------------------------------------------------------------
    # Topology rebinding (the long-lived-service path)
    # ------------------------------------------------------------------
    def _check_policy(self, policy: Optional[EllMaxPolicy], n: int) -> None:
        """The level algorithms need a policy of size ``n``; the two-state tag none."""
        if self._constant:
            if policy is not None:
                raise ValueError("the constant_state tag takes no policy")
        elif policy is None:
            raise ValueError(f"the {self.algorithm} tag needs an ell_max policy")
        elif policy.num_vertices != n:
            raise ValueError("policy size does not match graph size")

    def _bind(
        self, structure: GraphStructure, policy: Optional[EllMaxPolicy]
    ) -> None:
        """Point the engine (and its kernel) at ``structure``/``policy``.

        Without a policy a level algorithm keeps its committed ℓmax,
        floor, range and their int32 copies; the two-state tag sets its
        fixed band (ℓmax role 0) at every bind.
        """
        self.structure = structure
        self.graph = structure.graph
        self.n = structure.n
        # ``adjacency`` stays as the alias collectors and tests read.
        self.adjacency = structure.csr
        self.kernel = HearKernel(structure)
        if self._constant:
            self.ell_max = np.zeros(self.n, dtype=np.int64)
        elif policy is not None:
            self.ell_max = np.asarray(policy.ell_max, dtype=np.int64)
        if self._constant or policy is not None:
            self._floor = level_floor(self.algorithm, self.ell_max)
            self._low, self._high = level_range(self.algorithm, self._floor, self.ell_max)
            self._ell_max32 = self.ell_max.astype(np.int32)
            self._floor32 = self._floor.astype(np.int32)
        if self._fused is not None:
            self._fused.rebind(self.kernel, self.ell_max)

    def rebind(
        self,
        structure: GraphStructure,
        policy: Optional[EllMaxPolicy] = None,
    ) -> None:
        """Swap in a new (patched) structure, carrying every replica's levels.

        The resumable half of the serving loop: the engine re-stabilizes
        *from the current levels*, the self-stabilization property the
        paper proves.  ``policy`` is required when the vertex-id space
        changed; otherwise the committed policy is kept.  Carried levels
        are kept verbatim, new vertices start at level 1, and every
        replica's stream continues exactly where it was.
        """
        if policy is not None or self._constant:
            self._check_policy(policy, structure.n)
        elif structure.n != self.n:
            raise ValueError(
                "rebind across a vertex-id-space change requires a policy"
            )
        old_n = self.n
        self._bind(structure, policy)
        if self.n != old_n:
            levels = np.ones((self.replicas, self.n), dtype=np.int32)
            levels[:, :old_n] = self.levels
            self.levels = levels
            self._draws = np.empty((self.replicas, self.n), dtype=np.float64)
            self._draw_rows = list(self._draws)
        if policy is not None:
            # A shrunk ℓmax could strand carried levels outside the
            # band; the committed uniform policies of the service never
            # do, but clamp so ``step`` sees admissible state.
            np.clip(self.levels, self._low, self._high, out=self.levels)
        # Stress models follow the id space: scheduler clocks/carriers
        # re-bind on growth, the channel (counters included) carries over.
        for stress in self._stress:
            stress.rebind(self.n)

    # ------------------------------------------------------------------
    # Level management (one row per replica)
    # ------------------------------------------------------------------
    def _floor_vector(self) -> npt.NDArray[np.int64]:
        """Per-vertex lowest admissible level (cached; treat as read-only)."""
        return self._floor

    def set_levels(self, levels: npt.ArrayLike) -> None:
        """Install an (R, n) level matrix (validated, not clamped)."""
        levels = np.asarray(levels, dtype=np.int64)
        if levels.shape != (self.replicas, self.n):
            raise ValueError(f"levels must have shape ({self.replicas}, {self.n})")
        if np.any(levels < self._low) or np.any(levels > self._high):
            raise ValueError("levels outside the admissible range")
        self.levels = levels.astype(np.int32)

    def randomize_levels(self) -> None:
        """Per-replica uniform arbitrary configuration (full RAM corruption).

        Consumes one ``integers`` draw of ``n`` values from each
        replica's generator, shifted by the range's low end straight
        into its level row.
        """
        span = self._high - self._low + 1
        for r, rng in enumerate(self.rngs):
            np.add(rng.integers(0, span, size=self.n), self._low, out=self.levels[r])

    # ------------------------------------------------------------------
    # Stability structure (paper Section 3): the kernels' one structure
    # pass on (R', n) row blocks.
    # ------------------------------------------------------------------
    def _structure(self, levels: npt.NDArray[np.int32]) -> Tuple[npt.NDArray[np.bool_], ...]:
        return structure_pass(self.kernel, levels, self._floor32, self._ell_max32)

    def mis_mask(self) -> npt.NDArray[np.bool_]:
        """Boolean (R, n) mask of ``I_t`` per replica."""
        return self._structure(self.levels)[0]

    def stable_mask(self) -> npt.NDArray[np.bool_]:
        """Boolean (R, n) mask of ``S_t = I_t ∪ N(I_t)`` per replica."""
        in_mis, dominated, _ = self._structure(self.levels)
        np.logical_or(in_mis, dominated, out=in_mis)
        return in_mis

    def legal_mask(self) -> npt.NDArray[np.bool_]:
        """Boolean (R,) vector: which replicas sit in a legal configuration.

        Pruned: a row with a level strictly inside (floor, ℓmax) skips
        the hears.
        """
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

    def step(
        self,
        active: Optional[npt.NDArray[np.bool_]] = None,
        active_idx: Optional[npt.NDArray[np.intp]] = None,
    ) -> StepOutput:
        """One synchronous round for the ``active`` replicas (default all).

        Returns fresh copies of the stepped rows' *emitted* beeps: the
        (R', n) beep matrix for Algorithm 1, the ``(beep1, beep2)`` pair
        for Algorithm 2.  Under a non-synchronous scheduler delayed
        vertices emit their stale carriers and keep their levels; a
        non-perfect channel perturbs heard1, then heard2.  Inactive
        replicas' levels, generators and stress states stay untouched.
        ``active_idx`` (sorted replica indices) replaces the mask.
        """
        if active_idx is None:
            if active is None:
                active_idx = self._all_rows
            else:
                active_idx = np.flatnonzero(np.asarray(active, dtype=bool))
        k = active_idx.size
        if k == 0:
            silent = np.zeros((0, self.n), dtype=bool)
            return (silent, silent) if self._two else silent
        # With every replica still active the level block is the stored
        # matrix itself (no gather); otherwise a fancy-index copy.
        full = k == self.replicas
        levels = self.levels if full else self.levels[active_idx]
        rngs, rows = self.rngs, self._draw_rows
        for i, r in enumerate(active_idx.tolist()):
            rngs[r].random(out=rows[i])
        draws = self._draws[:k]
        rows = self._stress_rows
        stress = None if rows is None else [rows[r] for r in active_idx]
        emitted = self._kernel().step(levels, draws, stress, self.round_index)
        if not full:
            self.levels[active_idx] = levels
        self.round_index += 1
        if self._two:
            return emitted[:k].copy(), emitted[k:].copy()
        return emitted.copy()

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

        Legality is observed before stepping at rounds ``0,
        check_every, 2·check_every, …`` plus at budget exhaustion, so
        each replica's ``rounds`` equals a solo run's.  Without a
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
            return BatchedResult(results=self._run_fused(max_rounds, check_every))

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
                        True, executed, self.mis_vertices(r), self.levels[r].copy()
                    )
                    collector.finalize_replica(r, True, executed)
                active_idx = active_idx[~legal]
            if executed >= max_rounds:
                for r in active_idx.tolist():
                    results[r] = VectorizedResult(
                        False, executed, frozenset(), self.levels[r].copy()
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

    def _run_fused(  # repro: cold
        self,
        max_rounds: int,
        check_every: int,
        observer: Optional["RunCollector"] = None,
    ) -> List[VectorizedResult]:
        """Delegate the retirement loop to the fused round kernel.

        Cold by annotation: this body runs once per *run*; the kernel's
        per-round loop is rooted separately.  It advances ``self.levels``
        in place and is byte-identical to a hand-driven :meth:`step`
        loop, generator positions included.  ``observer`` (a solo
        :class:`repro.obs.RunCollector`, one-row blocks only) is fed
        inside the kernel.
        """
        draws = PerRoundDraws(self.rngs, self._draws)
        outcomes, executed = self._kernel().run_block(
            self.levels, draws, max_rounds, check_every,
            self._stress_rows, self.round_index, observer,
        )
        self.round_index += executed
        return [
            VectorizedResult(o.stabilized, o.rounds, o.mis, o.final_levels)
            for o in outcomes
        ]


def simulate_batched(
    graph: Graph,
    policy: Optional[EllMaxPolicy],
    replicas: Optional[int] = None,
    seed: SeedSpec = None,
    rngs: Optional[Sequence[np.random.Generator]] = None,
    algorithm: str = "single",
    max_rounds: int = 100_000,
    arbitrary_start: bool = False,
    check_every: int = 1,
    collector: Optional["BatchedCollector"] = None,
    channel: "ChannelLike" = None,
    scheduler: "SchedulerLike" = None,
) -> BatchedResult:
    """Run R replicas of one algorithm to stabilization, batched."""
    engine = BatchedEngine(
        graph, policy, replicas=replicas, seed=seed, rngs=rngs,
        algorithm=algorithm, channel=channel, scheduler=scheduler,
    )
    return engine.run(
        max_rounds=max_rounds, check_every=check_every,
        arbitrary_start=arbitrary_start, collector=collector,
    )
