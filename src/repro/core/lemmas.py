"""Empirical verifiers for the paper's key lemmas.

The brief announcement proves its theorems through a chain of structural
lemmas.  Each verifier below runs instrumented executions and checks the
corresponding statement *as an observable property* — turning the
analysis section into executable assertions:

* **Lemma 3.1** (warm-up): for every round ``t > max_w ℓmax(w)``, every
  vertex satisfies ``ℓ_t(v) > 0 ∨ μ_t(v) > 0``.
* **Lemma 3.4** (solo-beep certificate): whenever round ``t`` is
  platinum for ``v``, some ``u ∈ N⁺(v)`` performed a solo beep (beeped
  with silent neighborhood) within the preceding ``ℓmax(u)`` rounds and
  was reset to ``−ℓmax(u)``.
* **Lemma 3.5** (platinum supply): starting from a non-platinum round
  with small ``η_t(v)``, the waiting time for the next platinum round
  has an exponential tail.  We estimate the empirical tail and check it
  is dominated by *some* exponential (the constant is far better than
  the paper's γ = e⁻³⁰).
* **Lemma 3.6(a)** flavor (stabilization after platinum): with uniform
  ``ℓmax`` (η′ ≡ 0), a platinum round leads to stabilization of the
  prominent vertex's component within ``ℓmax`` rounds.

These are used by ``tests/test_lemmas.py`` and ``benchmarks/
bench_invariants.py``; they operate on the vectorized engine for speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..devtools.seeding import SeedLike, resolve_rng
from ..graphs.graph import Graph
from .knowledge import EllMaxPolicy
from .engines import SingleChannelEngine

__all__ = [
    "Lemma31Report",
    "verify_lemma31",
    "Lemma34Report",
    "verify_lemma34",
    "PlatinumTailReport",
    "estimate_platinum_tail",
    "Lemma36Report",
    "verify_lemma36_uniform",
]


def _mu_positive(engine: SingleChannelEngine) -> np.ndarray:
    """Boolean mask: ``μ_t(v) > 0`` (vectorized; empty min counts as > 0)."""
    nonpositive = (engine.levels <= 0).astype(np.int32)
    # μ(v) > 0 iff no neighbor has level <= 0.
    return engine.adjacency.dot(nonpositive) == 0


@dataclass(frozen=True)
class Lemma31Report:
    """Outcome of a Lemma 3.1 verification run."""

    holds: bool
    horizon: int  # max_w ℓmax(w)
    first_violation_round: Optional[int]
    rounds_checked: int


def verify_lemma31(
    graph: Graph,
    policy: EllMaxPolicy,
    seed: SeedLike = None,
    extra_rounds: int = 200,
) -> Lemma31Report:
    """Check ``ℓ_t(v) > 0 ∨ μ_t(v) > 0`` for all ``t`` past the horizon.

    Starts from a uniformly random configuration (the lemma quantifies
    over all starts), runs through the warm-up horizon, then asserts the
    invariant for ``extra_rounds`` more rounds.
    """
    engine = SingleChannelEngine(graph, policy, seed=seed)
    engine.randomize_levels()
    horizon = policy.max_ell_max
    for _ in range(horizon + 1):
        engine.step()
    first_violation = None
    for offset in range(extra_rounds):
        ok = (engine.levels > 0) | _mu_positive(engine)
        if not bool(np.all(ok)):
            first_violation = horizon + 1 + offset
            break
        engine.step()
    return Lemma31Report(
        holds=first_violation is None,
        horizon=horizon,
        first_violation_round=first_violation,
        rounds_checked=extra_rounds,
    )


@dataclass(frozen=True)
class Lemma34Report:
    """Outcome of a Lemma 3.4 verification run."""

    holds: bool
    platinum_events_checked: int
    counterexample_round: Optional[int]


def verify_lemma34(
    graph: Graph,
    policy: EllMaxPolicy,
    seed: SeedLike = None,
    rounds: int = 400,
) -> Lemma34Report:
    """Check the solo-beep certificate behind every platinum round.

    For each round ``t`` past the horizon and each vertex ``u`` that is
    prominent at ``t``, some solo beep by ``u`` must have occurred in
    the window ``(t − ℓmax(u), t]`` — because prominence is reachable
    only through the ``ℓ ← −ℓmax`` reset, and levels rise by at most one
    per round.  We track actual solo-beep events and compare.
    """
    engine = SingleChannelEngine(graph, policy, seed=seed)
    engine.randomize_levels()
    n = graph.num_vertices
    ell = np.asarray(policy.ell_max)
    horizon = policy.max_ell_max
    last_solo = np.full(n, -(10**9), dtype=np.int64)

    checked = 0
    counterexample = None
    for t in range(horizon + rounds):
        beeps = engine.step()
        heard = engine.adjacency.dot(beeps.astype(np.int32)) > 0
        solo = beeps & ~heard
        last_solo[solo] = t
        if t <= horizon:
            continue
        prominent = engine.levels <= 0
        # Every currently prominent vertex must have a solo beep within
        # its ℓmax(u)-round window (the reset round itself included).
        window_ok = last_solo >= (t - ell)
        bad = prominent & ~window_ok
        checked += int(prominent.sum())
        if bad.any() and counterexample is None:
            counterexample = t
    return Lemma34Report(
        holds=counterexample is None,
        platinum_events_checked=checked,
        counterexample_round=counterexample,
    )


@dataclass(frozen=True)
class PlatinumTailReport:
    """Empirical waiting-time distribution for platinum rounds."""

    waiting_times: Tuple[int, ...]
    #: Smallest rate r such that P[τ ≥ k] ≤ e^(−r·k) for all observed k
    #: (0.0 if the sample is empty or degenerate).
    exponential_rate: float

    @property
    def mean_wait(self) -> float:
        if not self.waiting_times:
            return 0.0
        return float(np.mean(self.waiting_times))


def estimate_platinum_tail(
    graph: Graph,
    policy: EllMaxPolicy,
    seed: SeedLike = None,
    runs: int = 30,
) -> PlatinumTailReport:
    """Sample the waiting time until a *fixed* vertex's first platinum
    round, from arbitrary starts (the quantity bounded by Lemma 3.5).

    Vertex 0 is the observed vertex; each run restarts from a random
    configuration, executes the warm-up horizon, and then counts rounds
    until ``N⁺(0)`` contains a prominent vertex.
    """
    rng = resolve_rng(seed)
    horizon = policy.max_ell_max
    neighborhood = np.zeros(graph.num_vertices, dtype=bool)
    for u in graph.closed_neighborhood(0):
        neighborhood[u] = True

    waits: List[int] = []
    for _ in range(runs):
        engine = SingleChannelEngine(graph, policy, seed=rng)
        engine.randomize_levels()
        for _ in range(horizon + 1):
            engine.step()
        wait = 0
        while not bool(((engine.levels <= 0) & neighborhood).any()):
            engine.step()
            wait += 1
            if wait > 100_000:
                raise RuntimeError("no platinum round within 100k rounds")
        waits.append(wait)

    # Empirical tail: fit the tightest exponential dominating it.
    waits_sorted = sorted(waits)
    m = len(waits_sorted)
    rate = math.inf
    for i, k in enumerate(waits_sorted):
        tail = (m - i) / m  # P[τ >= k]
        if k > 0:
            rate = min(rate, -math.log(tail) / k) if tail < 1.0 else rate
    if not math.isfinite(rate):
        rate = 0.0
    return PlatinumTailReport(
        waiting_times=tuple(waits), exponential_rate=max(rate, 0.0)
    )


@dataclass(frozen=True)
class Lemma36Report:
    """Outcome of the uniform-ℓmax stabilization-after-platinum check."""

    holds: bool
    events_checked: int
    worst_lag: int


def verify_lemma36_uniform(
    graph: Graph,
    policy: EllMaxPolicy,
    seed: SeedLike = None,
    rounds: int = 600,
) -> Lemma36Report:
    """With uniform ℓmax (η′ ≡ 0): once a vertex becomes prominent past
    the warm-up horizon, it stabilizes into the MIS within ℓmax rounds —
    the Section-3 argument behind Theorem 2.1.

    Tracks, for every vertex, the time between its most recent
    prominence onset and its entry into ``I_t``; reports the worst lag.
    """
    values = set(policy.ell_max)
    if len(values) != 1:
        raise ValueError("verify_lemma36_uniform needs a uniform policy")
    ell_max = values.pop()

    engine = SingleChannelEngine(graph, policy, seed=seed)
    engine.randomize_levels()
    horizon = policy.max_ell_max
    for _ in range(horizon + 1):
        engine.step()

    n = graph.num_vertices
    onset = np.full(n, -1, dtype=np.int64)
    was_prominent = np.zeros(n, dtype=bool)
    worst_lag = 0
    events = 0
    holds = True
    for t in range(rounds):
        prominent = engine.levels <= 0
        newly = prominent & ~was_prominent
        onset[newly] = t
        in_mis = engine.mis_mask()
        # From prominence onset: neighbors reach ℓmax within ℓmax rounds
        # (the prominent vertex beeps every round), then one solo beep
        # completes the entry — 2·ℓmax + 2 is the worst-case lag.
        active_claims = (onset >= 0) & ~in_mis
        lag_exceeded = active_claims & (t - onset > 2 * ell_max + 2)
        if lag_exceeded.any():
            holds = False
        settled = (onset >= 0) & in_mis
        if settled.any():
            lags = (t - onset[settled]).max()
            worst_lag = max(worst_lag, int(lags))
            events += int(settled.sum())
            onset[settled] = -1
        # A vertex that stops being prominent without joining withdraws
        # its claim (its platinum round did not lead to stabilization —
        # impossible under uniform ℓmax past the horizon, so count it).
        withdrawn = (onset >= 0) & ~prominent & ~in_mis
        if withdrawn.any():
            holds = False
        was_prominent = prominent
        engine.step()
        if engine.is_legal():
            break
    return Lemma36Report(holds=holds, events_checked=events, worst_lag=worst_lag)
