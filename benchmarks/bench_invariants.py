"""E7 — the structural invariants of the analysis (Lemma 3.1, Section 3).

Reproduced claims:

* **Lemma 3.1**: for every round ``t > max_w ℓmax(w)``, every vertex has
  ``ℓ_t(v) > 0`` or ``μ_t(v) > 0`` — from any initial configuration.
  We measure the *empirical first round* after which the invariant holds
  forever (within the observed window) and check it never exceeds
  ``max ℓmax + 1`` (the lemma guarantees every round t > max ℓmax).
* **Monotonicity**: ``S_t ⊆ S_{t+1}`` and ``I_t ⊆ I_{t+1}`` as set
  inclusions, on every round of every run.
* **Platinum-round supply** (the engine behind Lemma 3.5): once a vertex
  stabilizes it has seen at least one platinum round; we report the
  distribution of first-platinum rounds.
"""

import numpy as np

from _harness import print_header, seed_for, sizes_and_reps

from repro.analysis.tables import format_rows
from repro.core import max_degree_policy
from repro.core.instrumentation import Configuration, PlatinumTracker
from repro.core.engines import SingleChannelEngine
from repro.graphs.generators import by_name


def run_invariant_trace(n, seed, max_rounds=200_000):
    """One arbitrary-start run, instrumented.

    Returns (first_round_invariant_stable, violations_of_monotonicity,
    first_platinum_summary, rounds_to_legal, max_ell_max).
    """
    graph = by_name("er", n, seed=seed_for("E7g", n))
    policy = max_degree_policy(graph, c1=15)
    engine = SingleChannelEngine(graph, policy, seed=seed)
    engine.randomize_levels()
    tracker = PlatinumTracker(graph, policy.ell_max)

    monotonicity_violations = 0
    invariant_ok_since = None
    previous_stable = engine.stable_mask().copy()
    previous_mis = engine.mis_mask().copy()
    rounds = 0
    while not engine.is_legal():
        config = Configuration(
            graph, tuple(int(x) for x in engine.levels), policy.ell_max
        )
        if config.lemma31_holds_everywhere():
            if invariant_ok_since is None:
                invariant_ok_since = rounds
        else:
            invariant_ok_since = None  # must hold *from some point on*
        tracker.observe([int(x) for x in engine.levels])
        engine.step()
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError("E7 run did not stabilize")
        stable = engine.stable_mask()
        mis = engine.mis_mask()
        if not bool(np.all(stable[previous_stable])):
            monotonicity_violations += 1
        if not bool(np.all(mis[previous_mis])):
            monotonicity_violations += 1
        previous_stable, previous_mis = stable.copy(), mis.copy()

    first_platinum = [r for r in tracker.first_platinum if r >= 0]
    return (
        invariant_ok_since if invariant_ok_since is not None else rounds,
        monotonicity_violations,
        first_platinum,
        rounds,
        policy.max_ell_max,
    )


def run_experiment(full: bool = False) -> list:
    sizes, reps = sizes_and_reps(full)
    reps = min(reps, 10)
    print_header(
        "E7 (invariants)",
        "Lemma 3.1 horizon, S_t/I_t monotonicity, platinum-round supply",
    )
    rows = []
    for n in sizes:
        inv_rounds, violations, platinum_means, legal_rounds = [], 0, [], []
        horizon = None
        for rep in range(reps):
            ok_since, v, first_platinum, rounds, max_ell = run_invariant_trace(
                n, seed=seed_for("E7s", n, rep)
            )
            inv_rounds.append(float(ok_since))
            violations += v
            legal_rounds.append(float(rounds))
            if first_platinum:
                platinum_means.append(float(np.mean(first_platinum)))
            horizon = max_ell
        rows.append(
            {
                "n": n,
                "lemma3.1 stable from (mean)": f"{np.mean(inv_rounds):.1f}",
                "lemma horizon maxℓmax": horizon,
                "within horizon+1": all(r <= horizon + 1 for r in inv_rounds),
                "monotonicity violations": violations,
                "mean first-platinum round": (
                    f"{np.mean(platinum_means):.1f}" if platinum_means else "-"
                ),
                "rounds to legal": f"{np.mean(legal_rounds):.1f}",
            }
        )
    print()
    print(format_rows(rows, title="invariant measurements (arbitrary starts, ER)"))
    print()
    print("claim check: zero monotonicity violations, and the Lemma-3.1")
    print("invariant holds from a round ≤ max ℓmax + 1, matching the lemma's")
    print("guarantee for every round t > max ℓmax.")
    return rows


# ----------------------------------------------------------------------
def bench_invariant_trace(benchmark):
    """Time one fully instrumented run on ER(64)."""

    def run():
        return run_invariant_trace(64, seed=1)

    ok_since, violations, first_platinum, rounds, horizon = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    benchmark.extra_info["lemma31_ok_since"] = ok_since
    benchmark.extra_info["rounds_to_legal"] = rounds
    assert violations == 0
    assert ok_since <= horizon + 1


if __name__ == "__main__":
    run_experiment(full=True)
