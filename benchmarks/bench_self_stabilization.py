"""E5 — the self-stabilization property itself.

Reproduced claim (paper §1.1): after an arbitrary transient fault, the
algorithm reaches a legal configuration within T fault-free rounds
(T = O(log n) for Theorem 2.1's setting), *regardless of the corruption
pattern*; and legal configurations are closed under the dynamics.

``main()`` regenerates:

* recovery rounds vs corruption intensity ρ (Bernoulli per-vertex
  corruption, ρ from 1% to 100%),
* recovery rounds for the adversarial patterns (all-silent deadlock
  attempt, all-prominent fake MIS, threshold),
* the fresh-run baseline on the same graphs — recovery should land in
  the same band (corruption is no worse than a cold start),
* fault containment: recovery rounds after corrupting k seeded vertices
  of a legal configuration, at n = 2^12 and 2^16 — do they track k
  rather than n?
"""

import numpy as np

from _harness import print_header, seed_for, sizes_and_reps

from repro.analysis.sweep import run_sweep
from repro.beeping.faults import TargetedCorruption
from repro.core import max_degree_policy
from repro.core.engines import SingleChannelEngine
from repro.graphs.generators import by_name

RHOS = [0.01, 0.05, 0.25, 0.5, 1.0]
PATTERNS = ["all_silent", "all_prominent", "threshold"]
CONTAINMENT_SIZES = [2**12, 2**16]
CONTAINMENT_KS = [1, 4, 16, 64, 256, 1024]
CONTAINMENT_SEEDS = 10


def _corrupt(engine: SingleChannelEngine, mode, rng) -> None:
    ell = engine.ell_max
    n = engine.n
    if mode == "fresh":
        engine.levels = rng.integers(-ell, ell + 1)
        return
    if isinstance(mode, float):  # Bernoulli(ρ)
        hits = rng.random(n) < mode
        random_levels = rng.integers(-ell, ell + 1)
        engine.levels = np.where(hits, random_levels, engine.levels)
        return
    if mode == "all_silent":
        engine.levels = ell.copy()
    elif mode == "all_prominent":
        engine.levels = -ell.copy()
    elif mode == "threshold":
        engine.levels = ell - 1
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")


def measure_recovery(config, rng):
    """Stabilize, corrupt per the mode, count fault-free recovery rounds."""
    graph = by_name("er", config["n"], seed=seed_for("E5g", config["n"]))
    policy = max_degree_policy(graph, c1=15)
    engine = SingleChannelEngine(graph, policy, seed=rng)
    mode = config["mode"]
    if mode == "fresh":
        _corrupt(engine, "fresh", rng)
    else:
        # Reach a legal configuration first, then corrupt it.
        budget = 200_000
        while not engine.is_legal():
            engine.step()
            budget -= 1
            if budget <= 0:
                raise RuntimeError("pre-stabilization failed")
        _corrupt(engine, mode, rng)
    recovery = 0
    while not engine.is_legal():
        engine.step()
        recovery += 1
        if recovery > 200_000:
            raise RuntimeError(f"E5 recovery failed: {config}")
    return float(recovery)


def run_experiment(full: bool = False) -> dict:
    sizes, reps = sizes_and_reps(full)
    print_header(
        "E5 (self-stabilization)",
        "recovery rounds after transient corruption = same band as cold start",
    )
    modes = ["fresh"] + RHOS + PATTERNS
    outputs = {}
    for n in sizes[-3:]:  # the three largest sizes carry the message
        configs = [{"n": n, "mode": m} for m in modes]
        sweep = run_sweep(configs, measure_recovery, repetitions=reps, master_seed=505)
        rows = []
        fresh_mean = sweep.cells[0].summary.mean
        for cell in sweep.cells:
            mode = cell.config["mode"]
            label = (
                "cold start (baseline)"
                if mode == "fresh"
                else (f"Bernoulli ρ={mode}" if isinstance(mode, float) else f"adversarial {mode}")
            )
            rows.append(
                {
                    "corruption": label,
                    "mean rounds": f"{cell.summary.mean:.1f}",
                    "max": f"{cell.summary.maximum:.0f}",
                    "vs cold": f"{cell.summary.mean / max(fresh_mean, 1e-9):.2f}x",
                }
            )
        from repro.analysis.tables import format_rows

        print()
        print(format_rows(rows, title=f"recovery on ER graphs, n = {n}"))
        outputs[n] = sweep
    print()
    print("claim check: every corruption mode recovers, and recovery stays")
    print("within a small constant factor of the cold-start time.")
    return outputs


def containment_rounds(n: int, seeds: int = CONTAINMENT_SEEDS) -> dict:
    """``{k: [recovery rounds per seed]}`` after k targeted corruptions.

    Per seed: stabilize ER(n) from an arbitrary start once, then for
    each k restore that legal configuration, corrupt k seeded vertices
    to uniform levels (:class:`TargetedCorruption`) and count the
    rounds ``until_stable`` needs.  The engine's generator carries on
    across the k in order, so every count is deterministic.
    """
    graph = by_name("er", n, seed=seed_for("E5c", n))
    policy = max_degree_policy(graph, c1=15)
    rounds = {k: [] for k in CONTAINMENT_KS}
    for s in range(seeds):
        engine = SingleChannelEngine(graph, policy, seed=seed_for("E5c-engine", n, s))
        engine.randomize_levels()
        if not engine.until_stable(200_000).stabilized:
            raise RuntimeError(f"E5 containment: first stabilization failed (n={n})")
        legal = engine.levels.copy()
        for k in CONTAINMENT_KS:
            engine.levels = legal.copy()
            rng = np.random.default_rng(seed_for("E5c-fault", n, k, s))
            victims = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            TargetedCorruption(victims).apply_levels(engine, rng)
            recovery = engine.until_stable(200_000)
            if not recovery.stabilized:
                raise RuntimeError(f"E5 containment: recovery failed (n={n}, k={k})")
            rounds[k].append(recovery.rounds)
    return rounds


def run_containment() -> dict:
    """The fault-containment table: recovery rounds against k and n."""
    from repro.analysis.tables import format_rows

    measured = {n: containment_rounds(n) for n in CONTAINMENT_SIZES}
    small, large = CONTAINMENT_SIZES[0], CONTAINMENT_SIZES[-1]
    rows, ratios = [], []
    for k in CONTAINMENT_KS:
        row = {"corrupted k": str(k)}
        for n in CONTAINMENT_SIZES:
            samples = measured[n][k]
            row[f"mean (n={n})"] = f"{np.mean(samples):.1f}"
            row[f"max (n={n})"] = f"{max(samples)}"
        ratios.append(np.mean(measured[large][k]) / max(np.mean(measured[small][k]), 1e-9))
        row[f"n={large} / n={small}"] = f"{ratios[-1]:.2f}x"
        rows.append(row)
    print()
    print(
        format_rows(
            rows,
            title=f"fault containment: k targeted corruptions of a legal "
            f"configuration, ER, {CONTAINMENT_SEEDS} seeds",
        )
    )
    print()
    print(
        f"claim check: at every k, mean recovery at n = {large} is "
        f"{min(ratios):.2f}x-{max(ratios):.2f}x that at n = {small} "
        f"({large // small}x the vertices)."
    )
    return measured


# ----------------------------------------------------------------------
def bench_recovery_from_full_corruption(benchmark):
    """Time stabilize→corrupt→recover on ER(128)."""
    rng = np.random.default_rng(12)

    def run():
        return measure_recovery({"n": 128, "mode": 1.0}, np.random.default_rng(12))

    rounds = benchmark(run)
    benchmark.extra_info["recovery_rounds"] = rounds
    assert rounds >= 0


def bench_recovery_band_matches_cold_start(benchmark):
    """Smoke check: adversarial recovery within 5x cold start (means of 5)."""

    def run():
        cold = [
            measure_recovery({"n": 128, "mode": "fresh"}, np.random.default_rng(s))
            for s in range(5)
        ]
        adv = [
            measure_recovery(
                {"n": 128, "mode": "all_prominent"}, np.random.default_rng(s)
            )
            for s in range(5)
        ]
        return float(np.mean(cold)), float(np.mean(adv))

    cold, adv = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["cold_start_mean"] = cold
    benchmark.extra_info["adversarial_mean"] = adv
    assert adv <= 5 * max(cold, 1.0)


if __name__ == "__main__":
    run_experiment(full=True)
    run_containment()
