"""E10 — hear-kernel engineering: structure cache + fused-round speedup.

One artifact, written to ``results/BENCH_kernels.json``: the
**Theorem-2.1 smoke sweep** (6 sizes × 20 seeds, batched executor)
timed on the pre-kernel path — faithfully reconstructed below as
:class:`LegacyBatchedEngine` — versus the batched engine's step loop,
and versus the default path (every run through the fused round
kernel).  The engines run every
eligible sweep through the fused kernel, so the legacy and step-loop
baselines are driven by hand through ``BatchedEngine.step()``
(:func:`step_loop`).  Samples must be byte-identical across all paths.
The default-vs-step-loop ratio is gated in CI against regression.

Methodology: every ratio is a *median over adjacent triples* — the
three paths run back-to-back, repeatedly, and the median per-triple
ratio is reported.  Scheduler drift cancels within a triple, and the
median is robust to an occasional stolen quantum in a way best-of-N
minima are not (see ``docs/performance.md``, "Noise floor").
"""

import time

import numpy as np
from _harness import print_header, save_bench_rows

from repro.analysis.measurements import StabilizationRounds, graph_for_config
from repro.analysis.sweep import run_sweep
from repro.core.engines import VectorizedResult
from repro.core.engines.base import MAX_EXPONENT
from repro.core.engines.batched import BatchedEngine
from repro.core.kernels.round import pruned_legality
from repro.devtools.seeding import rng_from_sequence
from repro.graphs.io import to_sparse_adjacency

#: The Theorem-2.1 smoke sweep (same shape as bench_engines.py).
SPEEDUP_SIZES = (32, 64, 128, 256, 512, 1024)
SPEEDUP_REPS = 20
MASTER_SEED = 2024


# ----------------------------------------------------------------------
# The pre-kernel baseline, reconstructed verbatim
# ----------------------------------------------------------------------
class LegacyBatchedEngine(BatchedEngine):
    """The batched engine exactly as it stood before the kernels package.

    Per instance it rebuilds the CSR adjacency *and* a transposed copy
    (no structure cache), hears through the double-transpose int32
    product ``adj_t.dot(rows.T).T``, recomputes ``2^-clip(levels)``
    every round (no p-table), allocates fresh draw/level arrays per
    step, and checks legality on every replica row (no candidate
    prune).  Trajectories are bit-identical to the current engine — the
    refactor changed none of the arithmetic — which is what lets the
    sweep comparison assert byte-equal samples.
    """

    def __init__(self, graph, policy, **kwargs):
        super().__init__(graph, policy, **kwargs)
        self.adjacency = to_sparse_adjacency(graph)
        self._legacy_adj_t = self.adjacency.transpose().tocsr()

    def _received_legacy(self, rows):
        return self._legacy_adj_t.dot(rows.T).T

    def legal_rows(self, levels):
        """The pre-kernel legality pass: every row, no prune."""
        not_at_max = (levels != self.ell_max).astype(np.int32)
        blocked = self._received_legacy(not_at_max)
        in_mis = (levels == self._floor_vector()) & (blocked == 0)
        dominated = self._received_legacy(in_mis.astype(np.int32)) > 0
        others_ok = (levels == self.ell_max) & dominated
        return np.all(in_mis | others_ok, axis=1)

    def step(self, active=None, active_idx=None):
        # ``active_idx`` comes from the shared run loop; deriving it from
        # the mask (as the pre-kernel step did) is equivalent.
        if active_idx is None:
            if active is None:
                active_idx = np.arange(self.replicas)
            else:
                active_idx = np.nonzero(np.asarray(active, dtype=bool))[0]
        if active_idx.size == 0:
            return np.zeros((0, self.n), dtype=bool)

        levels = self.levels[active_idx]
        draws = np.empty((active_idx.size, self.n), dtype=np.float64)
        for i, r in enumerate(active_idx):
            draws[i] = self.rngs[r].random(self.n)

        if self.algorithm == "single":
            exponent = np.clip(levels, 0, MAX_EXPONENT).astype(np.float64)
            p = np.power(2.0, -exponent)
            p[levels <= 0] = 1.0
            p[levels >= self.ell_max] = 0.0
            beeps = draws < p
            heard = self._received_legacy(beeps.astype(np.int32)) > 0
            up = np.minimum(levels + 1, self.ell_max)
            down = np.maximum(levels - 1, 1)
            new_levels = np.where(heard, up, np.where(beeps, -self.ell_max, down))
            beep1 = beeps
        else:
            exponent = np.clip(levels, 0, MAX_EXPONENT).astype(np.float64)
            p1 = np.power(2.0, -exponent)
            active_band = (levels > 0) & (levels < self.ell_max)
            beep1 = active_band & (draws < p1)
            beep2 = levels == 0
            stacked = np.concatenate(
                [beep1.astype(np.int32), beep2.astype(np.int32)], axis=0
            )
            heard = self._received_legacy(stacked) > 0
            heard1 = heard[: active_idx.size]
            heard2 = heard[active_idx.size :]
            up = np.minimum(levels + 1, self.ell_max)
            down = np.maximum(levels - 1, 1)
            new_levels = np.where(
                heard2,
                self.ell_max,
                np.where(
                    heard1,
                    up,
                    np.where(beep1, 0, np.where(~beep2, down, levels)),
                ),
            )

        self.levels[active_idx] = new_levels
        self.round_index += 1
        return beep1


def legal_rows(engine, rows):
    """Per-row legality of ``rows`` through the engines' pruned predicate."""
    legal, _, _ = pruned_legality(
        engine.kernel, rows, engine._floor32, engine._ell_max32
    )
    return legal


def step_loop(engine, max_rounds, legal_rows=legal_rows):
    """Drive every replica to legality through ``engine.step()`` alone.

    The batched engine's step loop — legality checked on the active
    rows before each round (``legal_rows(engine, rows)``), legal
    replicas retired — written out here because
    :meth:`BatchedEngine.run` takes the fused round kernel on every
    collector-free run.
    """
    results = [None] * engine.replicas
    active = np.ones(engine.replicas, dtype=bool)
    executed = 0
    while active.any():
        idx = np.flatnonzero(active)
        rows = engine.levels if idx.size == engine.replicas else engine.levels[idx]
        for r in idx[legal_rows(engine, rows)].tolist():
            results[r] = VectorizedResult(
                True, executed, frozenset(), engine.levels[r].copy()
            )
            active[r] = False
        if executed >= max_rounds:
            for r in np.flatnonzero(active).tolist():
                results[r] = VectorizedResult(
                    False, executed, frozenset(), engine.levels[r].copy()
                )
            break
        if active.any():
            engine.step(active, active_idx=np.flatnonzero(active))
        executed += 1
    return results


class StepLoopStabilizationRounds(StabilizationRounds):
    """``StabilizationRounds`` batch path driven through :func:`step_loop`."""

    engine_cls = BatchedEngine
    legal_rows = staticmethod(legal_rows)

    def measure_batch(self, config, seed_sequences):
        graph = graph_for_config(config)
        engine = self.engine_cls(
            graph,
            self._policy(config, graph),
            rngs=[rng_from_sequence(s) for s in seed_sequences],
            algorithm="two_channel" if self.variant == "two_channel" else "single",
        )
        if self.arbitrary_start:
            engine.randomize_levels()
        block = step_loop(engine, self.max_rounds, self.legal_rows)
        return [self._check(outcome, config) for outcome in block]


class LegacyStabilizationRounds(StepLoopStabilizationRounds):
    """The step-loop batch path on :class:`LegacyBatchedEngine`."""

    engine_cls = LegacyBatchedEngine
    legal_rows = staticmethod(LegacyBatchedEngine.legal_rows)


# ----------------------------------------------------------------------
# Theorem-2.1 smoke sweep: legacy path vs step loop vs default
# ----------------------------------------------------------------------
def _timed_sweep(measure):
    configs = [{"family": "er", "n": n} for n in SPEEDUP_SIZES]
    start = time.perf_counter()
    result = run_sweep(
        configs,
        measure,
        repetitions=SPEEDUP_REPS,
        master_seed=MASTER_SEED,
        executor="batched",
    )
    seconds = time.perf_counter() - start
    return seconds, [list(cell.samples) for cell in result.cells]


def sweep_speedup(pairs=3):
    """Smoke-sweep rows + speedups for the step loop and the default path.

    Adjacent *triples* — legacy, step loop, default (fused) — run back
    to back, ``pairs`` times; every reported ratio is the median of
    per-triple ratios, and the samples of all three paths must be
    byte-identical.
    """
    legacy_measure = LegacyStabilizationRounds(variant="max_degree")
    step_measure = StepLoopStabilizationRounds(variant="max_degree")
    default_measure = StabilizationRounds(variant="max_degree")

    _timed_sweep(legacy_measure)  # warmup
    _timed_sweep(step_measure)
    _timed_sweep(default_measure)
    measurements = []  # (legacy_s, step_s, default_s) triples
    samples = {}
    for _ in range(pairs):
        legacy_s, samples["legacy"] = _timed_sweep(legacy_measure)
        step_s, samples["step"] = _timed_sweep(step_measure)
        default_s, samples["default"] = _timed_sweep(default_measure)
        measurements.append((legacy_s, step_s, default_s))

    identical = all(
        samples[path] == samples["legacy"] for path in ("step", "default")
    )

    def _median_ratio(num, den):
        ratios = sorted(t[num] / t[den] for t in measurements)
        return ratios[len(ratios) // 2]

    speedups = {
        "step": _median_ratio(0, 1),
        "default": _median_ratio(0, 2),
        "default_vs_step": _median_ratio(1, 2),
    }
    median = sorted(measurements, key=lambda t: t[0] / t[1])[len(measurements) // 2]
    samples_total = SPEEDUP_REPS * len(SPEEDUP_SIZES)
    rows = [
        {
            "bench": "thm21_sweep",
            "path": "legacy",
            "wall_seconds": round(median[0], 4),
            "samples": samples_total,
        },
        {
            "bench": "thm21_sweep",
            "path": "batched_step_loop",
            "wall_seconds": round(median[1], 4),
            "samples": samples_total,
            "speedup_vs_legacy": round(speedups["step"], 2),
            "samples_identical_to_legacy": identical,
        },
        {
            "bench": "thm21_sweep",
            "path": "batched_default",
            "wall_seconds": round(median[2], 4),
            "samples": samples_total,
            "speedup_vs_legacy": round(speedups["default"], 2),
            "speedup_vs_step_loop": round(speedups["default_vs_step"], 2),
            "samples_identical_to_legacy": identical,
        },
    ]
    return rows, speedups, identical


# ----------------------------------------------------------------------
def run_experiment() -> None:
    print_header("E10 (kernels)", "structure cache + fused-round sweep speedup")
    sweep_rows, speedups, identical = sweep_speedup()
    legacy_s, step_s, default_s = (r["wall_seconds"] for r in sweep_rows)
    print(
        f"Theorem-2.1 smoke sweep ({len(SPEEDUP_SIZES)} sizes × "
        f"{SPEEDUP_REPS} seeds, batched executor):"
    )
    print(f"  legacy path               : {legacy_s:.3f}s")
    print(f"  step loop                 : {step_s:.3f}s  ({speedups['step']:.1f}x)")
    print(f"  default (fused round)     : {default_s:.3f}s  ({speedups['default']:.1f}x)")
    print(f"sweep outputs byte-identical across paths: {'PASS' if identical else 'FAIL'}")
    bar_ok = speedups["step"] >= 2.0
    print(
        f"step-loop speedup vs legacy path: {speedups['step']:.1f}x — "
        f"{'PASS' if bar_ok else 'FAIL'} (bar: >= 2x)"
    )
    default_ok = speedups["default"] >= 2.0
    print(
        f"default speedup vs legacy path: {speedups['default']:.1f}x — "
        f"{'PASS' if default_ok else 'FAIL'} (bar: >= 2x)"
    )
    regress_ok = speedups["default_vs_step"] >= 0.9
    print(
        f"default vs step-loop path: {speedups['default_vs_step']:.2f}x — "
        f"{'PASS' if regress_ok else 'FAIL'} (gate: >= 0.9x, generous CI slack)"
    )

    path = save_bench_rows(
        "kernels",
        sweep_rows,
        parameters={
            "speedup_sizes": list(SPEEDUP_SIZES),
            "speedup_reps": SPEEDUP_REPS,
            "master_seed": MASTER_SEED,
            "methodology": "ratios: median of adjacent triples",
        },
    )
    print(f"rows written to {path}")


if __name__ == "__main__":
    run_experiment()
