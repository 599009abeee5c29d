"""Tests for the analysis toolkit (stats, fitting, sweeps, tables)."""

import math
import zlib

import numpy as np
import pytest

from repro.analysis.fitting import best_model, fit_all_models, fit_model
from repro.analysis.measurements import StabilizationRounds
from repro.analysis.stats import bootstrap_ci, summarize, tail_fraction
from repro.analysis.sweep import run_sweep
from repro.analysis.tables import format_rows, format_table, series_sparkline


class TestStats:
    def test_summary_basic(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.minimum == 1.0 and s.maximum == 4.0
        assert s.median == pytest.approx(2.5)
        assert s.ci_low <= s.mean <= s.ci_high

    def test_summary_single_value(self):
        s = summarize([7.0])
        assert s.std == 0.0
        assert s.ci_low == s.ci_high == 7.0

    def test_summary_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_summary_format(self):
        text = summarize([1.0, 2.0, 3.0]).format()
        assert "±" in text and "[1.0, 3.0]" in text

    def test_bootstrap_deterministic(self):
        data = list(np.random.default_rng(1).normal(10, 2, 40))
        assert bootstrap_ci(data) == bootstrap_ci(data)

    def test_bootstrap_brackets_true_mean(self):
        data = list(np.random.default_rng(2).normal(10, 1, 200))
        low, high = bootstrap_ci(data)
        assert low < 10 < high

    def test_tail_fraction(self):
        assert tail_fraction([1, 2, 3, 4], 2.5) == 0.5
        assert tail_fraction([1, 1], 5) == 0.0


class TestFitting:
    def _generate(self, f, noise_seed=0):
        rng = np.random.default_rng(noise_seed)
        sizes = [2 ** k for k in range(4, 14)]
        rounds = [f(n) + rng.normal(0, 0.1) for n in sizes]
        return sizes, rounds

    def test_log_data_prefers_log_model(self):
        sizes, rounds = self._generate(lambda n: 3 * math.log(n) + 5)
        fit = best_model(sizes, rounds)
        assert fit.model == "log"
        assert fit.r_squared > 0.999
        assert fit.coefficients[0] == pytest.approx(3.0, abs=0.1)

    def test_linear_data_prefers_linear_model(self):
        sizes, rounds = self._generate(lambda n: 0.5 * n + 2)
        assert best_model(sizes, rounds).model == "linear"

    def test_sqrt_data_prefers_sqrt(self):
        sizes, rounds = self._generate(lambda n: 2 * math.sqrt(n))
        assert best_model(sizes, rounds).model == "sqrt"

    def test_log_loglog_distinguishable_from_log(self):
        sizes, rounds = self._generate(
            lambda n: 4 * math.log(n) * math.log(math.log(n))
        )
        fits = fit_all_models(sizes, rounds)
        assert fits["log_loglog"].rmse < fits["log"].rmse

    def test_predict(self):
        fit = fit_model([10, 100, 1000], [1, 2, 3], "log")
        assert fit.predict(100) == pytest.approx(2.0, abs=0.01)

    def test_format(self):
        fit = fit_model([10, 100, 1000], [1, 2, 3], "log")
        assert "log" in fit.format() and "R²" in fit.format()

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_model([1], [1], "log")
        with pytest.raises(ValueError):
            fit_model([1, 2], [1], "log")
        with pytest.raises(ValueError):
            fit_model([1, 2], [1, 2], "cubic")


class TestTheorem21Shape:
    """Tier-1 smoke of E1: Algorithm 1's stabilization time fits O(log n).

    The ``benchmarks/bench_theorem21.py`` configuration at smoke scale:
    the ``max_degree`` policy from an arbitrary start, n = 16 … 1024,
    8 repetitions per cell, the E1 graph seeds and master seed 101.  A
    change that breaks the logarithmic shape fails here, not only in a
    benchmark run.
    """

    SIZES = [2 ** k for k in range(4, 11)]

    @staticmethod
    def _graph_seed(family, n):
        # bench_theorem21's ``seed_for("E1g", family, n)``.
        return zlib.crc32(repr(("E1g", family, n)).encode("utf-8")) % (2**31 - 1)

    @pytest.mark.parametrize("family", ["er", "regular", "cycle", "star"])
    def test_log_model_wins(self, family):
        configs = [
            {"family": family, "n": n, "graph_seed": self._graph_seed(family, n)}
            for n in self.SIZES
        ]
        sweep = run_sweep(
            configs,
            StabilizationRounds(variant="max_degree"),
            repetitions=8,
            master_seed=101,
            executor="batched",
        )
        xs, ys = sweep.series("n")
        assert best_model(xs, ys).model in ("log", "log_loglog")
        fits = fit_all_models(xs, ys)
        assert (
            fits["log"].r_squared
            > fits["sqrt"].r_squared
            > fits["linear"].r_squared
        )


class TestSweep:
    def test_reproducible_and_summarized(self):
        configs = [{"n": 4}, {"n": 8}]

        def measure(config, rng):
            return config["n"] + rng.normal()

        a = run_sweep(configs, measure, repetitions=5, master_seed=1)
        b = run_sweep(configs, measure, repetitions=5, master_seed=1)
        assert a.cells[0].samples == b.cells[0].samples
        assert a.cells[1].summary.mean == pytest.approx(8.0, abs=2.0)

    def test_seeds_independent_across_cells(self):
        def measure(config, rng):
            return rng.random()

        result = run_sweep([{"i": 0}, {"i": 1}], measure, repetitions=3, master_seed=2)
        assert result.cells[0].samples != result.cells[1].samples

    def test_series_sorted_by_x(self):
        def measure(config, rng):
            return float(config["n"]) * 2

        result = run_sweep(
            [{"n": 32}, {"n": 8}, {"n": 16}], measure, repetitions=2
        )
        xs, ys = result.series("n")
        assert xs == [8.0, 16.0, 32.0]
        assert ys == [16.0, 32.0, 64.0]

    def test_all_samples_flattened(self):
        result = run_sweep(
            [{"n": 2}], lambda c, rng: 1.0, repetitions=4
        )
        xs, ys = result.all_samples("n")
        assert xs == [2.0] * 4 and ys == [1.0] * 4

    def test_table_rendering(self):
        result = run_sweep([{"n": 2}], lambda c, rng: 1.0, repetitions=2)
        table = result.to_table(["n"], title="demo")
        assert "demo" in table and "mean" in table and "1.0" in table

    def test_progress_callback(self):
        lines = []
        run_sweep(
            [{"n": 1}, {"n": 2}],
            lambda c, rng: 0.0,
            repetitions=1,
            progress=lines.append,
        )
        assert len(lines) == 2

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValueError):
            run_sweep([{"n": 1}], lambda c, rng: 0.0, repetitions=0)


class TestTables:
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 2.5], [33, 4.25]])
        lines = table.splitlines()
        assert lines[0].strip().startswith("a")
        assert "--" in lines[1]
        assert len(lines) == 4

    def test_format_table_title(self):
        table = format_table(["x"], [[1]], title="T")
        assert table.startswith("T\n=")

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_rows(self):
        text = format_rows([{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        assert "a" in text and "3" in text

    def test_format_rows_empty(self):
        assert format_rows([], title="none") == "none"

    def test_sparkline(self):
        line = series_sparkline([0, 1, 2, 3, 4, 5])
        assert len(line) == 6
        assert line[0] != line[-1]

    def test_sparkline_flat_and_empty(self):
        assert series_sparkline([]) == ""
        assert len(set(series_sparkline([2, 2, 2]))) == 1

    def test_sparkline_buckets_long_series(self):
        assert len(series_sparkline(list(range(1000)), width=40)) == 40
