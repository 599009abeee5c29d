"""Unit tests for the vectorized engines."""

import numpy as np
import pytest

from conftest import small_graph_zoo
from repro.core.knowledge import max_degree_policy, uniform_policy
from repro.core.engines import (
    SingleChannelEngine,
    TwoChannelEngine,
    simulate_single,
    simulate_two_channel,
)
from repro.core.kernels import HearKernel, RoundKernel, structure_for
from repro.core.levels import beep_probability
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.graphs.mis import (
    check_mis, is_independent_set, is_maximal_independent_set,
)
from repro.obs import RunCollector, StructureView


# ----------------------------------------------------------------------
# The kernel's beep decision is the Figure-1 activation
# ----------------------------------------------------------------------
#: ``(ℓmax per vertex group, ...)``: uniform policies on both plane
#: widths (int8 up to 63, int32 from 64), and per-vertex vectors.
FIGURE1_POLICIES = [(1,), (4,), (20,), (63,), (64,), (200,), (1, 4, 63), (3, 64, 20)]
_LAST_UNIFORM = 1.0 - 2.0**-53  # the largest ``Generator.random()`` value


def _every_level(ell_maxes, algorithm):
    """One vertex per admissible ``(ℓmax, ℓ)`` pair."""
    tops, levels = [], []
    for top in ell_maxes:
        floor = -top if algorithm == "single" else 0
        span = range(floor, top + 1)
        tops.extend([top] * len(span))
        levels.extend(span)
    return np.array(tops, dtype=np.int64), np.array(levels, dtype=np.int64)


@pytest.mark.parametrize("algorithm", ("single", "two_channel"))
@pytest.mark.parametrize(
    "ell_maxes", FIGURE1_POLICIES, ids=lambda t: "-".join(map(str, t))
)
def test_beep_decision_matches_figure1(algorithm, ell_maxes):
    tops, levels = _every_level(ell_maxes, algorithm)
    n = levels.size
    kernel = RoundKernel(
        HearKernel(structure_for(Graph(n))), algorithm=algorithm,
        ell_max=tops, replicas=4,
    )
    assert kernel.plane_dtype == (np.int8 if tops.max() <= 63 else np.int32)
    # Row by row: u = 0, just below 2^−ℓ, exactly 2^−ℓ, the largest u.
    edge = np.ldexp(1.0, -levels)
    draws = np.minimum(
        np.stack([np.zeros(n), np.nextafter(edge, 0.0), edge, np.full(n, _LAST_UNIFORM)]),
        _LAST_UNIFORM,
    )
    state = np.tile(levels.astype(np.int32), (4, 1))
    emitted = kernel.step(state, draws)
    p = np.array([beep_probability(int(l), int(t)) for l, t in zip(levels, tops)])
    expected = draws < p
    if algorithm == "single":
        np.testing.assert_array_equal(emitted, expected)
        assert expected[:, levels <= 0].all()
    else:
        inside = (levels > 0) & (levels < tops)
        np.testing.assert_array_equal(emitted[:4], expected & inside)
        np.testing.assert_array_equal(emitted[4:], np.tile(levels == 0, (4, 1)))
    assert not emitted[:4, levels == tops].any()
    # Strictly inside (0, ℓmax) the boundary falls exactly at 2^−ℓ.
    inside = (levels > 0) & (levels < tops)
    np.testing.assert_array_equal(emitted[1, inside], True)
    np.testing.assert_array_equal(emitted[2, inside], False)


class TestSingleChannelEngine:
    def test_initial_levels_are_one(self, er_graph):
        engine = SingleChannelEngine(er_graph, uniform_policy(er_graph, 5))
        assert (engine.levels == 1).all()

    def test_policy_size_validated(self, er_graph, path4):
        with pytest.raises(ValueError):
            SingleChannelEngine(er_graph, uniform_policy(path4, 5))

    def test_set_levels_validated(self, path4):
        engine = SingleChannelEngine(path4, uniform_policy(path4, 3))
        with pytest.raises(ValueError):
            engine.set_levels(np.array([1, 2, 3]))  # wrong shape
        with pytest.raises(ValueError):
            engine.set_levels(np.array([4, 0, 0, 0]))  # out of range
        engine.set_levels(np.array([-3, 3, 0, 1]))
        assert list(engine.levels) == [-3, 3, 0, 1]

    def test_randomize_levels_in_range(self, er_graph):
        policy = uniform_policy(er_graph, 6)
        engine = SingleChannelEngine(er_graph, policy, seed=0)
        engine.randomize_levels()
        assert (engine.levels >= -6).all() and (engine.levels <= 6).all()
        # With 80 vertices over 13 values, we should see real spread.
        assert len(set(engine.levels.tolist())) > 3

    def test_step_counts_rounds(self, path4):
        engine = SingleChannelEngine(path4, uniform_policy(path4, 3), seed=0)
        engine.step()
        engine.step()
        assert engine.round_index == 2

    def test_masks_on_legal_configuration(self, path4):
        engine = SingleChannelEngine(path4, uniform_policy(path4, 3))
        engine.set_levels(np.array([-3, 3, -3, 3]))
        assert list(engine.mis_mask()) == [True, False, True, False]
        assert engine.stable_mask().all()
        assert engine.is_legal()
        assert engine.mis_vertices() == {0, 2}

    def test_not_legal_when_level_off_by_one(self, path4):
        engine = SingleChannelEngine(path4, uniform_policy(path4, 3))
        engine.set_levels(np.array([-3, 3, -3, 2]))
        assert not engine.is_legal()

    def test_isolated_vertices_handled(self):
        g = Graph(3)  # no edges at all
        result = simulate_single(g, uniform_policy(g, 2), seed=0, max_rounds=100)
        assert result.stabilized
        assert result.mis == {0, 1, 2}


class TestTwoChannelEngine:
    def test_set_levels_validated(self, path4):
        engine = TwoChannelEngine(path4, uniform_policy(path4, 3))
        with pytest.raises(ValueError):
            engine.set_levels(np.array([-1, 0, 0, 0]))
        engine.set_levels(np.array([0, 3, 0, 3]))
        assert engine.is_legal()

    def test_adjacent_zeros_resolve(self):
        g = Graph(2, [(0, 1)])
        engine = TwoChannelEngine(g, uniform_policy(g, 3), seed=0)
        engine.set_levels(np.array([0, 0]))
        engine.step()
        assert list(engine.levels) == [3, 3]

    def test_simulation_reaches_valid_mis(self, er_graph):
        result = simulate_two_channel(
            er_graph, uniform_policy(er_graph, 6), seed=1, max_rounds=5000
        )
        assert result.stabilized
        assert check_mis(er_graph, result.mis) is None


class TestConstantStateEngine:
    def test_membership_shape_validated(self, path4):
        from repro.core.engines import ConstantStateEngine

        engine = ConstantStateEngine(path4)
        with pytest.raises(ValueError):
            engine.set_levels(np.array([1, 0]))

    def test_legality_is_mis_predicate(self, path4):
        from repro.core.engines import ConstantStateEngine

        engine = ConstantStateEngine(path4)
        engine.set_levels(np.array([1, 0, 1, 0]))
        assert engine.is_legal()
        engine.set_levels(np.array([1, 1, 0, 0]))
        assert not engine.is_legal()
        engine.set_levels(np.array([1, 0, 0, 0]))
        assert not engine.is_legal()

    def test_legal_configuration_absorbing(self, er_graph):
        from repro.core.engines import ConstantStateEngine
        from repro.graphs.mis import greedy_mis

        engine = ConstantStateEngine(er_graph, seed=1)
        mis = greedy_mis(er_graph)
        engine.set_levels(
            np.array([int(v in mis) for v in er_graph.vertices()])
        )
        before = engine.levels.copy()
        for _ in range(40):
            engine.step()
        assert (engine.levels == before).all()

    def test_simulation_produces_valid_mis(self):
        from repro.core.engines import simulate_constant_state

        graph = gen.cycle(40)
        result = simulate_constant_state(graph, seed=2, arbitrary_start=True)
        assert result.stabilized
        assert check_mis(graph, result.mis) is None

    def test_budget_exhaustion_reported(self, er_graph):
        from repro.core.engines import simulate_constant_state

        result = simulate_constant_state(er_graph, seed=3, max_rounds=0)
        # Fresh start (all IN) on a graph with edges is not an MIS.
        assert not result.stabilized

    @pytest.mark.parametrize("name,graph", small_graph_zoo())
    def test_section3_queries_are_the_mis_predicate(self, name, graph):
        # The two-state tag's legality is the Section-3 pass with IN in
        # the floor's role: on random 0/1 starts it must say exactly
        # whether the IN set is an MIS, and name that set when it is.
        from repro.core.engines import ConstantStateEngine

        engine = ConstantStateEngine(graph, seed=np.random.default_rng(11))
        every = range(graph.num_vertices)
        for _ in range(60):
            engine.randomize_levels()
            assert set(np.unique(engine.levels)) <= {0, 1}
            in_set = set(np.flatnonzero(engine.levels).tolist())
            legal = is_maximal_independent_set(graph, in_set)
            assert engine.is_legal() == legal
            assert engine.settled(every) == legal
            mis = engine.mis_vertices()
            assert mis <= in_set
            assert is_independent_set(graph, mis)
            if legal:
                assert mis == in_set

    def test_policy_is_rejected_and_band_enforced(self, path4):
        from repro.core.engines import BatchedEngine, ConstantStateEngine

        policy = max_degree_policy(path4)
        with pytest.raises(ValueError, match="no policy"):
            BatchedEngine(path4, policy, replicas=1, algorithm="constant_state")
        with pytest.raises(ValueError, match="needs an ell_max policy"):
            BatchedEngine(path4, None, replicas=1, algorithm="single")
        engine = ConstantStateEngine(path4)
        with pytest.raises(ValueError, match="admissible"):
            engine.set_levels(np.array([1, 0, 2, 0]))
        engine.levels = np.array([1, 0, -1, 0])
        with pytest.raises(ValueError, match="admissible"):
            engine.until_stable(10)


class TestDriveLoop:
    def test_max_rounds_zero_reports_current_state(self, path4):
        policy = uniform_policy(path4, 3)
        result = simulate_single(path4, policy, seed=0, max_rounds=0)
        assert not result.stabilized
        assert result.rounds == 0

    def test_already_legal_start_is_zero_rounds(self, path4):
        policy = uniform_policy(path4, 3)
        result = simulate_single(
            path4,
            policy,
            seed=0,
            initial_levels=np.array([-3, 3, -3, 3]),
            max_rounds=100,
        )
        assert result.stabilized
        assert result.rounds == 0
        assert result.mis == {0, 2}

    def test_check_every_overreports_boundedly(self, er_graph):
        policy = max_degree_policy(er_graph, c1=4)
        exact = simulate_single(er_graph, policy, seed=3, max_rounds=10_000)
        sparse = simulate_single(
            er_graph, policy, seed=3, max_rounds=10_000, check_every=8
        )
        assert sparse.stabilized
        assert exact.rounds <= sparse.rounds < exact.rounds + 8
        # Legality is closed, so the MIS is the same.
        assert sparse.mis == exact.mis

    def test_invalid_check_every(self, path4):
        with pytest.raises(ValueError):
            simulate_single(path4, uniform_policy(path4, 3), check_every=0)

    def test_record_series_lengths(self, er_graph):
        """A collector's per-round series cover every executed round."""
        policy = max_degree_policy(er_graph, c1=4)
        collector = RunCollector(StructureView.from_policy(er_graph, policy))
        result = simulate_single(
            er_graph, policy, seed=5, max_rounds=10_000, collector=collector
        )
        assert result.stabilized
        stable_series = collector.series("s_size")
        assert len(collector.series("beeps")) == result.rounds
        assert len(stable_series) == result.rounds
        # S_t is monotone nondecreasing (paper, Section 3).
        assert stable_series == sorted(stable_series)

    def test_record_series_independent_of_check_cadence(self, er_graph):
        """Recording must not tighten the legality-check cadence.

        The collector observes every round while legality is still
        checked every ``check_every`` rounds: same ``rounds`` either way,
        and the series cover every executed round.
        """
        policy = max_degree_policy(er_graph, c1=4)
        plain = simulate_single(
            er_graph, policy, seed=3, max_rounds=10_000, check_every=8
        )
        collector = RunCollector(StructureView.from_policy(er_graph, policy))
        recorded = simulate_single(
            er_graph, policy, seed=3, max_rounds=10_000, check_every=8,
            collector=collector,
        )
        assert recorded.rounds == plain.rounds
        assert recorded.rounds % 8 == 0
        assert len(collector.series("beeps")) == recorded.rounds
        assert len(collector.series("s_size")) == recorded.rounds

    def test_seed_determinism(self, er_graph):
        policy = max_degree_policy(er_graph, c1=4)
        a = simulate_single(er_graph, policy, seed=9, arbitrary_start=True)
        b = simulate_single(er_graph, policy, seed=9, arbitrary_start=True)
        assert a.rounds == b.rounds
        assert a.mis == b.mis

    def test_arbitrary_start_stabilizes(self, er_graph):
        policy = max_degree_policy(er_graph, c1=4)
        for seed in range(5):
            result = simulate_single(
                er_graph, policy, seed=seed, arbitrary_start=True, max_rounds=10_000
            )
            assert result.stabilized
            assert check_mis(er_graph, result.mis) is None
