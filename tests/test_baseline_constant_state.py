"""Tests for the constant-state ([16]-style) self-stabilizing baseline."""

import numpy as np
import pytest

from repro.baselines.constant_state import FewStatesMIS, IN, OUT
from repro.beeping.algorithm import LocalKnowledge, NodeOutput
from repro.beeping.network import BeepingNetwork
from repro.beeping.simulator import run_until_stable
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.graphs.mis import check_mis


ALG = FewStatesMIS()
K = LocalKnowledge()


def make_network(graph, seed=0, initial=None):
    knowledge = [LocalKnowledge() for _ in graph.vertices()]
    return BeepingNetwork(graph, ALG, knowledge, seed=seed, initial_states=initial)


class TestUnitBehaviour:
    def test_two_states_only(self):
        rng = np.random.default_rng(0)
        samples = {ALG.random_state(K, rng) for _ in range(50)}
        assert samples == {IN, OUT}

    def test_in_beeps_out_silent(self):
        assert ALG.beeps(IN, K, 0.99) == (True,)
        assert ALG.beeps(OUT, K, 0.0) == (False,)

    def test_retreat_coin(self):
        # IN hearing a beep retreats iff coin (u < 1/2) comes up.
        assert ALG.step(IN, (True,), (True,), K, u=0.3) == OUT
        assert ALG.step(IN, (True,), (True,), K, u=0.7) == IN
        # IN hearing silence always stays.
        assert ALG.step(IN, (True,), (False,), K, u=0.3) == IN

    def test_rejoin_coin(self):
        assert ALG.step(OUT, (False,), (False,), K, u=0.3) == IN
        assert ALG.step(OUT, (False,), (False,), K, u=0.7) == OUT
        # OUT hearing a beep always stays out.
        assert ALG.step(OUT, (False,), (True,), K, u=0.3) == OUT

    def test_output(self):
        assert ALG.output(IN, K) is NodeOutput.IN_MIS
        assert ALG.output(OUT, K) is NodeOutput.NOT_IN_MIS


class TestLegality:
    def test_legal_iff_mis(self, path4):
        knowledge = [LocalKnowledge()] * 4
        assert ALG.is_legal_configuration(path4, [IN, OUT, IN, OUT], knowledge)
        assert not ALG.is_legal_configuration(path4, [IN, IN, OUT, OUT], knowledge)
        assert not ALG.is_legal_configuration(path4, [IN, OUT, OUT, OUT], knowledge)

    def test_legal_configuration_absorbing(self, er_graph):
        from repro.graphs.mis import greedy_mis

        mis = greedy_mis(er_graph)
        initial = [IN if v in mis else OUT for v in er_graph.vertices()]
        network = make_network(er_graph, seed=1, initial=initial)
        for _ in range(50):
            network.step()
            assert network.states == tuple(initial)


class TestConvergence:
    @pytest.mark.parametrize(
        "name,builder",
        [
            ("path", lambda: gen.path(30)),
            ("cycle", lambda: gen.cycle(30)),
            ("grid", lambda: gen.grid_2d(5, 6)),
            ("tree", lambda: gen.binary_tree(4)),
            ("sparse_er", lambda: gen.erdos_renyi_mean_degree(40, 3.0, seed=2)),
            ("star", lambda: gen.star(25)),
            ("clique", lambda: gen.complete(12)),
        ],
    )
    def test_stabilizes_from_arbitrary_states(self, name, builder):
        graph = builder()
        rng = np.random.default_rng(7)
        knowledge = [LocalKnowledge() for _ in graph.vertices()]
        initial = [ALG.random_state(k, rng) for k in knowledge]
        network = BeepingNetwork(
            graph, ALG, knowledge, seed=rng, initial_states=initial
        )
        result = run_until_stable(network, max_rounds=60_000)
        assert result.stabilized, name
        assert check_mis(graph, result.mis) is None, name

    def test_isolated_vertices(self):
        g = Graph(3)
        network = make_network(g, seed=3, initial=[OUT, OUT, IN])
        result = run_until_stable(network, max_rounds=1000)
        assert result.stabilized
        assert result.mis == {0, 1, 2}

    def test_slower_than_algorithm1_on_dense_graphs(self):
        """Measures both processes on a dense ER graph from random starts.

        [16] reports that constant-state dynamics are efficient only for
        some families; this asserts only that every two-state run
        converges (the mean is positive), not that it is slower than
        Algorithm 1 — E13 finds it faster on six families, and whether
        any input separates them is open (ROADMAP item 15)."""
        from repro.core import max_degree_policy, simulate_single

        graph = gen.erdos_renyi_mean_degree(60, 12.0, seed=4)
        policy = max_degree_policy(graph, c1=4)
        alg1 = np.mean(
            [
                simulate_single(
                    graph, policy, seed=s, arbitrary_start=True
                ).rounds
                for s in range(5)
            ]
        )
        constant = []
        for s in range(5):
            rng = np.random.default_rng(100 + s)
            knowledge = [LocalKnowledge() for _ in graph.vertices()]
            initial = [ALG.random_state(k, rng) for k in knowledge]
            network = BeepingNetwork(
                graph, ALG, knowledge, seed=rng, initial_states=initial
            )
            result = run_until_stable(network, max_rounds=100_000)
            assert result.stabilized
            constant.append(result.rounds)
        # No sharp guarantee — just the qualitative ordering on average.
        assert np.mean(constant) > 0
        # Record-keeping assertion: both converge; alg1 has the w.h.p. bound.
        assert alg1 > 0
