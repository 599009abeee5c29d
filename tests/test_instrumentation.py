"""Tests for the Section-3 analysis instrumentation."""

import pytest

from repro.core.instrumentation import Configuration, PlatinumTracker
from repro.core.knowledge import max_degree_policy
from repro.core.engines import SingleChannelEngine
from repro.graphs import generators as gen


def config(graph, levels, ell):
    return Configuration(graph, tuple(levels), tuple(ell))


class TestElementaryQuantities:
    def test_validation(self, path4):
        with pytest.raises(ValueError):
            config(path4, [0, 0, 0], [4, 4, 4, 4])
        with pytest.raises(ValueError):
            config(path4, [5, 0, 0, 0], [4, 4, 4, 4])

    def test_beep_probability(self, path4):
        c = config(path4, [-4, 0, 2, 4], [4] * 4)
        assert c.beep_probability(0) == 1.0
        assert c.beep_probability(2) == 0.25
        assert c.beep_probability(3) == 0.0

    def test_mu_and_prominent(self, path4):
        c = config(path4, [-4, 4, 1, 2], [4] * 4)
        assert c.prominent_vertices() == {0}
        assert c.mu(1) == pytest.approx(-1.0)  # min(-4/4, 1/4) = -1
        assert c.mu(3) == pytest.approx(0.25)

    def test_expected_beeping_neighbors(self, star6):
        # All leaves at level 1 (p = 1/2): hub expects 2.5 beeps.
        c = config(star6, [4, 1, 1, 1, 1, 1], [4] * 6)
        assert c.expected_beeping_neighbors(0) == pytest.approx(2.5)
        assert c.expected_beeping_neighbors(1) == pytest.approx(0.0)


class TestPlatinumRounds:
    def test_platinum_requires_prominent_in_closed_neighborhood(self, path4):
        c = config(path4, [-4, 4, 4, 4], [4] * 4)
        assert c.is_platinum_round_for(0)  # itself prominent
        assert c.is_platinum_round_for(1)  # neighbor prominent
        assert not c.is_platinum_round_for(2)
        assert not c.is_platinum_round_for(3)

    def test_no_prominent_vertices(self, path4):
        c = config(path4, [1, 2, 3, 4], [4] * 4)
        assert c.prominent_vertices() == frozenset()
        assert not any(c.is_platinum_round_for(v) for v in path4.vertices())


class TestLightAndGolden:
    def test_light_requires_positive_mu(self, path4):
        # Vertex 1 has a prominent neighbor (ℓ=-4 → μ ≤ 0): not light.
        c = config(path4, [-4, 1, 1, 1], [4] * 4)
        assert not c.is_light(1)
        assert c.is_light(3)

    def test_heavy_by_expected_beeps(self):
        # A hub with 24 level-1 neighbors has d = 12 > 10 and ℓ = 2 > 0.
        g = gen.star(25)
        levels = [2] + [1] * 24
        c = config(g, levels, [6] * 25)
        assert not c.is_light(0)
        # But a prominent hub is light regardless of d.
        c2 = config(g, [-6] + [1] * 24, [6] * 25)
        assert c2.is_light(0)

    def test_golden_condition_a(self, path4):
        # ℓ(v) ≤ 1 and d(v) tiny (all neighbors silent at ℓmax).
        c = config(path4, [1, 4, 4, 4], [4] * 4)
        assert c.is_golden_round_for(0)

    def test_golden_condition_b(self, star6):
        # Hub has light neighbors with substantial beep mass.
        c = config(star6, [4, 1, 1, 1, 1, 1], [4] * 6)
        assert c.expected_beeping_light_neighbors(0) > 0.001
        assert c.is_golden_round_for(0)

    def test_not_golden(self):
        g = gen.star(25)
        levels = [3] + [1] * 24  # d(hub) = 12, neighbors heavy? leaves are light
        c = config(g, levels, [6] * 25)
        # Leaves are light (their only neighbor, the hub, has level 3 > 0,
        # and their d = p(hub) small) so condition (b) holds for the hub.
        assert c.is_golden_round_for(0)
        # A leaf: its neighbor (hub) has d=12 and level 3 → heavy; leaf level 1,
        # d(leaf) = 1/8 ≤ 0.02? No: 0.125 > 0.02 → condition (a) fails, and
        # d^L(leaf) = 0 → not golden.
        assert not c.is_golden_round_for(1)


class TestEtaPotentials:
    def test_eta_zero_when_all_stable(self, path4):
        c = config(path4, [-4, 4, -4, 4], [4] * 4)
        assert c.eta(1) == 0.0
        assert c.eta_prime(1) == 0.0

    def test_eta_counts_unstable_neighbors(self, path4):
        c = config(path4, [1, 1, 1, 1], [4] * 4)
        assert c.eta(1) == pytest.approx(2 * 2.0 ** -4)
        assert c.eta(0) == pytest.approx(2.0 ** -4)

    def test_eta_prime_only_larger_ellmax(self):
        g = gen.path(3)
        c = Configuration(g, (1, 1, 1), (2, 4, 8))
        # Vertex 1: neighbors 0 (ℓmax 2 < 4) and 2 (ℓmax 8 > 4) → one term.
        assert c.eta_prime(1) == pytest.approx(2.0 ** -4)
        # Vertex 2 has no neighbor with larger ℓmax.
        assert c.eta_prime(2) == 0.0

    def test_theorem21_claim_eta_prime_zero_for_uniform(self, er_graph):
        """With uniform ℓmax (Theorem 2.1's setting) η′ ≡ 0."""
        c = config(er_graph, [1] * 80, [10] * 80)
        assert all(c.eta_prime(v) == 0.0 for v in er_graph.vertices())


class TestLemma31:
    def test_invariant_holds_after_warmup(self, er_graph):
        """Empirical Lemma 3.1: after max ℓmax rounds, every vertex has
        ℓ > 0 or μ > 0 — from *any* start, for any seed tested."""
        policy = max_degree_policy(er_graph, c1=4)
        for seed in range(5):
            engine = SingleChannelEngine(er_graph, policy, seed=seed)
            engine.randomize_levels()
            warmup = policy.max_ell_max + 1
            for _ in range(warmup):
                engine.step()
            for extra in range(30):
                c = Configuration(
                    er_graph, tuple(int(x) for x in engine.levels), policy.ell_max
                )
                assert c.lemma31_holds_everywhere(), f"seed={seed}, t=+{extra}"
                engine.step()


class TestPlatinumTracker:
    def test_counts_and_first_round(self, path4):
        tracker = PlatinumTracker(path4, [4] * 4)
        tracker.observe([1, 1, 1, 1])  # nothing prominent
        tracker.observe([-4, 1, 1, 1])  # 0 prominent → 0,1 platinum
        tracker.observe([-4, 1, 1, 1])
        assert tracker.rounds_seen == 3
        assert tracker.platinum_counts == [2, 2, 0, 0]
        assert tracker.first_platinum == [1, 1, -1, -1]
        assert tracker.platinum_fraction(0) == pytest.approx(2 / 3)

    def test_golden_tracking_optional(self, path4):
        tracker = PlatinumTracker(path4, [4] * 4, track_golden=True)
        tracker.observe([1, 4, 4, 4])
        assert tracker.golden_counts[0] == 1

    def test_empty_tracker_fraction(self, path4):
        tracker = PlatinumTracker(path4, [4] * 4)
        assert tracker.platinum_fraction(0) == 0.0
