"""Core contribution: the self-stabilizing beeping MIS algorithms."""

from .levels import (
    beep_probability,
    clamp_level,
    is_prominent,
    probability_table,
    update_level,
    update_level_two_channel,
)
from .knowledge import (
    COROLLARY_23_C1,
    EllMaxPolicy,
    KnowledgeModel,
    LEMMA_35_MIN_MARGIN,
    THEOREM_21_C1,
    THEOREM_22_C1,
    explicit_policy,
    max_degree_policy,
    neighborhood_degree_policy,
    own_degree_policy,
    uniform_policy,
)
from .stability import (
    StableSets,
    legal_single,
    legal_two_channel,
    mu,
    stable_sets_single,
    stable_sets_two_channel,
)
from .algorithm_single import SelfStabilizingMIS
from .algorithm_two_channel import TwoChannelMIS
from .instrumentation import Configuration, PlatinumTracker
from .lemmas import (
    Lemma31Report,
    Lemma34Report,
    Lemma36Report,
    PlatinumTailReport,
    estimate_platinum_tail,
    verify_lemma31,
    verify_lemma34,
    verify_lemma36_uniform,
)
from .engines import (
    BatchedEngine,
    BatchedResult,
    ConstantStateEngine,
    EngineBackend,
    EngineBase,
    SingleChannelEngine,
    TwoChannelEngine,
    VectorizedResult,
    available_engines,
    get_engine,
    simulate_batched,
    simulate_constant_state,
    simulate_single,
    simulate_two_channel,
)
from .churn import ChurnEvent, carry_levels, restabilize_after_churn, rewire_edges
from .runner import (
    MISResult,
    compute_mis,
    default_round_budget,
    policy_for_variant,
)

__all__ = [
    # levels / Figure 1
    "beep_probability",
    "clamp_level",
    "is_prominent",
    "probability_table",
    "update_level",
    "update_level_two_channel",
    # knowledge policies
    "COROLLARY_23_C1",
    "EllMaxPolicy",
    "KnowledgeModel",
    "LEMMA_35_MIN_MARGIN",
    "THEOREM_21_C1",
    "THEOREM_22_C1",
    "explicit_policy",
    "max_degree_policy",
    "neighborhood_degree_policy",
    "own_degree_policy",
    "uniform_policy",
    # stability structure
    "StableSets",
    "legal_single",
    "legal_two_channel",
    "mu",
    "stable_sets_single",
    "stable_sets_two_channel",
    # algorithms
    "SelfStabilizingMIS",
    "TwoChannelMIS",
    # instrumentation
    "Configuration",
    "PlatinumTracker",
    # lemma verifiers
    "Lemma31Report",
    "Lemma34Report",
    "Lemma36Report",
    "PlatinumTailReport",
    "estimate_platinum_tail",
    "verify_lemma31",
    "verify_lemma34",
    "verify_lemma36_uniform",
    # execution engines
    "EngineBase",
    "SingleChannelEngine",
    "TwoChannelEngine",
    "ConstantStateEngine",
    "BatchedEngine",
    "BatchedResult",
    "VectorizedResult",
    "simulate_single",
    "simulate_two_channel",
    "simulate_constant_state",
    "simulate_batched",
    # engine registry
    "EngineBackend",
    "get_engine",
    "available_engines",
    # churn
    "ChurnEvent",
    "carry_levels",
    "restabilize_after_churn",
    "rewire_edges",
    # runner
    "MISResult",
    "compute_mis",
    "default_round_budget",
    "policy_for_variant",
]
