"""The engine-backend registry: a literal table of three named backends."""

import pytest

from repro.core.engines.registry import (
    EngineBackend,
    available_engines,
    get_engine,
)
from repro.core.runner import compute_mis, policy_for_variant
from repro.graphs import generators


def test_builtins_registered():
    names = available_engines()
    assert {"vectorized", "reference", "batched"} <= set(names)
    assert list(names) == sorted(names)


def test_get_engine_returns_backend():
    backend = get_engine("vectorized")
    assert isinstance(backend, EngineBackend)
    assert backend.name == "vectorized"
    assert callable(backend.run)


def test_unknown_engine_lists_alternatives():
    with pytest.raises(ValueError, match="vectorized"):
        get_engine("quantum")


# ----------------------------------------------------------------------
# Registry lock + programmatic contract (regression against silent drift)
# ----------------------------------------------------------------------
def test_registry_lock_builtin_names_are_stable():
    """The public backend names are API: renaming or dropping one breaks
    every CLI invocation and saved sweep config that mentions it."""
    assert available_engines() == ("batched", "reference", "vectorized")


def test_every_registered_backend_satisfies_the_contract():
    from repro.devtools.contract import verify_registry

    problems = {
        name: issues for name, issues in verify_registry().items() if issues
    }
    assert problems == {}


def test_every_engine_base_subclass_is_a_one_row_facade():
    """Every EngineBase subclass the package defines, not a fixed list."""
    import numpy as np

    import repro.core.engines  # noqa: F401 - imports every engine module
    from repro.core.engines import BatchedEngine
    from repro.core.engines.base import EngineBase

    graph = generators.cycle(12)
    checked = []
    pending = list(EngineBase.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if not cls.__module__.startswith("repro."):
            continue
        if cls.algorithm == "constant_state":  # no ℓmax policy
            policy_args = ()
        else:
            variant = "two_channel" if cls.algorithm == "two_channel" else "max_degree"
            policy_args = (policy_for_variant(graph, variant),)
        engine = cls(graph, *policy_args, seed=np.random.default_rng(1))
        block = engine._block
        assert isinstance(block, BatchedEngine), cls
        assert block.replicas == 1 and block.rngs[0] is engine.rng, cls
        assert block.algorithm == cls.algorithm, cls
        assert engine.levels.shape == (graph.num_vertices,), cls
        assert engine.levels.dtype == np.int64, cls
        assert cls.simulate(graph, *policy_args, seed=2, arbitrary_start=True), cls
        checked.append(cls.__name__)
    assert {
        "SingleChannelEngine", "TwoChannelEngine", "ConstantStateEngine",
    } <= set(checked)


def test_facade_with_an_unknown_algorithm_is_rejected():
    from repro.core.engines.base import EngineBase

    class Tripled(EngineBase):
        algorithm = "tripled"

    graph = generators.cycle(12)
    with pytest.raises(ValueError, match="algorithm"):
        Tripled(graph, policy_for_variant(graph, "max_degree"), seed=0)


def test_verify_backend_rejects_graph_mutators():
    from repro.core.engines.registry import EngineBackend
    from repro.devtools.contract import verify_backend

    def mutating_run(graph, policy, variant, seed, max_rounds, arbitrary_start):
        outcome = get_engine("vectorized").run(
            graph, policy, variant, seed, max_rounds, arbitrary_start
        )
        # Simulate an engine that edits the shared topology in place: the
        # canonical edge array is the state equality reads.
        object.__setattr__(graph, "_pairs", graph.edge_array[:-1])
        return outcome

    backend = EngineBackend(name="mutator", run=mutating_run)
    problems = verify_backend(backend)
    assert any("mutated the input Graph" in p for p in problems)


def test_all_backends_agree_on_small_graph():
    graph = generators.erdos_renyi_mean_degree(30, 4.0, seed=6)
    results = {
        name: compute_mis(graph, seed=4, engine=name)
        for name in ("vectorized", "reference", "batched")
    }
    for result in results.values():
        assert result.mis
    # Certified-legal outputs; engines need not agree on the exact set,
    # but the vectorized and reference engines are bit-identical.
    assert results["vectorized"].mis == results["reference"].mis
    assert results["vectorized"].rounds == results["reference"].rounds
