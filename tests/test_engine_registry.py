"""The engine-backend registry replacing string-dispatch chains."""

import pytest

from repro.core.engines.registry import (
    EngineBackend,
    available_engines,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.core.runner import compute_mis
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


def test_register_and_unregister_custom_engine():
    calls = []

    def run(graph, policy, variant, seed, max_rounds, arbitrary_start):
        calls.append(variant)
        return get_engine("vectorized").run(
            graph, policy, variant, seed, max_rounds, arbitrary_start
        )

    register_engine("custom-test", run, description="delegating test engine")
    try:
        assert "custom-test" in available_engines()
        graph = generators.cycle(12)
        result = compute_mis(graph, seed=0, engine="custom-test")
        assert calls == ["max_degree"]
        assert result.mis  # a certified MIS came back through the backend
    finally:
        unregister_engine("custom-test")
    assert "custom-test" not in available_engines()


def test_duplicate_registration_needs_overwrite():
    backend = get_engine("vectorized")
    with pytest.raises(ValueError, match="already registered"):
        register_engine("vectorized", backend.run)
    # Explicit overwrite round-trips the same backend harmlessly.
    register_engine(
        "vectorized", backend.run, description=backend.description,
        capabilities=backend.capabilities, overwrite=True,
    )
    assert get_engine("vectorized").run is backend.run


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


def test_engine_classes_satisfy_the_class_contract():
    from repro.core.engines import (
        BatchedEngine,
        ConstantStateEngine,
        SingleChannelEngine,
        TwoChannelEngine,
    )
    from repro.core.engines.base import EngineBase
    from repro.devtools.contract import verify_engine_class

    for cls in (SingleChannelEngine, TwoChannelEngine):
        assert verify_engine_class(cls) == []
    # Non-EngineBase engines are reported as such, not silently passed.
    for cls in (BatchedEngine, ConstantStateEngine):
        problems = verify_engine_class(cls)
        assert problems and "not an EngineBase subclass" in problems[0]
    # A defective subclass (no level range, hence no algorithm) is
    # caught programmatically.
    class Broken(EngineBase):
        pass

    assert any("uses_negative_levels" in p for p in verify_engine_class(Broken))


def test_verify_engine_class_rejects_a_seedless_constructor():
    from repro.core.engines.base import EngineBase
    from repro.devtools.contract import verify_engine_class

    class Seedless(EngineBase):
        def __init__(self, graph):
            pass

        def step(self):
            pass

    assert any("'seed'" in p for p in verify_engine_class(Seedless))


def test_every_engine_base_subclass_satisfies_the_class_contract():
    """Every EngineBase subclass the package defines, not a fixed list."""
    import repro.core.engines  # noqa: F401 - imports every engine module
    from repro.core.engines.base import EngineBase
    from repro.devtools.contract import verify_engine_class

    checked = []
    pending = list(EngineBase.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro."):
            assert verify_engine_class(cls) == [], cls
            checked.append(cls.__name__)
    assert {"SingleChannelEngine", "TwoChannelEngine"} <= set(checked)


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
