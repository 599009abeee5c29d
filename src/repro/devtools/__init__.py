"""Developer tooling: determinism & contract linting, seed discipline.

Everything this repo claims (Theorems 2.1/2.2, Corollary 2.3) rests on
bit-reproducible randomized executions.  The bug classes that can
silently invalidate a reproduction — global RNG use, unseeded
``default_rng()``, wall-clock reads inside simulation paths, float
``==`` on probabilities, backends drifting from the registry
contract — are mechanically detectable, and this package detects them:

* :mod:`~repro.devtools.seeding` — the single blessed seed-coercion
  helper (:func:`resolve_rng`) shared by every subsystem.
* :mod:`~repro.devtools.pipeline` — one static-analysis pass: every
  file parsed once, the per-line rules of :mod:`~repro.devtools.rules`
  (RNG discipline, determinism, numeric safety, profiling discipline)
  in one walk per module, and the :mod:`~repro.devtools.dataflow` and
  :mod:`~repro.devtools.hotpath` families on one interprocedural
  driver.  Rule catalogue:
  ``docs/linting.md``.
* :mod:`~repro.devtools.contract` — the *runtime* engine-contract
  checker (backend surface, Graph immutability) behind
  ``repro check`` and the registry regression tests.
* :mod:`~repro.devtools.sanitize` — the runtime sanitizers behind
  ``repro check --sanitize``.
* :mod:`~repro.devtools.check` — the ``repro check`` CI gate: ruff +
  mypy + the static pass + the contract sweep, with human and JSON
  output.
"""

from typing import Any

from .seeding import SeedLike, SeedSpec, as_seed_sequence, derive_seed_sequence, resolve_rng

__all__ = [
    "SeedLike",
    "SeedSpec",
    "resolve_rng",
    "as_seed_sequence",
    "derive_seed_sequence",
    "lint_paths",
    "LintReport",
    "verify_backend",
    "verify_registry",
]

#: Lazily re-exported names: ``contract`` imports ``repro.core.engines``,
#: which itself imports :mod:`repro.devtools.seeding` — an eager import
#: here would cycle.  ``rules`` rides along for symmetry.
_LAZY = {
    "lint_paths": ("repro.devtools.rules", "lint_paths"),
    "LintReport": ("repro.devtools.rules", "LintReport"),
    "verify_backend": ("repro.devtools.contract", "verify_backend"),
    "verify_registry": ("repro.devtools.contract", "verify_registry"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)
