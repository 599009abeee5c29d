"""Numeric-safety rules (RPR3xx).

PR 1 caught a latent int8 overflow in the matvec reception path by hand
(degrees ≥ 256 silently wrapped the neighbor-beep counts); these rules
make that class of bug, and float-equality probability tests, into lint
errors.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..pipeline.project import _dotted
from . import FileContext, Rule, Violation

__all__ = ["FloatEqualityRule", "SmallIntDtypeRule"]

#: Float literals that are exactly representable *and* conventionally
#: used as sentinels (empty-probability guards like ``p == 0.0``); exact
#: comparison against them is deliberate and safe.
_EXACT_SENTINELS = (0.0, 1.0, -1.0)

_SMALL = frozenset({"int8", "int16", "uint8", "uint16"})
_WIDE = frozenset({"int32", "int64", "intp", "uint32", "uint64"})
_SMALL_ATTRS = frozenset(f"{mod}.{s}" for mod in ("np", "numpy") for s in _SMALL)
_WIDE_ATTRS = frozenset(f"{mod}.{w}" for mod in ("np", "numpy") for w in _WIDE)


class FloatEqualityRule(Rule):
    """RPR301: no ``==``/``!=`` against non-sentinel float literals."""

    rule_id = "RPR301"
    title = "float equality on probabilities"
    rationale = (
        "Probabilities here are computed as 2^(-l) chains and compared "
        "across engines; == on computed floats encodes an accidental "
        "bit-pattern assumption.  Exact sentinels (0.0, 1.0, -1.0) are "
        "exempt — they are exactly representable and used as explicit "
        "guard values."
    )

    @staticmethod
    def _nonsentinel_float(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and node.value not in _EXACT_SENTINELS
        )

    node_types = (ast.Compare,)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        assert isinstance(node, ast.Compare)
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        for operand in [node.left] + list(node.comparators):
            if isinstance(operand, ast.Constant) and self._nonsentinel_float(operand):
                yield ctx.violation(
                    self,
                    node,
                    f"float equality against {operand.value!r}; compare "
                    "with a tolerance (math.isclose/np.isclose) or "
                    "restructure around integer levels",
                )
                break


class SmallIntDtypeRule(Rule):
    """RPR302: no ``int8``/``int16`` dtypes in array code."""

    rule_id = "RPR302"
    title = "overflow-prone small integer dtype"
    rationale = (
        "adjacency.dot(x.astype(np.int8)) returns int8: neighbor-beep "
        "counts wrap at degree 128 and the legality predicate silently "
        "lies on dense graphs (the PR-1 bug class).  Casts feeding "
        "matvec/reduction paths must be >= int32."
    )

    node_types = (ast.Attribute, ast.Call)

    def _wide_accumulator(self, node: ast.AST) -> bool:
        """True for an explicit >= 32-bit dtype expression."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value in _WIDE
        return _dotted(node) in _WIDE_ATTRS

    def _exempt_reinterpret_views(self, node: ast.Call, ctx: FileContext) -> None:
        """Mark small-dtype nodes that are safe by construction.

        ``mask.view(np.int8)`` fed to a call with an explicit wide
        ``dtype=`` accumulator (``np.einsum(..., dtype=np.int32)``)
        cannot wrap: the view reinterprets 0/1 booleans and the result
        dtype is pinned by the accumulator, not inherited.
        """
        if not any(
            kw.arg == "dtype" and self._wide_accumulator(kw.value)
            for kw in node.keywords
        ):
            return
        for arg in node.args:
            if (
                isinstance(arg, ast.Call)
                and _dotted(arg.func).endswith(".view")
            ):
                ctx.exempt.update(id(inner) for inner in ast.walk(arg))

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        if id(node) in ctx.exempt:
            return
        if isinstance(node, ast.Attribute):
            name = _dotted(node)
            if name in _SMALL_ATTRS:
                yield ctx.violation(
                    self,
                    node,
                    f"{name} can overflow at degree >= 128 in matvec "
                    "paths; use int32 or wider",
                )
            return
        assert isinstance(node, ast.Call)
        self._exempt_reinterpret_views(node, ctx)
        # String dtypes: astype("int8") anywhere, dtype="int16" kwargs.
        candidates = [kw.value for kw in node.keywords if kw.arg == "dtype"]
        if _dotted(node.func).endswith(".astype") and node.args:
            candidates.append(node.args[0])
        for arg in candidates:
            if (
                isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and arg.value in _SMALL
            ):
                yield ctx.violation(
                    self,
                    arg,
                    f"dtype {arg.value!r} can overflow at degree "
                    ">= 128 in matvec paths; use int32 or wider",
                )
