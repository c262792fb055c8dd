"""Declarative rate expressions.

Python callables are the most flexible way to specify occupancy-dependent
rates (Definition 1), but they cannot be serialized, compared, or
analysed.  This module provides a small expression language over the
occupancy vector and global time that covers every rate in the paper and
the model zoo:

- ``Const(c)`` — constant;
- ``Occupancy(j)`` — the fraction ``m_j`` (by index or state name once
  bound);
- ``Time()`` — global time ``t`` (the paper's footnote-4 extension);
- arithmetic: ``+``, ``-``, ``*``, ``/`` (with a guarded variant),
  ``min``/``max``, powers.

Expressions evaluate with ``expr(m, t)`` — i.e. they are drop-in rate
specifications for :class:`~repro.meanfield.local_model.LocalModel` —
and round-trip through a JSON-friendly dict form (used by
:mod:`repro.io` model files).

Example — the paper's smart-virus infection rate ``k1 · m3 / m1``::

    rate = Const(0.9) * Occupancy(2).guarded_div(Occupancy(0))

Interpretation vs compilation
-----------------------------

:meth:`Expression.evaluate` walks the tree recursively — one Python call
per node — which is prohibitively slow inside ODE right-hand sides that
rebuild ``Q(m̄(t))`` thousands of times per solve.
:meth:`Expression.compile` therefore generates a single numpy-backed
closure for the whole tree (via source generation and one ``eval``): no
per-node dispatch, and the same closure evaluates a single occupancy
vector ``(K,)`` or a whole batch ``(B, K)`` thanks to ``m[..., j]``
indexing.  The interpreted path stays as the correctness oracle; the
property tests assert agreement to 1e-12.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Union

import numpy as np

from repro.exceptions import ModelError

#: Default floor used by :meth:`Expression.guarded_div`.
GUARD_FLOOR = 1e-12

Number = Union[int, float]


class Expression:
    """Base class of all rate expressions.

    Subclasses implement :meth:`evaluate` and :meth:`to_dict`; the base
    class provides operator overloading, the ``(m, t)`` call protocol and
    structural equality.
    """

    def evaluate(self, m: np.ndarray, t: float) -> float:
        """Numeric value at occupancy ``m`` and time ``t``."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable structural form (see :func:`from_dict`)."""
        raise NotImplementedError

    def children(self) -> "Sequence[Expression]":
        """Direct sub-expressions (for structural walks)."""
        return ()

    def compile(self) -> "CompiledExpression":
        """A single numpy-backed closure equivalent to :meth:`evaluate`.

        The tree is rendered to one Python expression (``m[..., j]`` for
        occupancies, ``t`` for time) and compiled once; calling the
        result costs one function call regardless of tree depth.  Because
        every operation is a numpy ufunc, the closure also evaluates a
        *batch* of occupancy vectors: ``m`` of shape ``(B, K)`` (with
        ``t`` scalar or shape ``(B,)``) yields a ``(B,)`` value array.

        Division by zero raises :class:`~repro.exceptions.ModelError`
        exactly like the interpreted path.
        """
        return compile_expression(self)

    # -- the rate-callable protocol -------------------------------------

    def __call__(self, m: np.ndarray, t: float = 0.0) -> float:
        return self.evaluate(np.asarray(m, dtype=float), float(t))

    # -- operator sugar ---------------------------------------------------

    @staticmethod
    def _coerce(value: "Expression | Number") -> "Expression":
        if isinstance(value, Expression):
            return value
        return Const(float(value))

    def __add__(self, other):
        return Binary("add", self, self._coerce(other))

    def __radd__(self, other):
        return Binary("add", self._coerce(other), self)

    def __sub__(self, other):
        return Binary("sub", self, self._coerce(other))

    def __rsub__(self, other):
        return Binary("sub", self._coerce(other), self)

    def __mul__(self, other):
        return Binary("mul", self, self._coerce(other))

    def __rmul__(self, other):
        return Binary("mul", self._coerce(other), self)

    def __truediv__(self, other):
        return Binary("div", self, self._coerce(other))

    def __rtruediv__(self, other):
        return Binary("div", self._coerce(other), self)

    def __pow__(self, other):
        return Binary("pow", self, self._coerce(other))

    def guarded_div(
        self, other: "Expression | Number", floor: float = GUARD_FLOOR
    ) -> "Expression":
        """Division with the denominator floored away from zero.

        The standard guard for ratios like ``m3 / m1`` on the simplex
        boundary (the paper's smart-virus rate).
        """
        return GuardedDiv(self, self._coerce(other), floor)

    def min_with(self, other: "Expression | Number") -> "Expression":
        """Pointwise minimum (e.g. rate caps)."""
        return Binary("min", self, self._coerce(other))

    def max_with(self, other: "Expression | Number") -> "Expression":
        """Pointwise maximum (e.g. rate floors)."""
        return Binary("max", self, self._coerce(other))

    # -- equality ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Expression):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        def freeze(obj):
            if isinstance(obj, dict):
                return tuple(sorted((k, freeze(v)) for k, v in obj.items()))
            if isinstance(obj, list):
                return tuple(freeze(v) for v in obj)
            return obj

        return hash(freeze(self.to_dict()))


class Const(Expression):
    """A constant value."""

    def __init__(self, value: Number):
        value = float(value)
        if not np.isfinite(value):
            raise ModelError(f"constant must be finite, got {value}")
        self.value = value

    def evaluate(self, m: np.ndarray, t: float) -> float:
        return self.value

    def to_dict(self) -> Dict[str, Any]:
        return {"op": "const", "value": self.value}

    def __repr__(self) -> str:
        return f"Const({self.value:g})"


class Occupancy(Expression):
    """The occupancy fraction of one local state, ``m_j``."""

    def __init__(self, index: int):
        index = int(index)
        if index < 0:
            raise ModelError(f"occupancy index must be >= 0, got {index}")
        self.index = index

    def evaluate(self, m: np.ndarray, t: float) -> float:
        if self.index >= m.shape[0]:
            raise ModelError(
                f"occupancy index {self.index} out of range for K={m.shape[0]}"
            )
        return float(m[self.index])

    def to_dict(self) -> Dict[str, Any]:
        return {"op": "occupancy", "index": self.index}

    def __repr__(self) -> str:
        return f"Occupancy({self.index})"


class Time(Expression):
    """Global time ``t`` — explicit time dependence (footnote 4)."""

    def evaluate(self, m: np.ndarray, t: float) -> float:
        return t

    def to_dict(self) -> Dict[str, Any]:
        return {"op": "time"}

    def __repr__(self) -> str:
        return "Time()"


_BINARY_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "pow": lambda a, b: a**b,
    "min": min,
    "max": max,
}


class Binary(Expression):
    """A binary arithmetic node."""

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in _BINARY_OPS:
            raise ModelError(
                f"unknown operator {op!r}; must be one of {sorted(_BINARY_OPS)}"
            )
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, m: np.ndarray, t: float) -> float:
        left = self.left.evaluate(m, t)
        right = self.right.evaluate(m, t)
        if self.op == "div" and right == 0.0:
            raise ModelError(
                "division by zero in rate expression; use guarded_div for "
                "ratios that touch the simplex boundary"
            )
        return float(_BINARY_OPS[self.op](left, right))

    def children(self) -> "Sequence[Expression]":
        return (self.left, self.right)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    def __repr__(self) -> str:
        return f"Binary({self.op!r}, {self.left!r}, {self.right!r})"


class GuardedDiv(Expression):
    """Division with a floored denominator: ``left / max(right, floor)``."""

    def __init__(self, left: Expression, right: Expression, floor: float):
        floor = float(floor)
        if floor <= 0.0:
            raise ModelError(f"guard floor must be positive, got {floor}")
        self.left = left
        self.right = right
        self.floor = floor

    def evaluate(self, m: np.ndarray, t: float) -> float:
        denominator = max(self.right.evaluate(m, t), self.floor)
        return float(self.left.evaluate(m, t) / denominator)

    def children(self) -> "Sequence[Expression]":
        return (self.left, self.right)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op": "guarded_div",
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
            "floor": self.floor,
        }

    def __repr__(self) -> str:
        return f"GuardedDiv({self.left!r}, {self.right!r}, floor={self.floor:g})"


def from_dict(data: Dict[str, Any]) -> Expression:
    """Rebuild an expression from its :meth:`Expression.to_dict` form."""
    if not isinstance(data, dict) or "op" not in data:
        raise ModelError(f"not an expression dict: {data!r}")
    op = data["op"]
    if op == "const":
        return Const(data["value"])
    if op == "occupancy":
        return Occupancy(data["index"])
    if op == "time":
        return Time()
    if op == "guarded_div":
        return GuardedDiv(
            from_dict(data["left"]),
            from_dict(data["right"]),
            data.get("floor", GUARD_FLOOR),
        )
    if op in _BINARY_OPS:
        return Binary(op, from_dict(data["left"]), from_dict(data["right"]))
    raise ModelError(f"unknown expression op {op!r}")


# ----------------------------------------------------------------------
# Compilation: tree -> single numpy-backed closure
# ----------------------------------------------------------------------


def _checked_div(numerator, denominator):
    """Division matching :class:`Binary`'s div-by-zero semantics."""
    if np.any(np.asarray(denominator) == 0.0):
        raise ModelError(
            "division by zero in rate expression; use guarded_div for "
            "ratios that touch the simplex boundary"
        )
    return numerator / denominator


#: Objects available to generated source.  ``_minimum``/``_maximum`` are
#: ufuncs so min/max nodes broadcast over batched occupancies.
_COMPILE_NAMESPACE = {
    "_minimum": np.minimum,
    "_maximum": np.maximum,
    "_div": _checked_div,
    "__builtins__": {},
}


def _emit(expr: Expression) -> str:
    """Render an expression tree as Python/numpy source over ``m`` and ``t``."""
    if isinstance(expr, Const):
        # Parenthesized: a bare negative literal binds wrong under ``**``
        # (``-1.0 ** 2`` is ``-(1.0 ** 2)``).
        return f"({expr.value!r})"
    if isinstance(expr, Occupancy):
        return f"m[..., {expr.index}]"
    if isinstance(expr, Time):
        return "t"
    if isinstance(expr, GuardedDiv):
        left, right = _emit(expr.left), _emit(expr.right)
        return f"({left} / _maximum({right}, {expr.floor!r}))"
    if isinstance(expr, Binary):
        left, right = _emit(expr.left), _emit(expr.right)
        if expr.op == "add":
            return f"({left} + {right})"
        if expr.op == "sub":
            return f"({left} - {right})"
        if expr.op == "mul":
            return f"({left} * {right})"
        if expr.op == "div":
            return f"_div({left}, {right})"
        if expr.op == "pow":
            return f"({left} ** {right})"
        if expr.op == "min":
            return f"_minimum({left}, {right})"
        if expr.op == "max":
            return f"_maximum({left}, {right})"
    raise ModelError(f"cannot compile expression node {expr!r}")


class CompiledExpression:
    """A compiled expression: one closure, scalar- and batch-callable.

    Calling with ``m`` of shape ``(K,)`` returns a float; shape
    ``(B, K)`` returns a ``(B,)`` array (``t`` may then be a scalar or a
    ``(B,)`` array).  The generated source is kept on :attr:`source` for
    debugging and cache keys.
    """

    __slots__ = ("source", "_func", "max_index")

    def __init__(self, expr: Expression):
        self.source = _emit(expr)
        code = compile(f"lambda m, t=0.0: {self.source}", "<rate-expression>", "eval")
        self._func = eval(code, dict(_COMPILE_NAMESPACE))
        self.max_index = max(
            (node.index for node in _walk(expr) if isinstance(node, Occupancy)),
            default=-1,
        )

    def __call__(self, m, t=0.0):
        return self._func(m, t)

    def __repr__(self) -> str:
        return f"CompiledExpression({self.source})"


def _walk(expr: Expression):
    yield expr
    for child in expr.children():
        yield from _walk(child)


def compile_expression(expr: Expression) -> CompiledExpression:
    """Compile an expression tree (see :meth:`Expression.compile`)."""
    return CompiledExpression(expr)


def is_constant(expr: Expression) -> bool:
    """``True`` iff the expression contains no occupancy/time reference."""
    if isinstance(expr, (Occupancy, Time)):
        return False
    if isinstance(expr, Const):
        return True
    return all(is_constant(child) for child in expr.children())
