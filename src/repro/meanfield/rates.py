"""Normalization of transition-rate specifications.

Definition 1 of the paper allows local transition rates to depend on the
overall system state (the occupancy vector ``m̄``), and the paper notes
that everything extends to rates that depend explicitly on global time.
This module accepts all the convenient spellings a modeller might use and
normalizes them to one canonical signature ``rate(m, t) -> float``:

- a non-negative number — a constant rate;
- a callable ``f(m)`` — depends on the occupancy vector only;
- a callable ``f(m, t)`` — depends on occupancy and global time;
- a member ``family[j]`` of a :class:`RateFamily` (below).

The arity is detected once, at model-construction time, so the hot path
(generator assembly inside ODE right-hand sides) pays no inspection cost.

A rate callable may additionally declare ``vectorized = True`` to promise
that it evaluates a whole *batch* of occupancy vectors at once: given
``m`` of shape ``(B, K)`` (and ``t`` scalar or of shape ``(B,)``) it
returns a ``(B,)`` value array.  Writing the body with ``m[..., j]``
indexing and numpy ufuncs (``np.maximum`` instead of ``max``) makes the
same code serve both the scalar and the batched path;
:meth:`~repro.meanfield.compiled.CompiledGenerator.transition_rates` —
the per-transition table behind CSR assembly, the large-``K`` drift and
the Monte-Carlo engines — then calls the rate once per batch instead of
once per occupancy vector.  Expression rates get this for free via
:meth:`~repro.meanfield.expressions.Expression.compile`.

A **rate family** goes one step further for models with many
transitions whose rates share work (the tail sums of a queue, the mean
load of a population): one callable ``fn(m)`` or ``fn(m, t)`` maps
occupancies of shape ``(..., K)`` to the rates of ``n`` transitions,
shape ``(..., n)``.  ``family[j]`` is the ordinary rate callable of the
``j``-th transition — called on its own it returns ``fn(...)[..., j]``,
so the interpreted generator, the dense assembly paths and lumping need
no special case — while ``transition_rates`` groups the members of each
family and calls ``fn`` once per assembly.  A member may be shared by
several transitions (a size-1 family is one rate used everywhere).
"""

from __future__ import annotations

import inspect
from typing import Callable, Tuple, Union

import numpy as np

from repro.exceptions import InvalidRateError, ModelError

RateSpec = Union[float, int, Callable]
RateFunction = Callable[[np.ndarray, float], float]


def _positional_arity(func: Callable) -> int:
    """Number of positional parameters a callable accepts (capped at 2)."""
    try:
        sig = inspect.signature(func)
    except (TypeError, ValueError):
        # Builtins / numpy ufuncs without introspectable signatures: assume
        # the full (m, t) form and let the call fail loudly if wrong.
        return 2
    count = 0
    for param in sig.parameters.values():
        if param.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            count += 1
        elif param.kind == inspect.Parameter.VAR_POSITIONAL:
            return 2
    return count


class RateFamily:
    """The rates of ``size`` transitions computed by one vectorized call.

    Parameters
    ----------
    fn:
        ``fn(m)`` or ``fn(m, t)`` mapping occupancies of shape ``(..., K)``
        to rates of shape ``(..., size)``.  Write it with ``m[..., j]``
        indexing and numpy ufuncs so one body serves a single occupancy
        vector and a ``(B, K)`` batch.  A time-dependent ``fn`` receives
        ``t`` either as a scalar or, for a batch, with shape ``(B, 1)``
        so that it broadcasts against the ``(B, size)`` result.
    size:
        Number of member rates ``n``.

    ``family[j]`` is the rate callable of member ``j``; pass it to
    :meth:`~repro.meanfield.local_model.LocalModelBuilder.transition`
    like any other rate.  The arity of ``fn`` is inspected once here, not
    once per member.  Results are validated (finite, non-negative) by the
    generator assemblers exactly as for ordinary rates; a result whose
    trailing dimension is not ``size`` raises :class:`ModelError`.
    """

    def __init__(self, fn: Callable, size: int):
        if not callable(fn):
            raise InvalidRateError(f"rate family needs a callable, got {fn!r}")
        size = int(size)
        if size < 1:
            raise ModelError(f"rate family size must be >= 1, got {size}")
        arity = _positional_arity(fn)
        if arity < 1:
            raise InvalidRateError(
                f"rate family callable {fn!r} must accept (m) or (m, t)"
            )
        self.fn = fn
        self.size = size
        #: Whether ``fn`` takes global time (the ``(m, t)`` form).
        self.time_dependent = arity >= 2
        self._members: Tuple["FamilyMember", ...] = tuple(
            FamilyMember(self, j) for j in range(size)
        )

    def __getitem__(self, index: int) -> "FamilyMember":
        return self._members[index]

    def evaluate(self, m: np.ndarray, t=0.0) -> np.ndarray:
        """All member rates at once: shape ``m.shape[:-1] + (size,)``.

        ``t`` must broadcast against the result (a scalar, or ``(B, 1)``
        for a batch).  Values are returned unvalidated.
        """
        values = np.asarray(
            self.fn(m, t) if self.time_dependent else self.fn(m), dtype=float
        )
        if values.shape[-1:] != (self.size,):
            raise ModelError(
                f"rate family {self.fn!r} returned shape {values.shape}; "
                f"the trailing dimension must be its size {self.size}"
            )
        return values

    def __repr__(self) -> str:
        return f"RateFamily({self.fn!r}, size={self.size})"


class FamilyMember:
    """Member ``index`` of a :class:`RateFamily`: an ordinary rate ``(m, t)``.

    Already in normalized form, batch-capable (``vectorized``), and
    time-independent whenever its family's callable takes ``m`` only.
    """

    vectorized = True

    def __init__(self, family: RateFamily, index: int):
        self.family = family
        self.index = index

    def __call__(self, m: np.ndarray, t=0.0):
        if np.ndim(t):
            # A per-occupancy time vector ``(B,)`` must broadcast against
            # the family's ``(B, size)`` result.
            t = np.asarray(t)[..., None]
        return self.family.evaluate(m, t)[..., self.index]

    def __repr__(self) -> str:
        return f"{self.family!r}[{self.index}]"


def normalize_rate(spec: RateSpec) -> RateFunction:
    """Convert any accepted rate specification to ``f(m, t) -> float``.

    Raises
    ------
    InvalidRateError
        If a constant rate is negative or non-finite, or a callable takes
        no positional arguments.
    """
    if isinstance(spec, FamilyMember):
        # Normalized by construction; its family was inspected once.
        return spec
    if callable(spec):
        arity = _positional_arity(spec)
        if arity >= 2:
            return spec
        if arity == 1:
            def rate_m_only(m: np.ndarray, t: float, _f=spec) -> float:
                return _f(m)

            rate_m_only.vectorized = bool(getattr(spec, "vectorized", False))
            return rate_m_only
        raise InvalidRateError(
            f"rate callable {spec!r} must accept (m) or (m, t)"
        )
    value = float(spec)
    if not np.isfinite(value) or value < 0.0:
        raise InvalidRateError(
            f"constant rate must be finite and >= 0, got {value}"
        )

    def constant_rate(m: np.ndarray, t: float, _v=value) -> float:
        return _v

    return constant_rate


def is_constant_rate(spec: RateSpec) -> bool:
    """``True`` iff the rate can never change (number or constant expression)."""
    if not callable(spec):
        return True
    from repro.meanfield.expressions import Expression, is_constant

    if isinstance(spec, Expression):
        return is_constant(spec)
    return False


def evaluate_rate(rate: RateFunction, m: np.ndarray, t: float) -> float:
    """Evaluate a normalized rate and validate the result.

    Raises :class:`InvalidRateError` on negative or non-finite values, with
    enough context to locate the offending model ingredient.
    """
    value = float(rate(m, t))
    if not np.isfinite(value) or value < -1e-9:
        raise InvalidRateError(
            f"rate evaluated to {value} at m={np.asarray(m)!r}, t={t}"
        )
    # Tolerate (and clamp) round-off-level negatives produced by ODE
    # solvers stepping marginally off the simplex.
    return max(value, 0.0)
