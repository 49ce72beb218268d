"""Guarded p-value transforms combining real-data and pooled-data evidence.

Two pure scalar kernels live here.  ``synthetic_powered_pvalue`` lets a
pooled real+auxiliary p-value replace the real-data p-value, but never by
more than a guard ``delta``: the result is clamped to
``[p_real - delta, p_real]``.  ``static_modified_pvalue`` is its rank-free
equivalent: for every threshold ``t`` with
``delta = (epsilon / alpha) * t`` and ``c = alpha / (alpha + epsilon)``,

    synthetic_powered_pvalue(p, q, delta) <= t
        <=>  static_modified_pvalue(p, q, c) <= t

No pipeline calls them: they are the scalar reference that the tests
compare the array kernel of ``synthbh.stepup`` against.  Both accept
``float`` or ``fractions.Fraction`` inputs and preserve the input type, so
callers can run exact rational comparisons where a float ``c * p`` versus
``p - delta`` could disagree by one ULP at a threshold boundary.  NaN
inputs are rejected, never ordered.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TypeVar, Union

Scalar = Union[float, Fraction]
T = TypeVar("T", float, Fraction)


def _check_probability(name: str, value: Scalar) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not (0 <= value <= 1):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def synthetic_powered_pvalue(p_real: T, p_pooled: T, delta: Scalar) -> T:
    """Pooled p-value guarded to lie within ``delta`` below the real one.

    Returns ``min(p_real, max(p_pooled, p_real - delta))``.  The result r
    always satisfies ``p_real - delta <= r <= p_real``; when the pooled
    value is no smaller than the real one, r equals ``p_real`` exactly.
    ``p_real - delta`` may be negative; no clamping to zero is applied.
    """
    _check_probability("p_real", p_real)
    _check_probability("p_pooled", p_pooled)
    if isinstance(delta, float) and not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta!r}")
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta!r}")
    return min(p_real, max(p_pooled, p_real - delta))


def static_modified_pvalue(p_real: T, p_pooled: T, c: Scalar) -> T:
    """Rank-free modified p-value ``min(p_real, max(p_pooled, c * p_real))``.

    ``c`` is the guard ratio in (0, 1]; ``c = 1`` returns ``p_real``
    unchanged.  Under ``c = alpha / (alpha + epsilon)`` this is the static
    value whose plain step-up run reproduces the rank-adaptive procedure.
    """
    _check_probability("p_real", p_real)
    _check_probability("p_pooled", p_pooled)
    if isinstance(c, float) and not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c!r}")
    if not (0 < c <= 1):
        raise ValueError(f"c must be in (0, 1], got {c!r}")
    return min(p_real, max(p_pooled, c * p_real))
