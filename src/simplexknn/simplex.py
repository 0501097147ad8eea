"""Core operations on compositions.

A composition is a vector of D >= 2 non-negative parts summing to 1. All
functions here accept either a single vector or a matrix of row vectors and
apply row-wise, returning float64 arrays. They are pure and thread-safe.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    NegativeComponent,
    ZeroUnderNegativePower,
)

__all__ = [
    "closure",
    "as_composition",
    "power_transform",
    "perturb",
    "barycentre",
]

SUM_TOLERANCE = 1e-9


def _validated(v, name: str = "composition") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim == 0 or v.shape[-1] < 2:
        raise DegenerateInput(f"{name} needs at least 2 parts, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DegenerateInput(f"{name} contains non-finite parts")
    if np.any(v < 0):
        raise NegativeComponent(f"{name} contains negative parts")
    return v


def closure(v) -> np.ndarray:
    """Scale non-negative parts to unit sum: v / sum(v), row-wise."""
    v = _validated(v)
    s = v.sum(axis=-1, keepdims=True)
    if np.any(s <= 0):
        raise DegenerateInput("all parts are zero; direction is undefined")
    return v / s


def as_composition(v, tol: float = SUM_TOLERANCE) -> np.ndarray:
    """Return v unchanged where its sum is within tol of 1, else apply closure.

    Rows already on the simplex keep their exact floating-point values, so
    re-ingesting previously closed data is a no-op.
    """
    v = _validated(v)
    s = v.sum(axis=-1, keepdims=True)
    if np.any(s <= 0):
        raise DegenerateInput("all parts are zero; direction is undefined")
    return np.where(np.abs(s - 1.0) <= tol, v, v / s)


def power_transform(x, alpha: float) -> np.ndarray:
    """Raise each part to the power alpha and re-close: x_i^alpha / sum_j x_j^alpha.

    Conventions at the boundary:
      * alpha > 0: zero parts stay zero (0^alpha = 0).
      * alpha = 0: every positive part maps to an equal share; zeros stay zero
        (the continuous limit as alpha -> 0+ for each zero pattern).
      * alpha < 0: any zero part is an error, the transform diverges there.

    Parts are rescaled by the row maximum (or minimum for negative alpha)
    before exponentiation so extreme alpha values cannot overflow. They can
    underflow: a positive part far below the scale may map to exactly 0, e.g.
    alpha=1e6 maps [.5, .5-1e-12, 1e-12] to [.5000005, .4999995, 0.].
    """
    x = _validated(x)
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    positive = x > 0
    n_positive = positive.sum(axis=-1, keepdims=True)
    if np.any(n_positive == 0):
        raise DegenerateInput("all parts are zero; direction is undefined")
    if alpha == 0:
        return positive / n_positive
    if alpha < 0:
        if not positive.all():
            raise ZeroUnderNegativePower(
                "zero part under negative power alpha=%g" % alpha
            )
        scale = x.min(axis=-1, keepdims=True)
    else:
        scale = x.max(axis=-1, keepdims=True)
    y = (x / scale) ** alpha
    return y / y.sum(axis=-1, keepdims=True)


def perturb(x, p) -> np.ndarray:
    """Element-wise product with a strictly positive vector, then closure."""
    x = _validated(x)
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != x.shape[-1]:
        raise DimensionMismatch(
            f"perturbation has {p.shape[-1]} parts, composition has {x.shape[-1]}"
        )
    if not np.all(np.isfinite(p)) or np.any(p <= 0):
        raise NegativeComponent("perturbation parts must be strictly positive")
    return closure(x * p)


def barycentre(n_parts: int) -> np.ndarray:
    """The equal-parts composition (1/D, ..., 1/D)."""
    if n_parts < 2:
        raise DegenerateInput("a composition needs at least 2 parts")
    return np.full(n_parts, 1.0 / n_parts)
