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


def _domain_fault(rows: np.ndarray):
    """The first break of the composition rule in an (n, D) matrix, or None.

    The rule, checked in this order over the whole matrix: every part is
    finite, every part is non-negative, and no row has all parts zero. So a
    non-finite part is reported even when an earlier row has a negative one.
    Returns (rank, error class, row, part, reason): rank is the broken rule's
    place in that order, from 0, and part is None for an all-zero row.
    """
    for rank, (bad, error, reason) in enumerate((
        (~np.isfinite(rows), DegenerateInput, "contains non-finite parts"),
        (rows < 0, NegativeComponent, "contains negative parts"),
    )):
        if bad.any():
            row, part = np.argwhere(bad)[0]
            return rank, error, int(row), int(part), reason
    # parts are finite and non-negative here, so a row sums to 0 exactly when
    # all its parts are 0; a matrix-vector product is the quickest row sum
    empty = rows @ np.ones(rows.shape[-1]) == 0
    if empty.any():
        reason = "is degenerate, all parts are zero"
        return 2, DegenerateInput, int(empty.argmax()), None, reason
    return None


def _validated(
    v, role: str = "composition", names=None, zero=None, first: int = 0
) -> np.ndarray:
    """v as a float array whose rows follow the composition rule.

    zero is (error class, reason) where a zero part is outside the domain;
    that check runs last. Errors name the offending row as "{role} row i"
    when v is stacked, counting from first (a block's place in its file),
    and the part as "part j", or "column NAME" when names (one per column)
    is given.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim == 0 or v.shape[-1] < 2:
        raise DegenerateInput(f"{role} needs at least 2 parts, got shape {v.shape}")
    rows = v.reshape(-1, v.shape[-1])
    fault = _domain_fault(rows)
    if fault is None and zero is not None and not rows.all():
        row, part = np.argwhere(rows == 0)[0]
        fault = 3, zero[0], int(row), int(part), zero[1]
    if fault is not None:
        _, error, row, part, reason = fault
        where = role if v.ndim == 1 else f"{role} row {first + row}"
        if part is not None:
            where += f", part {part}" if names is None else f", column {names[part]}"
        raise error(f"{where} {reason}")
    return v


def closure(v) -> np.ndarray:
    """Scale non-negative parts to unit sum: v / sum(v), row-wise."""
    v = _validated(v)
    return v / v.sum(axis=-1, keepdims=True)


def as_composition(v) -> np.ndarray:
    """Return v unchanged where its sum is within SUM_TOLERANCE of 1, else closed.

    Rows already on the simplex keep their exact floating-point values, so
    re-ingesting previously closed data is a no-op.
    """
    return _as_composition(_validated(v))


def _as_composition(v: np.ndarray) -> np.ndarray:
    """as_composition of rows already checked by _validated or _domain_fault."""
    s = v.sum(axis=-1, keepdims=True)
    on_simplex = np.abs(s - 1.0) <= SUM_TOLERANCE
    if on_simplex.all():
        return v
    return np.where(on_simplex, v, v / s)


def power_transform(x, alpha: float) -> np.ndarray:
    """Raise each part to the power alpha and re-close: x_i^alpha / sum_j x_j^alpha.

    Conventions at the boundary:
      * alpha > 0: zero parts stay zero (0^alpha = 0).
      * alpha = 0: every positive part maps to an equal share; zeros stay zero
        (the continuous limit as alpha -> 0+ for each zero pattern).
      * alpha < 0: any zero part is an error (ZeroUnderNegativePower, naming
        the row and part), the transform diverges there.

    Parts are rescaled by the row maximum (or minimum for negative alpha)
    before exponentiation so extreme alpha values cannot overflow; where a
    subnormal minimum overflows the ratio itself, that part is computed
    from logarithms. Parts can underflow: a positive part far below the
    scale may map to exactly 0, e.g. alpha=1e6 maps [.5, .5-1e-12, 1e-12]
    to [.5000005, .4999995, 0.].
    """
    return _checked_power_transform(x, alpha)


def _alpha(alpha) -> float:
    """alpha as a finite float: MetricSpec's and power_transform's one rule."""
    try:
        if isinstance(alpha, (bool, np.bool_)):
            raise TypeError
        alpha = float(alpha)
    except (TypeError, ValueError):
        raise ValueError(f"alpha must be a number, got {alpha!r}") from None
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    return alpha


def _integer(value, name: str, positive: bool = True) -> int:
    """value as a Python int: the one rule for a count (k, B, test_total, a
    lattice's n) and, with positive=False, for a seed of either sign. A bool
    is neither, nor is a number with a fraction; the error names the argument."""
    try:
        if isinstance(value, (bool, np.bool_)) or int(value) != value:
            raise ValueError
        if positive and value < 1:
            raise ValueError
    except (TypeError, ValueError, OverflowError):  # also None, text, nan, inf
        kind = "a positive integer" if positive else "an integer"
        raise ValueError(f"{name} must be {kind}, got {value!r}") from None
    return int(value)


def _whole(values, name: str) -> np.ndarray:
    """values as an intp array, by _integer's rule for each value: a whole
    float such as 1.0 is kept, while a bool or a fraction is an error."""
    array = np.asarray(values)
    with np.errstate(invalid="ignore"):  # nan and inf fail the comparison
        whole = array.astype(np.intp)
    if array.dtype == bool or not np.array_equal(whole, array):
        raise ValueError(f"{name} must be whole numbers")
    return whole


def _checked_power_transform(x, alpha, role="composition", names=None, first=0):
    """power_transform naming a fault's row and part, as _validated does: the
    one validate-and-power routine, which MetricSpec.prepare also calls."""
    alpha = _alpha(alpha)
    zero = None  # zero parts fail only at alpha < 0
    if alpha < 0:
        zero = ZeroUnderNegativePower, f"is zero under alpha={alpha:g}"
    x = _validated(x, role, names, zero, first)
    positive = x > 0
    n_positive = positive.sum(axis=-1, keepdims=True)
    if alpha == 0:
        return positive / n_positive
    scale = (x.min if alpha < 0 else x.max)(axis=-1, keepdims=True)
    with np.errstate(over="ignore"):
        y = x / scale
    far = np.isinf(y)  # only at alpha < 0, below a subnormal minimum
    y **= alpha
    if far.any():
        logs = np.log(x[far]) - np.log(np.broadcast_to(scale, x.shape)[far])
        y[far] = np.exp(alpha * logs)
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
