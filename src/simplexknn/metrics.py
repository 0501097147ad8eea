"""Distance functions between compositions.

Five families:

  esov       square root of the Jensen-Shannon divergence (a true metric);
             the power-transformed variant is esov_alpha_distance
  tc         taxicab / L1 / Manhattan; power-transformed variant
             taxicab_alpha_distance
  aitchison  Euclidean distance between centred log-ratio images; undefined
             when any part is zero
  hellinger  (1/sqrt 2) * L2 distance between square-rooted parts
  angular    arccos of the raw dot product

All logarithms are natural. Zero parts contribute exactly 0 to the esov sum
(0 log 0 = 0): the quotient inside the log is clamped to the smallest normal
float, so a zero part's term is 0 * log(tiny), and no epsilon is added to
any part. Every function broadcasts: scalars out for 1-D inputs, arrays out
for stacked rows. Every public function is one call of distance, so all
validate the same way: MetricSpec.prepare closes rows that are off the
simplex, as ingestion does, and rejects negative parts (NegativeComponent),
non-finite parts, all-zero rows (DegenerateInput) and zero parts outside the
metric's domain. The kernels in _KERNELS are plain arithmetic that assume
rows prepared so, with the parts on the first axis. Only distance's _measure
(loci's fields too) and knn._walk run a kernel: _measure moves the parts
there, and the walk hands over tiles built that way. prepare also applies each
family's per-row transform (square roots for hellinger, centred log-ratio
images for aitchison), so those kernels are plain L2 distances. Every sum
over the parts runs through _part_sum, which spells out numpy's pairwise
order for a sum over the last axis; so the results are those of the plain
parts-last formulas, bit for bit, and the mixed-magnitude terms of the
power-transformed variants stay well conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroInAitchison
from .simplex import (
    SUM_TOLERANCE,
    _alpha,
    _as_composition,
    _checked_power_transform,
    _validated,
)

__all__ = [
    "FAMILIES",
    "POWER_FAMILIES",
    "MetricSpec",
    "esov_distance",
    "esov_alpha_distance",
    "taxicab_distance",
    "taxicab_alpha_distance",
    "aitchison_distance",
    "hellinger_distance",
    "angular_distance",
    "distance",
]

FAMILIES = ("esov", "tc", "aitchison", "hellinger", "angular")
POWER_FAMILIES = ("esov", "tc")

# A kernel call measures a tile of at most _TILE_FLOATS floats in each (D,
# rows, columns) kernel temporary: 120 KiB keeps it below glibc's 128 KiB
# mmap threshold; at 256 KiB every tile's temporaries were mapped, or trimmed
# off the heap, and faulted in afresh. knn's walk sizes its tiles and strips
# by it, evaluation its blocks of replications, and loci its lattice blocks.
_TILE_FLOATS = 15 * 1024


@dataclass(frozen=True)
class MetricSpec:
    """A metric family plus its power parameter: the one home of per-family facts.

    alpha is meaningful only for the esov and tc families and is fixed at 1
    for the others. A distance is kernel(prepare(x), prepare(w)), with the
    parts moved to the first axis; prepare is also the one domain check.
    """

    family: str
    alpha: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}, expected one of {FAMILIES}"
            )
        object.__setattr__(self, "alpha", _alpha(self.alpha))
        if self.family not in POWER_FAMILIES and self.alpha != 1.0:
            raise ValueError(f"alpha is fixed at 1 for the {self.family} family")

    @property
    def needs_positive(self) -> bool:
        """Whether a zero part lies outside the metric's domain."""
        # alpha is 1 outside POWER_FAMILIES, so alpha < 0 implies a power family
        return self.family == "aitchison" or self.alpha < 0

    @property
    def kernel(self):
        """The family's arithmetic; it assumes rows from prepare and checks nothing.

        Only distance's _measure and knn's walk call it.
        """
        return _KERNELS[self.family]

    def prepare(self, rows, role: str = "composition", names=None) -> np.ndarray:
        """rows checked against the domain and made ready for the kernel.

        Rows must be finite and non-negative and not all zero; where the
        metric excludes zero parts, no part may be zero. Unless alpha is 1,
        _checked_power_transform checks and power-transforms them; else rows
        off the simplex are closed and get their family's transform, the
        parts staying on the last axis: hellinger's rows become the square
        roots of their parts, aitchison's their centred log-ratio images (see
        _clr). An error names the
        offending row of stacked input as "{role} row i" and the part by
        column name when names (one per column) is given, else by index.
        """
        if self.alpha != 1.0:  # a power family
            return _checked_power_transform(rows, self.alpha, role, names)
        zero = (ZeroInAitchison, "is zero") if self.family == "aitchison" else None
        rows = _as_composition(_validated(rows, role, names, zero))
        if self.family == "hellinger":
            return np.sqrt(rows)
        if self.family == "aitchison":
            return _clr(rows)
        return rows

    def triangle_slack(self, parts: int) -> float | None:
        """How far the kernel's values may break the triangle inequality.

        For rows x, w and p from prepare, with the given number of parts,
        the computed distances satisfy d(x, w) >= |d(x, p) - d(w, p)| -
        slack, even after the gap is rounded and the slack subtracted; see
        _distance_error. None for angular, which is not a metric.
        """
        if self.family == "angular":
            return None
        return 4.0 * _distance_error(self.family, parts)


def esov_distance(x, w):
    """Square root of the Jensen-Shannon divergence, natural log.

    Terms with a zero part contribute 0 via 0 log 0 = 0; parts that are zero
    in both arguments contribute 0 as well, so zeros need no replacement.
    """
    return distance(MetricSpec("esov"), x, w)


def esov_alpha_distance(x, w, alpha: float):
    """esov distance between the power-transformed arguments."""
    return distance(MetricSpec("esov", alpha), x, w)


def taxicab_distance(x, w):
    """Sum of absolute part differences; ranges over [0, 2] on the simplex."""
    return distance(MetricSpec("tc"), x, w)


def taxicab_alpha_distance(x, w, alpha: float):
    """Taxicab distance between the power-transformed arguments."""
    return distance(MetricSpec("tc", alpha), x, w)


def aitchison_distance(x, w):
    """Euclidean distance between centred log-ratio images.

    clr(x)_i = log(x_i / g(x)) with g the geometric mean over all parts;
    requires strictly positive parts in both arguments.
    """
    return distance(MetricSpec("aitchison"), x, w)


def hellinger_distance(x, w):
    """(1/sqrt 2) * L2 distance between square-rooted parts; in [0, 1]."""
    return distance(MetricSpec("hellinger"), x, w)


def angular_distance(x, w):
    """arccos of the plain dot product, treating compositions as directions.

    Note: as defined, d(x, x) > 0 anywhere except at the vertices, because
    the dot product of a composition with itself is below 1 inside the
    simplex. The identity axiom intentionally does not hold here; the square
    root of the parts is NOT taken. The dot product is clamped to [-1, 1]
    before arccos to absorb roundoff.
    """
    return distance(MetricSpec("angular"), x, w)


# the order in which numpy combines its 8 running sums, one add at a time
_PAIRS = ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4))


def _part_sum(t):
    """t summed over its first axis, the parts, in np.add.reduce's order.

    The order is that of numpy's pairwise sum over the last axis, so a
    parts-first kernel keeps every bit of its parts-last form: below 8 parts
    the terms are added in order to 0.0; up to 128, into 8 running sums over
    blocks of 8, combined as ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7)), with
    the remainder added in order; above 128, the two halves split at n/2
    rounded down to a multiple of 8 are summed so and added. np.add.reduce
    then adds that to 0.0, which only turns a -0.0 into 0.0. A 1-D t is one
    row, so numpy sums it. t is overwritten.
    """
    if t.ndim == 1:
        return np.add.reduce(t)
    n = t.shape[0]
    if n < 8:
        total = t[0]
        total += 0.0
        for row in t[1:]:
            total += row
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        total = _part_sum(t[:half])
        total += _part_sum(t[half:])
        return total
    acc = t[:8]
    tail = n - n % 8
    for i in range(8, tail, 8):
        acc += t[i : i + 8]
    for i, j in _PAIRS:
        acc[i] += acc[j]
    total = acc[0]
    for row in t[tail:]:
        total += row
    total += 0.0
    return total


# Kernels take rows parts-first: the parts run along axis 0, and the other
# axes broadcast, so a (D, h, 1) block, or knn's (D, h, w) one, against (D,
# 1, w) columns gives an (h, w) tile. Each reduces with _part_sum,
# elementwise operations being exact, so a kernel's bits do not depend on
# the layout. Temporaries are reused in place.


_TINY = np.finfo(float).tiny


def _xlogq(x, q):
    """x * log(q), in q's buffer, for q = 2x / s clamped to the smallest normal float.

    So log never sees a zero or NaN lane, which takes its slow special-value
    path. At a zero part the quotient is 0, or NaN where both parts are zero,
    and the term is 0 * log(tiny) = -0.0; a zero's sign never changes a
    nonzero sum, and _part_sum's result is added to 0.0. Where the clamp
    changes a term of a nonzero x, x < tiny * s / 2, so the other part is
    w = s and |x log q| < 2e-305 * w log 2: far below half an ulp of the
    other term, so their sum rounds to the same bits either way.
    """
    np.fmax(q, _TINY, out=q)
    np.log(q, out=q)
    q *= x
    return q


def _esov(x, w):
    s = x + w
    with np.errstate(invalid="ignore"):  # 0 / 0 where both parts are zero
        # 2x is formed in its quotient's own buffer (doubling is exact); in
        # knn's tiles x is the row block and w the (D, 1, w) columns, whose
        # doubled copy is small and whose quotient goes over s
        q = np.multiply(x, 2.0, out=np.empty_like(s))
        q /= s
        terms = _xlogq(x, q)
        terms += _xlogq(w, np.divide(2.0 * w, s, out=s))
    # roundoff can leave a tiny negative divergence for near-identical inputs
    return np.sqrt(np.maximum(_part_sum(terms), 0.0))


def _taxicab(x, w):
    d = x - w
    return _part_sum(np.abs(d, out=d))


def _clr(rows):
    """Centred log-ratio images of rows, parts on the last axis.

    clr(x)_i = log x_i - mean_j log x_j, computed parts-first with _part_sum
    (numpy's order for a sum over the last axis), so every bit is that of
    the parts-last formula; the result is a parts-last view of the
    parts-first array, which knn's tiles read without a copy.
    """
    logs = np.log(np.ascontiguousarray(np.moveaxis(rows, -1, 0)))
    logs -= _part_sum(logs.copy()) / logs.shape[0]
    return np.moveaxis(logs, 0, -1)


def _aitchison(x, w):
    # L2 between the clr images from prepare
    d = x - w
    return np.sqrt(_part_sum(np.square(d, out=d)))


def _hellinger(x, w):
    # (1/sqrt 2) * L2 between the square-rooted parts from prepare
    d = x - w
    return np.sqrt(0.5 * _part_sum(np.square(d, out=d)))


def _angular(x, w):
    dot = np.clip(_part_sum(x * w), -1.0, 1.0)
    return np.arccos(dot)


_KERNELS = {
    "esov": _esov,
    "tc": _taxicab,
    "aitchison": _aitchison,
    "hellinger": _hellinger,
    "angular": _angular,
}


# Rounding bounds for knn's pivot pruning, for rows from prepare with D
# parts. u is the unit roundoff; the log is taken to be within 4 ulp (np.log
# measured within 0.6 ulp with AVX-512, AVX2 and SSE dispatch); g bounds the relative
# error of D + 3 roundings in a product, or of a sum of D non-negative terms
# in any order, which is what each family needs below.
_U = np.finfo(float).eps / 2
_LOG_ERROR = 8 * _U
# the largest |log| of a positive float (of the smallest subnormal, 744.4)
_LOG_RANGE = 746.0


def _distance_error(family: str, parts: int) -> float:
    """A bound on |computed - exact| for one distance between prepared rows.

    Exact means the family's formula in real arithmetic on the prepared
    floats, which is a metric for all but angular: L1 and L2 on any
    vectors, and the square root of the Jensen-Shannon divergence on any
    non-negative ones (Endres & Schindelin 2003). Closed rows sum to at
    most 1 + SUM_TOLERANCE (rows that close within it are kept as they
    are) up to the closure's rounding, so with both rows of a pair, sigma
    bounds the sum of all parts, and every tc and hellinger distance.

      tc, hellinger: every term of the sum is non-negative, so the result's
        error is relative, at most g, on a distance of at most sigma.
      aitchison: the same on clr images, whose parts lie within _LOG_RANGE
        of 0, so a distance is at most 2 * _LOG_RANGE * sqrt(D).
      esov: with q = 2x / (x + w) rounded twice and the log's error, each
        term x log q is off by at most 2.02 u x + (log error + 1.01 u) *
        |x log q|, where |x log q| <= (x + w) log 2; the add of the two terms
        of a part and the sum over the parts add (u + g) (x + w) 2 log 2. In
        all, the divergence sum is off by at most 2 sigma (log error + g),
        and as |sqrt a - sqrt b| <= sqrt |a - b|, the distance by the root
        of that, plus its own rounding.

    The subnormal range, where a product keeps no relative precision, adds
    less than 1e-150 to a distance, far below every bound here. A slack of
    4 bounds covers the three distances of a triangle, plus the rounding of
    a bound's gap and of the slack's subtraction (each at most u times the
    largest distance, below one bound).
    """
    g = (parts + 3) * _U / (1 - (parts + 3) * _U)
    sigma = 2.0 * (1.0 + SUM_TOLERANCE) * (1.0 + g)
    if family == "esov":
        return math.sqrt(2.0 * sigma * (_LOG_ERROR + g)) + _U * sigma
    if family == "aitchison":
        return g * 2.0 * _LOG_RANGE * math.sqrt(parts)
    return g * sigma


def distance(spec: MetricSpec, x, w):
    """Distance between x and w under spec; esov/tc honour spec.alpha."""
    return _measure(spec, spec.prepare(x), spec.prepare(w))


def _measure(spec: MetricSpec, x, w):
    """distance between x and w, already prepared by spec: the kernel call."""
    if x.shape[-1] != w.shape[-1]:
        raise DimensionMismatch(
            f"compositions have {x.shape[-1]} and {w.shape[-1]} parts"
        )
    nd = max(x.ndim, w.ndim)
    if nd > 1:
        # pad both to nd axes, as broadcasting would, then move the parts
        # first, contiguous, so the kernels read no strided views
        x, w = (
            np.ascontiguousarray(np.moveaxis(a[(None,) * (nd - a.ndim)], -1, 0))
            for a in (x, w)
        )
    return spec.kernel(x, w)
