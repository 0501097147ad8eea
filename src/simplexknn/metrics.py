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
rows prepared so, with the parts on the first axis: distance moves them
there, and knn hands over tiles built that way. Every sum over the parts
runs through _part_sum, which spells out numpy's pairwise order for a sum
over the last axis; so the results are those of the plain parts-last
formulas, bit for bit, and the mixed-magnitude terms of the power-
transformed variants stay well conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroInAitchison
from .simplex import _as_composition, _power_transform, _power_zero_rule, _validated

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


@dataclass(frozen=True)
class MetricSpec:
    """A metric family plus its power parameter: the one home of per-family facts.

    alpha is meaningful only for the esov and tc families and is fixed at 1
    for the others. Callers measure distances as kernel(prepare(x),
    prepare(w)); prepare is also the one domain check.
    """

    family: str
    alpha: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}, expected one of {FAMILIES}"
            )
        if isinstance(self.alpha, (bool, np.bool_)):
            raise ValueError(f"alpha must be a number, got {self.alpha!r}")
        object.__setattr__(self, "alpha", float(self.alpha))
        if not np.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
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

        The public distance functions validate through distance.
        """
        return _KERNELS[self.family]

    def prepare(self, rows, role: str = "composition", names=None) -> np.ndarray:
        """rows checked against the domain and made ready for the kernel.

        Rows must be finite and non-negative and not all zero; where the
        metric excludes zero parts, no part may be zero. Rows off the simplex
        are closed, then power-transformed unless alpha is 1. An error names
        the offending row of stacked input as "{role} row i" and the part
        by column name when names (one per column) is given, else by index.
        """
        if self.family == "aitchison":
            zero = ZeroInAitchison, "is zero"
        else:
            zero = _power_zero_rule(self.alpha)  # alpha is 1 outside POWER_FAMILIES
        rows = _validated(rows, role, names, zero)
        if self.alpha == 1.0:
            return _as_composition(rows)
        return _power_transform(rows, self.alpha)


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


def _xlogq(x, s, out=None):
    """x * log(2x / s), with the quotient clamped to the smallest normal float.

    So log never sees a zero or NaN lane, which takes its slow special-value
    path. At a zero part the quotient is 0, or NaN where both parts are zero,
    and the term is 0 * log(tiny) = -0.0; a zero's sign never changes a
    nonzero sum, and _part_sum's result is added to 0.0. Where the clamp
    changes a term of a nonzero x, x < tiny * s / 2, so the other part is
    w = s and |x log q| < 2e-305 * w log 2: far below half an ulp of the
    other term, so their sum rounds to the same bits either way.
    """
    q = np.divide(2.0 * x, s, out=out)
    np.fmax(q, _TINY, out=q)
    np.log(q, out=q)
    q *= x
    return q


def _esov(x, w):
    s = x + w
    with np.errstate(invalid="ignore"):  # 0 / 0 where both parts are zero
        terms = _xlogq(x, s)
        terms += _xlogq(w, s, out=s)
    # roundoff can leave a tiny negative divergence for near-identical inputs
    return np.sqrt(np.maximum(_part_sum(terms), 0.0))


def _taxicab(x, w):
    d = x - w
    return _part_sum(np.abs(d, out=d))


def _aitchison(x, w):
    lx = np.log(x)
    lw = np.log(w)
    cx = lx - _part_sum(lx.copy()) / lx.shape[0]
    cw = lw - _part_sum(lw.copy()) / lw.shape[0]
    d = cx - cw
    return np.sqrt(_part_sum(np.square(d, out=d)))


def _hellinger(x, w):
    d = np.sqrt(x) - np.sqrt(w)
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


def distance(spec: MetricSpec, x, w):
    """Distance between x and w under spec; esov/tc honour spec.alpha."""
    x = spec.prepare(x)
    w = spec.prepare(w)
    if x.shape[-1] != w.shape[-1]:
        raise DimensionMismatch(
            f"compositions have {x.shape[-1]} and {w.shape[-1]} parts"
        )
    nd = max(x.ndim, w.ndim)
    if nd > 1:
        # pad both to nd axes, as broadcasting would, then move the parts
        # first; a pair of 1-D rows is parts-first already
        order = (nd - 1, *range(nd - 1))
        x, w = (
            a.reshape((1,) * (nd - a.ndim) + a.shape).transpose(order)
            for a in (x, w)
        )
    return spec.kernel(x, w)
