"""Ternary geometry: plane embedding of 3-part compositions and distance fields.

The fields are the raw material for equidistance-loci plots: a triangular
lattice over the simplex with the distance from every lattice point to a
reference composition. Contour extraction is left to downstream plotting;
this module only emits the scalar field.

The lattice is built and measured a run of points at a time (_lattice):
distance_field joins the runs, and the loci command writes each as it comes,
so that command's memory does not depend on the resolution n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from . import metrics
from .metrics import MetricSpec, _measure
from .simplex import _integer

__all__ = [
    "ternary_embed",
    "DistanceField",
    "distance_field",
    "DEFAULT_RESOLUTION",
]

_HEIGHT = math.sqrt(3.0) / 2.0

# about 20k lattice points: fields for a whole panel of alphas stay quick
DEFAULT_RESOLUTION = 200


def ternary_embed(c) -> np.ndarray:
    """Map 3-part compositions (..., 3) onto plot coordinates (..., 2).

    The embedding is the affine barycentric map with vertices (0, 0), (1, 0)
    and (0.5, sqrt(3)/2) for the first, second and third part respectively.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim == 0 or c.shape[-1] != 3:
        raise DimensionMismatch(f"ternary embedding needs 3 parts, got {c.shape}")
    return np.stack([c[..., 1] + 0.5 * c[..., 2], _HEIGHT * c[..., 2]], axis=-1)


@dataclass(frozen=True, eq=False)
class DistanceField:
    """Distances from lattice points of the ternary simplex to a reference.

    The lattice is {(i/n, j/n, (n-i-j)/n) : i + j <= n} in row-major (i, j)
    order, intersected with the metric's domain: boundary points are skipped
    (never imputed) for metrics that require strictly positive parts. parts
    is the (m, 3) array of lattice compositions, values the (m,) distances;
    ternary_embed(parts) gives their plot coordinates.
    """

    n: int
    spec: MetricSpec
    reference: tuple[float, float, float]
    parts: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("parts", "values"):
            array = np.asarray(getattr(self, name), dtype=float)
            array.setflags(write=False)
            object.__setattr__(self, name, array)


def _lattice(spec: MetricSpec, reference, n: int, size: int):
    """Check n and the reference; return n, the reference as 3 floats and an
    iterator of (parts, values) over runs of at most size lattice points in
    row-major (i, j) order, less the boundary where spec needs positive parts.

    Each point's row is found from its flat index among the row starts, so
    no array spans the lattice. A run is one kernel call, within
    metrics._TILE_FLOATS for size up to _TILE_FLOATS // 3, and a point's
    distance does not depend on its run.
    """
    n = _integer(n, "n")
    if n < 2:
        raise ValueError("grid resolution n must be at least 2")
    ref = np.asarray(reference, dtype=float)
    if ref.shape != (3,):
        raise DimensionMismatch(f"reference needs 3 parts, got shape {ref.shape}")
    prepared = spec.prepare(ref[None, :], "reference")  # an error names the reference

    def runs():
        # row i holds the n + 1 - i points (i, j), j = 0 .. n - i
        i = np.arange(n + 1)
        starts = i * (n + 1) - i * (i - 1) // 2
        total = (n + 1) * (n + 2) // 2
        for first in range(0, total, size):
            flat = np.arange(first, min(first + size, total))
            ii = np.searchsorted(starts, flat, side="right") - 1
            jj = flat - starts[ii]
            parts = np.stack([ii, jj, n - ii - jj], axis=1) / n
            if spec.needs_positive:
                parts = parts[(parts > 0).all(axis=1)]
            yield parts, _measure(spec, spec.prepare(parts), prepared)

    return n, tuple(ref.tolist()), runs()


def distance_field(spec: MetricSpec, reference, n: int) -> DistanceField:
    """distance(spec, lattice point, reference) over the lattice, measured a
    run at a time (see _lattice): every value is one distance call's bits."""
    n, ref, runs = _lattice(spec, reference, n, metrics._TILE_FLOATS // 3)
    parts, values = zip(*runs)
    return DistanceField(
        n=n,
        spec=spec,
        reference=ref,
        parts=np.concatenate(parts),
        values=np.concatenate(values),
    )
