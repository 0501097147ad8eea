"""Layout helpers over bench/reference.py's kernels, the tests' distance oracle.

metrics computes every family parts-first, summing with _part_sum in numpy's
pairwise order. reference.KERNELS are the same formulas written the direct
way, with the parts on the last axis and numpy's own sums and means: a
kernel must equal them bit for bit. Rows are closed, and power-transformed
for esov and tc (closed below): the formulas include hellinger's square
roots and aitchison's centred log-ratios, which MetricSpec.prepare applies
per row before its kernels take plain L2.
"""

import numpy as np

from reference import KERNELS
from simplexknn.simplex import as_composition


def closed(spec, rows):
    """rows as the formulas take them: prepare up to the per-row transforms."""
    if spec.family in ("esov", "tc"):
        return spec.prepare(rows)
    return as_composition(rows)


def parts_first(spec, rows):
    """rows prepared by spec in the layout of knn's walk: a C-contiguous (D, n)
    array, as knn._training_rows and knn._prepared hand over."""
    return np.ascontiguousarray(spec.prepare(rows).T)


def kernel(spec, x, w):
    """spec's distance between closed rows x and w, parts on the last axis."""
    return KERNELS[spec.family](x, w)


def matrix(spec, queries, train):
    """spec's (m, n) distances between raw rows, by one unblocked call."""
    return kernel(spec, closed(spec, queries)[:, None], closed(spec, train)[None])
