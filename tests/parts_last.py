"""The five distance kernels in their plain parts-last form, kept as a test oracle.

metrics computes every family parts-first, summing with _part_sum in numpy's
pairwise order. These are the same formulas written the direct way, with the
parts on the last axis and numpy's own sums and means, as they stood before
the kernels went parts-first: a kernel must equal them bit for bit. Rows are
closed, and power-transformed for esov and tc (closed below): the formulas
include hellinger's square roots and aitchison's centred log-ratios, which
MetricSpec.prepare applies per row before its kernels take plain L2.
"""

import numpy as np

from simplexknn.simplex import as_composition


def esov(x, w):
    s = x + w
    with np.errstate(divide="ignore", invalid="ignore"):
        tx = np.where(x > 0, x * np.log(2.0 * x / s), 0.0)
        tw = np.where(w > 0, w * np.log(2.0 * w / s), 0.0)
    js = (tx + tw).sum(axis=-1)
    return np.sqrt(np.maximum(js, 0.0))


def taxicab(x, w):
    return np.abs(x - w).sum(axis=-1)


def aitchison(x, w):
    lx = np.log(x)
    lw = np.log(w)
    cx = lx - lx.mean(axis=-1, keepdims=True)
    cw = lw - lw.mean(axis=-1, keepdims=True)
    return np.sqrt(((cx - cw) ** 2).sum(axis=-1))


def hellinger(x, w):
    return np.sqrt(0.5 * ((np.sqrt(x) - np.sqrt(w)) ** 2).sum(axis=-1))


def angular(x, w):
    return np.arccos(np.clip((x * w).sum(axis=-1), -1.0, 1.0))


KERNELS = {
    "esov": esov,
    "tc": taxicab,
    "aitchison": aitchison,
    "hellinger": hellinger,
    "angular": angular,
}


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
