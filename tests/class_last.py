"""The class-last vote in its earlier form, kept as a test oracle.

knn._vote reads neighbour-major (kmax, m) arrays and decides each k over a
class-first axis 0. This is the same rule written the earlier way: (m, kmax)
rows, a one-hot with the classes on the last axis, one prefix sum each for
the counts and the distance sums, and argmin over the classes, as it stood
before the vote went class-first. The new vote must equal it bit for bit.
"""

import numpy as np


def vote(ranked_dists, ranked_labels, ks, n_classes):
    """(winners (K, m), counts (K, m, C)) from (m, kmax) ranked neighbours."""
    onehot = ranked_labels[:, :, None] == np.arange(n_classes)
    at_k = np.asarray(ks, dtype=np.intp) - 1
    counts = np.cumsum(onehot, axis=1, dtype=np.intp)[:, at_k].swapaxes(0, 1)
    member_dists = np.where(onehot, ranked_dists[:, :, None], 0.0)
    dist_sums = np.cumsum(member_dists, axis=1)[:, at_k].swapaxes(0, 1)
    top = counts.max(axis=-1, keepdims=True)
    tiebreak = np.where(counts == top, dist_sums, np.inf)
    winners = tiebreak.argmin(axis=-1)  # argmin keeps the lower class index on ties
    return winners, counts
