"""Every entry point measures a family the same way.

distance, pairwise_distances and distance_field all go through MetricSpec,
so on the same rows they must agree value for value, and on a row outside
the domain they must fail with the same exception type. A row off the
simplex is closed first, so 4 * GOOD measures exactly like GOOD.
"""

import numpy as np
import pytest

from simplexknn import (
    FAMILIES,
    DegenerateInput,
    LabeledDataset,
    MetricSpec,
    SimplexKnnError,
    distance,
    distance_field,
    pairwise_distances,
)
from simplexknn.metrics import POWER_FAMILIES

SPECS = [
    MetricSpec(family, alpha)
    for family in FAMILIES
    for alpha in ((-0.5, 0.0, 0.5, 1.0) if family in POWER_FAMILIES else (1.0,))
]
GOOD = np.array([0.2, 0.3, 0.5])
BAD_ROWS = {
    "zero": [0.5, 0.5, 0.0],
    "negative": [-0.1, 0.6, 0.5],
    "nan": [np.nan, 0.5, 0.5],
    "all-zero": [0.0, 0.0, 0.0],
}


def outcome(call):
    """The exception type call raises, or None when it succeeds."""
    try:
        call()
    except SimplexKnnError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_entry_points_agree(spec):
    field = distance_field(spec, GOOD, 9)
    one_row = LabeledDataset(GOOD[None, :], [0], ("a",))
    for ref in (GOOD, 4 * GOOD):
        train = LabeledDataset(ref[None, :], [0], ("a",))
        np.testing.assert_array_equal(
            field.values, distance(spec, field.parts, ref)
        )
        np.testing.assert_array_equal(
            field.values, pairwise_distances(train, field.parts, spec)[:, 0]
        )
        np.testing.assert_array_equal(
            field.values, distance_field(spec, ref, 9).values
        )
    for name, bad in BAD_ROWS.items():
        outcomes = {
            "distance": outcome(lambda: distance(spec, bad, GOOD)),
            "pairwise_distances": outcome(
                lambda: pairwise_distances(one_row, bad, spec)
            ),
            "distance_field": outcome(lambda: distance_field(spec, bad, 9)),
        }
        assert len(set(outcomes.values())) == 1, (name, outcomes)
        if name != "zero" or spec.needs_positive:
            assert outcomes["distance"] is not None, name
        if name == "all-zero":
            assert outcomes["distance"] is DegenerateInput, outcomes
