"""Every entry point measures a family the same way.

distance, pairwise_distances, distance_field and the public distance
functions all go through MetricSpec, so on the same rows they must agree
value for value, and on a row outside the domain they must fail with the
same exception type. A row off the simplex is closed first, so 4 * GOOD
measures exactly like GOOD.
"""

import numpy as np
import pytest

from simplexknn import (
    FAMILIES,
    DegenerateInput,
    LabeledDataset,
    MetricSpec,
    SimplexKnnError,
    aitchison_distance,
    angular_distance,
    distance,
    distance_field,
    esov_alpha_distance,
    esov_distance,
    hellinger_distance,
    pairwise_distances,
    power_transform,
    taxicab_alpha_distance,
    taxicab_distance,
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


PLAIN = {
    "esov": esov_distance,
    "tc": taxicab_distance,
    "aitchison": aitchison_distance,
    "hellinger": hellinger_distance,
    "angular": angular_distance,
}
POWERED = {"esov": esov_alpha_distance, "tc": taxicab_alpha_distance}


def public_functions(spec):
    """The public distance functions that measure like spec, by name."""
    functions = {}
    if spec.alpha == 1.0:
        functions[PLAIN[spec.family].__name__] = PLAIN[spec.family]
    if spec.family in POWERED:
        fn = POWERED[spec.family]
        functions[fn.__name__] = lambda x, w: fn(x, w, spec.alpha)
    return functions


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
    public = public_functions(spec)
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
        for fn in public.values():
            np.testing.assert_array_equal(field.values, fn(field.parts, ref))
    for name, bad in BAD_ROWS.items():
        outcomes = {
            "distance": outcome(lambda: distance(spec, bad, GOOD)),
            "pairwise_distances": outcome(
                lambda: pairwise_distances(one_row, bad, spec)
            ),
            "distance_field": outcome(lambda: distance_field(spec, bad, 9)),
        }
        outcomes.update(
            (fn_name, outcome(lambda: fn(bad, GOOD))) for fn_name, fn in public.items()
        )
        assert len(set(outcomes.values())) == 1, (name, outcomes)
        if name != "zero" or spec.needs_positive:
            assert outcomes["distance"] is not None, name
        if name == "all-zero":
            assert outcomes["distance"] is DegenerateInput, outcomes


def message(call):
    """(exception type, message) that call raises, or None when it succeeds."""
    try:
        call()
    except SimplexKnnError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("alpha", [-0.5, 0.5, 2.0])
@pytest.mark.parametrize("family", POWER_FAMILIES)
def test_prepare_is_the_power_transform(family, alpha):
    # a power family prepares through the one validate-and-power routine
    spec = MetricSpec(family, alpha)
    rows = np.random.default_rng(12).dirichlet(np.ones(4), size=20)
    rows[3] *= 7.0  # off the simplex
    prepared = spec.prepare(rows)
    assert prepared.tobytes() == power_transform(rows, alpha).tobytes()
    rows[5, 2] = 0.0
    got = message(lambda: spec.prepare(rows))
    assert got == message(lambda: power_transform(rows, alpha))
    if alpha < 0:
        assert got[1] == f"composition row 5, part 2 is zero under alpha={alpha:g}"
    else:
        assert spec.prepare(rows).tobytes() == power_transform(rows, alpha).tobytes()
