"""Point checks of every distance against frozen reference values.

The frozen constants were computed with a 50-digit term-by-term evaluation
of each formula (mpmath), converting the float64 inputs exactly; they are
trusted to well below the 1e-14 comparison tolerance used here.
"""

import numpy as np
import pytest

import parts_last
from simplexknn import (
    DegenerateInput,
    DimensionMismatch,
    MetricSpec,
    NegativeComponent,
    ZeroInAitchison,
    ZeroUnderNegativePower,
    aitchison_distance,
    angular_distance,
    distance,
    esov_alpha_distance,
    esov_distance,
    hellinger_distance,
    power_transform,
    taxicab_alpha_distance,
    taxicab_distance,
)
from simplexknn.metrics import _part_sum

TOL = 1e-14

ESOV_VERTEX = 1.1774100225154747        # sqrt(2 ln 2)
ESOV_HALF_NINETY = 0.45110802493238067  # (0.5,0.5) vs (0.9,0.1)
ESOV_ALPHA_HALF = 0.26008489217409468   # same pair at alpha=0.5
ESOV_3PART = 0.32796566107291279        # (0.2,0.3,0.5) vs (0.4,0.4,0.2)
ESOV_ZERO_PAIR = 0.65690418530990605    # (0.5,0.5,0) vs (0.25,0.25,0.5)
HELL_HALF_NINETY = 0.32491969623290633
HELL_3PART = 0.23349381146995652
AIT_HALF_QUARTERS = 0.5659523030068885  # (0.5,0.25,0.25) vs barycentre = ln2*sqrt(2/3)
AIT_3PART = 1.1838134511582837
ANG_3PART = 1.2661036727794991


class TestEsov:
    def test_identity_is_exact_zero(self):
        x = np.array([0.2, 0.3, 0.5])
        assert esov_distance(x, x) == 0.0

    def test_opposite_vertices(self):
        assert abs(esov_distance([1, 0], [0, 1]) - ESOV_VERTEX) < TOL

    def test_frozen_pair(self):
        assert abs(esov_distance([0.5, 0.5], [0.9, 0.1]) - ESOV_HALF_NINETY) < TOL

    def test_frozen_three_part(self):
        d = esov_distance([0.2, 0.3, 0.5], [0.4, 0.4, 0.2])
        assert abs(d - ESOV_3PART) < TOL

    def test_zero_parts_contribute_zero(self):
        d = esov_distance([0.5, 0.5, 0.0], [0.25, 0.25, 0.5])
        assert abs(d - ESOV_ZERO_PAIR) < TOL

    def test_shared_zero_part_ignored(self):
        d_with = esov_distance([0.5, 0.5, 0.0], [0.25, 0.75, 0.0])
        d_without = esov_distance([0.5, 0.5], [0.25, 0.75])
        assert d_with == d_without

    def test_symmetry_is_bitwise(self):
        x, w = [0.5, 0.5, 0.0], [0.25, 0.25, 0.5]
        assert esov_distance(x, w) == esov_distance(w, x)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            esov_distance([0.5, 0.5], [0.3, 0.3, 0.4])


class TestEsovAlpha:
    def test_alpha_one_reduces_to_esov(self):
        x, w = [0.5, 0.5], [0.9, 0.1]
        assert abs(esov_alpha_distance(x, w, 1.0) - esov_distance(x, w)) < 1e-12

    def test_alpha_zero_collapses_positive_pairs(self):
        assert esov_alpha_distance([0.5, 0.5], [0.9, 0.1], 0.0) == 0.0

    def test_frozen_alpha_half(self):
        d = esov_alpha_distance([0.5, 0.5], [0.9, 0.1], 0.5)
        assert abs(d - ESOV_ALPHA_HALF) < TOL

    def test_negative_alpha_rejects_zeros(self):
        with pytest.raises(ZeroUnderNegativePower):
            esov_alpha_distance([0.5, 0.5, 0.0], [0.25, 0.25, 0.5], -0.5)


class TestTaxicab:
    def test_identity(self):
        assert taxicab_distance([0.2, 0.8], [0.2, 0.8]) == 0.0

    def test_disjoint_vertices_maximal(self):
        assert taxicab_distance([1, 0, 0], [0, 1, 0]) == 2.0

    def test_hand_sum(self):
        assert abs(taxicab_distance([0.5, 0.5, 0], [0.25, 0.25, 0.5]) - 1.0) < TOL

    def test_three_part(self):
        assert abs(taxicab_distance([0.2, 0.3, 0.5], [0.4, 0.4, 0.2]) - 0.6) < TOL

    def test_alpha_two_frozen(self):
        d = taxicab_alpha_distance([0.2, 0.8], [0.8, 0.2], 2.0)
        assert abs(d - 30 / 17) < TOL

    def test_alpha_one_reduces(self):
        x, w = [0.2, 0.3, 0.5], [0.4, 0.4, 0.2]
        assert abs(taxicab_alpha_distance(x, w, 1.0) - taxicab_distance(x, w)) < 1e-12

    def test_alpha_zero_collapses(self):
        assert taxicab_alpha_distance([0.2, 0.8], [0.8, 0.2], 0.0) == 0.0


class TestAitchison:
    def test_identity(self):
        x = np.array([0.5, 0.25, 0.25])
        assert aitchison_distance(x, x) == 0.0

    def test_frozen_against_barycentre(self):
        d = aitchison_distance([0.5, 0.25, 0.25], [1 / 3, 1 / 3, 1 / 3])
        assert abs(d - AIT_HALF_QUARTERS) < TOL

    def test_frozen_three_part(self):
        d = aitchison_distance([0.2, 0.3, 0.5], [0.4, 0.4, 0.2])
        assert abs(d - AIT_3PART) < TOL

    def test_zero_part_degenerate(self):
        with pytest.raises(ZeroInAitchison):
            aitchison_distance([0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3])

    def test_zero_in_second_argument_too(self):
        with pytest.raises(ZeroInAitchison):
            aitchison_distance([1 / 3, 1 / 3, 1 / 3], [0.5, 0.5, 0.0])


class TestHellinger:
    def test_identity(self):
        assert hellinger_distance([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_disjoint_support_is_one(self):
        assert hellinger_distance([1, 0], [0, 1]) == 1.0

    def test_frozen_pair(self):
        d = hellinger_distance([0.5, 0.5], [0.9, 0.1])
        assert abs(d - HELL_HALF_NINETY) < TOL

    def test_frozen_three_part(self):
        d = hellinger_distance([0.2, 0.3, 0.5], [0.4, 0.4, 0.2])
        assert abs(d - HELL_3PART) < TOL


class TestAngular:
    def test_orthogonal_vertices(self):
        assert abs(angular_distance([1, 0, 0], [0, 1, 0]) - np.pi / 2) < TOL

    def test_same_vertex_is_zero(self):
        assert angular_distance([1, 0], [1, 0]) == 0.0

    def test_identity_fails_away_from_vertices(self):
        # the formula applies arccos to the raw dot product, so d(x, x) > 0
        # inside the simplex; this is intentional (see the docstring)
        d = angular_distance([0.5, 0.5], [0.5, 0.5])
        assert abs(d - 1.0471975511965976) < TOL

    def test_frozen_three_part(self):
        d = angular_distance([0.2, 0.3, 0.5], [0.4, 0.4, 0.2])
        assert abs(d - ANG_3PART) < TOL

    def test_roundoff_above_one_is_clamped(self):
        assert angular_distance([1.0, 0.0], [1.0 + 1e-16, 0.0]) >= 0.0


PLAIN_KERNELS = [
    esov_distance,
    taxicab_distance,
    aitchison_distance,
    hellinger_distance,
    angular_distance,
]


@pytest.mark.parametrize("kernel", PLAIN_KERNELS, ids=lambda f: f.__name__)
class TestInvalidInput:
    def test_negative_part_rejected(self, kernel):
        with pytest.raises(NegativeComponent):
            kernel([-0.1, 1.1], [0.5, 0.5])
        with pytest.raises(NegativeComponent):
            kernel([0.5, 0.5], [-0.1, 1.1])

    def test_non_finite_part_rejected(self, kernel):
        for bad in ([np.nan, 0.5], [np.inf, 0.0]):
            with pytest.raises(DegenerateInput):
                kernel(bad, [0.5, 0.5])
            with pytest.raises(DegenerateInput):
                kernel([0.5, 0.5], bad)


class TestMetricSpec:
    def test_alpha_fixed_for_non_power_families(self):
        with pytest.raises(ValueError):
            MetricSpec("aitchison", 0.5)
        assert MetricSpec("hellinger").alpha == 1.0

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            MetricSpec("euclid")


@pytest.mark.parametrize(
    "alpha, message",
    [
        (True, "alpha must be a number, got True"),
        (np.False_, "alpha must be a number, got np.False_"),
        ("half", "alpha must be a number, got 'half'"),
        (None, "alpha must be a number, got None"),
        (float("inf"), "alpha must be finite"),
        (np.nan, "alpha must be finite"),
        ("-inf", "alpha must be finite"),
    ],
    ids=["bool", "numpy-bool", "text", "none", "inf", "nan", "text-inf"],
)
def test_spec_and_power_transform_share_one_alpha_rule(alpha, message):
    for call in (
        lambda: MetricSpec("esov", alpha),
        lambda: power_transform([0.2, 0.8], alpha),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_alpha_is_taken_as_a_float_by_spec_and_power_transform():
    assert MetricSpec("tc", "0.5") == MetricSpec("tc", 0.5)
    x = [0.2, 0.8]
    for alpha, number in (("0.5", 0.5), (np.float32(-1), -1.0)):
        got, want = power_transform(x, alpha), power_transform(x, number)
        assert got.tobytes() == want.tobytes()


class TestDispatcher:
    def test_esov_identity(self):
        x = np.array([0.2, 0.8])
        assert distance(MetricSpec("esov", 1.0), x, x) == 0.0

    def test_tc_vertices(self):
        assert distance(MetricSpec("tc", 1.0), [1, 0, 0], [0, 0, 1]) == 2.0

    def test_aitchison_zero_raises(self):
        with pytest.raises(ZeroInAitchison):
            distance(MetricSpec("aitchison"), [0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3])

    def test_alpha_routes_through_power_transform(self):
        x, w = [0.5, 0.5], [0.9, 0.1]
        d = distance(MetricSpec("esov", 0.5), x, w)
        assert d == esov_alpha_distance(x, w, 0.5)

    @pytest.mark.parametrize("family", ["esov", "tc", "aitchison", "hellinger", "angular"])
    def test_broadcasting_matches_scalar_calls(self, family):
        rng = np.random.default_rng(42)
        x = rng.dirichlet(np.ones(4), size=5) * 0.98 + 0.005
        w = rng.dirichlet(np.ones(4), size=5) * 0.98 + 0.005
        spec = MetricSpec(family, 0.5 if family in ("esov", "tc") else 1.0)
        batch = distance(spec, x, w)
        for i in range(5):
            assert batch[i] == distance(spec, x[i], w[i])


@pytest.mark.parametrize("d", [*range(2, 41), 127, 128, 129, 200, 300])
def test_part_sum_is_numpys_last_axis_sum(d):
    # _part_sum must add in np.add.reduce's order, so it is compared on the
    # bits, with signed zeros, infinities, subnormals and 16 decades of mixed
    # signs; only NaN is compared as NaN, since which NaN survives an add
    # depends on the compiled operand order (no kernel ever sums a NaN)
    rng = np.random.default_rng(d)
    t = rng.choice([-1.0, 1.0], size=(60, d)) * 10.0 ** rng.uniform(-8, 8, (60, d))
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310]
    for rows, share in ((slice(0, 20), 0.05), (slice(20, 40), 0.3), (slice(40, 60), 0.9)):
        picks = rng.random(t[rows].shape) < share
        t[rows][picks] = rng.choice(special, size=picks.sum())
    t[-1] = -0.0  # all negative zeros: numpy's sum is 0.0
    t[-2] = rng.choice([0.0, -0.0], size=d)
    with np.errstate(invalid="ignore"):
        want = np.add.reduce(t, axis=-1)
        got = _part_sum(np.ascontiguousarray(t.T))
        one = np.array([_part_sum(row.copy()) for row in t])
    for result in (got, one):
        assert np.array_equal(np.isnan(result), np.isnan(want))
        same = want.view(np.int64) == result.view(np.int64)
        assert (same | np.isnan(want)).all()


ALL_SPECS = [MetricSpec(f, a) for f in ("esov", "tc") for a in (-0.5, 0.0, 0.5, 1.0)] + [
    MetricSpec(f) for f in ("aitchison", "hellinger", "angular")
]


def oracle_rows(rng, n, d, positive):
    """Rows with zero parts, duplicates, and subnormal parts next to large ones.

    Without zeros (positive), tiny normal parts take their place: a
    negative power divides by the row minimum, which a subnormal overflows.
    """
    rows = rng.dirichlet(np.full(d, 0.5), size=n)
    small = rng.random((n, d)) < 0.3
    small[np.arange(n), rng.integers(0, d, n)] = False  # no row all zero
    fill = [3e-308, 1e-300, 1e-30] if positive else [0.0, 0.0, 5e-324, 1e-310]
    rows[small] = rng.choice(fill, size=small.sum())
    return np.vstack([rows, rows[::5]])  # duplicate rows


@pytest.mark.parametrize("d", [2, 3, 8, 9, 17, 130])
@pytest.mark.parametrize("spec", ALL_SPECS, ids=repr)
def test_kernels_equal_the_parts_last_formulas(spec, d):
    rng = np.random.default_rng(d)
    raw = oracle_rows(rng, 40, d, spec.needs_positive)
    want = parts_last.matrix(spec, raw, raw).view(np.int64)
    x = spec.prepare(raw)
    if spec == MetricSpec("esov") and d > 2:
        # the quotient clamp changes some nonzero terms here
        with np.errstate(divide="ignore", invalid="ignore"):
            q = 2.0 * x[:, None] / (x[:, None] + x[None])
        assert ((x[:, None] > 0) & (q < np.finfo(float).tiny)).any()
    xt = np.ascontiguousarray(x.T)
    tile = spec.kernel(xt[:, :, None], xt[:, None, :])
    assert np.array_equal(tile.view(np.int64), want)
    # knn._walk's layout: the rows broadcast once into a (D, rows, width)
    # buffer, sliced to each tile's columns, against a (D, 1, columns) view
    for width in (len(x), len(x) + 3):
        block = np.empty((d, len(x), width))
        block[...] = xt[:, :, None]
        tile = spec.kernel(block[:, :, : len(x)], xt[:, None, :])
        assert np.array_equal(tile.view(np.int64), want)
    stacked = distance(spec, raw[:, None], raw[None])
    assert np.array_equal(stacked.view(np.int64), want)
    for i, j in ((0, 1), (3, 3), (5, 40), (len(raw) - 1, 2)):
        one = distance(spec, raw[i], raw[j])
        assert type(one) is np.float64
        assert one.view(np.int64) == want[i, j]


@pytest.mark.parametrize("d", [2, 8, 130])
def test_prepare_applies_the_per_row_transforms(d):
    # hellinger and aitchison rows come out of prepare as square roots and
    # clr images, so their kernels are plain L2; one row or a stack, the
    # parts stay on the last axis
    rng = np.random.default_rng(d)
    raw = oracle_rows(rng, 20, d, positive=True)
    closed = parts_last.closed(MetricSpec("aitchison"), raw)
    logs = np.log(closed)
    clr = logs - logs.mean(axis=-1, keepdims=True)
    for family, want in (("hellinger", np.sqrt(closed)), ("aitchison", clr)):
        spec = MetricSpec(family)
        got = spec.prepare(raw)
        assert got.shape == raw.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        one = spec.prepare(raw[3])
        assert np.array_equal(one.view(np.int64), want[3].view(np.int64))
