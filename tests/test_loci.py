import math

import numpy as np
import pytest

from simplexknn import (
    FAMILIES,
    DegenerateInput,
    DimensionMismatch,
    MetricSpec,
    NegativeComponent,
    ZeroInAitchison,
    ZeroUnderNegativePower,
    barycentre,
    distance,
    distance_field,
    ternary_embed,
)

ROOT3 = math.sqrt(3.0)


def lattice_index(n):
    """(i, j) -> flat row-major position for the full lattice."""
    pos = {}
    flat = 0
    for i in range(n + 1):
        for j in range(n + 1 - i):
            pos[(i, j)] = flat
            flat += 1
    return pos


class TestTernaryEmbed:
    def test_vertices(self):
        assert tuple(ternary_embed([1, 0, 0])) == (0.0, 0.0)
        assert tuple(ternary_embed([0, 1, 0])) == (1.0, 0.0)
        assert tuple(ternary_embed([0, 0, 1])) == (0.5, ROOT3 / 2)

    def test_centroid(self):
        x, y = ternary_embed([1 / 3, 1 / 3, 1 / 3])
        assert abs(x - 0.5) < 1e-15
        assert abs(y - ROOT3 / 6) < 1e-15

    def test_needs_three_parts(self):
        with pytest.raises(DimensionMismatch):
            ternary_embed([0.5, 0.5])

    def test_broadcast_matches_per_row_formula(self):
        rows = np.random.default_rng(5).dirichlet(np.ones(3), size=(4, 25))
        xy = ternary_embed(rows)
        assert xy.shape == (4, 25, 2)
        expected = [
            [[c2 + 0.5 * c3, (ROOT3 / 2) * c3] for _, c2, c3 in block]
            for block in rows.tolist()
        ]
        assert xy.tolist() == expected

    def test_injective_on_random_pairs(self):
        rng = np.random.default_rng(3)
        pts = rng.dirichlet(np.ones(3), size=50)
        seen = {tuple(xy) for xy in ternary_embed(pts).tolist()}
        assert len(seen) == 50


class TestDistanceField:
    def test_zero_at_barycentre_lattice_point(self):
        n = 12  # divisible by 3, so the barycentre is a lattice point
        field = distance_field(MetricSpec("esov"), barycentre(3), n)
        flat = lattice_index(n)[(n // 3, n // 3)]
        assert field.values[flat] == 0.0

    def test_row_major_ordering_and_count(self):
        n = 7
        field = distance_field(MetricSpec("tc"), barycentre(3), n)
        assert len(field.parts) == (n + 1) * (n + 2) // 2
        first = tuple(field.parts[0])
        assert first == (0.0, 0.0, 1.0)  # i=0, j=0 comes first
        last = tuple(field.parts[-1])
        assert last == (1.0, 0.0, 0.0)
        by_loop = [[i / n, j / n, (n - i - j) / n] for i, j in lattice_index(n)]
        assert field.parts.tolist() == by_loop

    @pytest.mark.parametrize(
        "spec",
        [MetricSpec("esov", 0.5), MetricSpec("tc", -0.5), MetricSpec("aitchison"),
         MetricSpec("hellinger")],
        ids=str,
    )
    def test_permutation_symmetry_about_barycentre(self, spec):
        n = 15
        field = distance_field(spec, barycentre(3), n)
        by_parts = {
            tuple(round(p * n) for p in parts): v
            for parts, v in zip(field.parts.tolist(), field.values)
        }
        for (i, j, l), value in by_parts.items():
            for perm in ((i, l, j), (j, i, l), (j, l, i), (l, i, j), (l, j, i)):
                assert abs(by_parts[perm] - value) <= 1e-12

    def test_boundary_skipped_for_positive_only_metrics(self):
        n = 10
        full = (n + 1) * (n + 2) // 2
        boundary = 3 * n  # points with at least one zero part
        for spec in (MetricSpec("aitchison"), MetricSpec("esov", -0.5)):
            field = distance_field(spec, barycentre(3), n)
            assert len(field.parts) == full - boundary
            assert all(min(p) > 0 for p in field.parts)

    def test_minimum_at_lattice_point_nearest_barycentre(self):
        n = 14  # not divisible by 3: nearest lattice point is off-centre
        for spec in (MetricSpec("esov"), MetricSpec("tc"), MetricSpec("hellinger")):
            field = distance_field(spec, barycentre(3), n)
            coords = field.parts
            nearest = np.argmin(((coords - 1 / 3) ** 2).sum(axis=1))
            assert field.values[nearest] <= field.values.min() + 1e-12

    def test_angular_field_is_constant_from_barycentre(self):
        # dot(x, barycentre) = 1/3 for every composition, a neat degeneracy
        field = distance_field(MetricSpec("angular"), barycentre(3), 9)
        np.testing.assert_allclose(field.values, math.acos(1 / 3), atol=1e-12)

    def test_reference_outside_domain_raises(self):
        with pytest.raises(ZeroInAitchison):
            distance_field(MetricSpec("aitchison"), [0.5, 0.5, 0.0], 5)
        with pytest.raises(ZeroUnderNegativePower):
            distance_field(MetricSpec("esov", -1.0), [0.5, 0.5, 0.0], 5)
        with pytest.raises(NegativeComponent):
            distance_field(MetricSpec("esov"), [-0.1, 0.6, 0.5], 3)
        with pytest.raises(DegenerateInput):
            distance_field(MetricSpec("tc"), [np.nan, 0.5, 0.5], 3)

    def test_resolution_follows_the_count_rule(self):
        # a fractional n used to build lattice parts below zero
        spec = MetricSpec("esov")
        with pytest.raises(ValueError, match="^n must be a positive integer, got 2.5$"):
            distance_field(spec, barycentre(3), 2.5)
        for bad in (0, True, np.nan):
            with pytest.raises(ValueError, match="^n must be a positive integer"):
                distance_field(spec, barycentre(3), bad)
        with pytest.raises(ValueError, match="^grid resolution n must be at least 2$"):
            distance_field(spec, barycentre(3), 1)
        field = distance_field(spec, barycentre(3), np.int64(6))
        assert type(field.n) is int
        assert field.values.tolist() == distance_field(spec, barycentre(3), 6.0).values.tolist()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_each_value_is_the_distance_of_its_point(self, family):
        # the field is one stacked distance call: bit for bit the per-point ones
        spec = MetricSpec(family)
        ref = [0.2, 0.3, 0.5]
        field = distance_field(spec, ref, 11)
        per_point = [distance(spec, p, ref) for p in field.parts]
        assert field.values.tolist() == per_point

    def test_values_non_negative(self):
        field = distance_field(MetricSpec("esov", 0.5), [0.2, 0.3, 0.5], 8)
        assert np.all(field.values >= 0)
