import decimal

import numpy as np
import pytest

from simplexknn import (
    DegenerateInput,
    DimensionMismatch,
    MetricSpec,
    NegativeComponent,
    ZeroUnderNegativePower,
    as_composition,
    barycentre,
    closure,
    perturb,
    power_transform,
)
from simplexknn import dataset, simplex


class TestClosure:
    def test_scales_proportionally(self):
        np.testing.assert_array_equal(closure([2, 2, 4]), [0.25, 0.25, 0.5])

    def test_already_closed_is_unchanged(self):
        v = np.array([0.25, 0.25, 0.5])
        np.testing.assert_array_equal(closure(v), v)

    def test_row_wise_on_matrix(self):
        m = closure([[2, 2, 4], [1, 1, 2]])
        np.testing.assert_array_equal(m, [[0.25, 0.25, 0.5]] * 2)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInput):
            closure([0, 0, 0])

    def test_negative_rejected(self):
        with pytest.raises(NegativeComponent):
            closure([0.5, -0.1, 0.6])

    def test_non_finite_rejected(self):
        with pytest.raises(DegenerateInput):
            closure([0.5, np.nan, 0.5])

    def test_single_part_rejected(self):
        with pytest.raises(DegenerateInput):
            closure([1.0])


class TestAsComposition:
    def test_near_unit_rows_kept_bitwise(self):
        v = np.array([0.3, 0.3, 0.4 + 5e-10])
        np.testing.assert_array_equal(as_composition(v), v)

    def test_percent_rows_closed(self):
        np.testing.assert_allclose(
            as_composition([25.0, 25.0, 50.0]), [0.25, 0.25, 0.5], atol=0
        )

    def test_matrix_mixes_both_cases(self):
        m = np.array([[0.25, 0.25, 0.5], [25.0, 25.0, 50.0]])
        out = as_composition(m)
        np.testing.assert_array_equal(out[0], m[0])
        np.testing.assert_allclose(out[1], [0.25, 0.25, 0.5], atol=0)


class TestPowerTransform:
    def test_identity_at_alpha_one(self):
        np.testing.assert_allclose(
            power_transform([0.2, 0.8], 1.0), [0.2, 0.8], atol=1e-15
        )

    def test_alpha_zero_moves_to_centre(self):
        np.testing.assert_array_equal(power_transform([0.2, 0.8], 0.0), [0.5, 0.5])

    def test_alpha_zero_respects_zero_pattern(self):
        np.testing.assert_array_equal(
            power_transform([0.5, 0.5, 0.0], 0.0), [0.5, 0.5, 0.0]
        )

    def test_alpha_two_frozen_value(self):
        # (0.2^2, 0.8^2) / 0.68 = (1/17, 16/17)
        np.testing.assert_allclose(
            power_transform([0.2, 0.8], 2.0), [1 / 17, 16 / 17], atol=1e-15
        )

    def test_negative_alpha_rejects_zero_parts(self):
        with pytest.raises(ZeroUnderNegativePower):
            power_transform([0.5, 0.5, 0.0], -1.0)

    def test_zero_part_error_names_row_and_part(self):
        msg = "^composition row 1, part 2 is zero under alpha=-0.5$"
        with pytest.raises(ZeroUnderNegativePower, match=msg):
            power_transform([[0.2, 0.3, 0.5], [0.5, 0.5, 0.0]], -0.5)

    @pytest.mark.parametrize("alpha", [-0.25, -0.5, -3.0])
    def test_subnormal_minimum_matches_exact_arithmetic(self, alpha):
        # x / min overflows for these minima; a RuntimeWarning fails the test
        x = np.array([[5e-324, 0.5, 0.5], [1e-310, 0.2, 0.8], [3e-320, 1e-300, 1.0]])
        u = power_transform(x, alpha)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            for row, out in zip(x, u):
                y = [decimal.Decimal(float(v)) ** decimal.Decimal(alpha) for v in row]
                exact = [float(v / sum(y)) for v in y]
                for got, want in zip(out, exact):
                    if want == 0.0:  # below the smallest subnormal
                        assert got == 0.0
                    else:
                        assert want >= np.finfo(float).tiny  # keep the data normal
                        assert abs(got - want) <= 1e-12 * want

    def test_extreme_alpha_underflows_positive_part_to_zero(self):
        # documented: (1e-12 / 0.5) ** 1e6 is below the smallest double
        u = power_transform([0.5, 0.5 - 1e-12, 1e-12], 1e6)
        assert u[2] == 0.0
        np.testing.assert_allclose(u[:2], [0.5000005, 0.4999995], rtol=1e-9)

    def test_negative_alpha_matches_reciprocal_closure(self):
        x = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(
            power_transform(x, -1.0), closure(1.0 / x), atol=1e-15
        )

    @pytest.mark.parametrize("alpha", [-40.0, -2.0, -0.5, 0.25, 1.0, 3.0, 40.0])
    def test_output_sums_to_one(self, alpha):
        rng = np.random.default_rng(7)
        x = rng.dirichlet(np.ones(6), size=50) * 0.99 + 0.01 / 6
        u = power_transform(x, alpha)
        assert np.all(u >= 0)
        np.testing.assert_allclose(u.sum(axis=1), 1.0, atol=1e-12)

    def test_permutation_equivariance(self):
        # reordering changes the summation order, so equality holds to
        # roundoff, not bitwise
        rng = np.random.default_rng(8)
        x = rng.dirichlet(np.ones(5))
        perm = rng.permutation(5)
        for alpha in (-1.0, 0.0, 0.5, 2.0):
            np.testing.assert_allclose(
                power_transform(x[perm], alpha),
                power_transform(x, alpha)[perm],
                atol=1e-12,
                rtol=0,
            )

    def test_positive_alpha_preserves_zero_pattern(self):
        x = np.array([0.0, 0.4, 0.0, 0.6])
        for alpha in (0.5, 1.0, 2.0):
            u = power_transform(x, alpha)
            np.testing.assert_array_equal(u == 0, x == 0)

    def test_matrix_rows(self):
        m = np.array([[0.2, 0.8], [0.8, 0.2]])
        u = power_transform(m, 2.0)
        np.testing.assert_allclose(u, [[1 / 17, 16 / 17], [16 / 17, 1 / 17]], atol=1e-15)


class TestPerturb:
    def test_unit_perturbation_is_identity(self):
        x = np.array([0.25, 0.25, 0.5])
        np.testing.assert_array_equal(perturb(x, [1.0, 1.0, 1.0]), x)

    def test_barycentre_perturbed_gives_closed_p(self):
        out = perturb([1 / 3, 1 / 3, 1 / 3], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(out, [1 / 6, 2 / 6, 3 / 6], atol=1e-15)

    def test_non_positive_perturbation_rejected(self):
        with pytest.raises(NegativeComponent):
            perturb([0.5, 0.5], [1.0, 0.0])
        with pytest.raises(NegativeComponent):
            perturb([0.5, 0.5], [1.0, -2.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            perturb([0.5, 0.5], [1.0, 1.0, 1.0])


def test_barycentre():
    np.testing.assert_array_equal(barycentre(4), [0.25] * 4)
    with pytest.raises(DegenerateInput):
        barycentre(1)


def test_each_input_is_checked_once(monkeypatch, tmp_path):
    calls = []

    def counting(rows):
        calls.append(rows.shape)
        return real(rows)

    real = simplex._domain_fault
    monkeypatch.setattr(simplex, "_domain_fault", counting)
    monkeypatch.setattr(dataset, "_domain_fault", counting)
    rows = np.array([[2.0, 1.0, 1.0], [0.2, 0.3, 0.5]])  # one row off the simplex
    for spec in (MetricSpec("tc"), MetricSpec("esov", 0.5)):
        calls.clear()
        spec.prepare(rows)
        assert calls == [(2, 3)]
    path = tmp_path / "data.csv"
    path.write_text("a,b,c,class\n2,1,1,x\n0.2,0.3,0.5,y\n")
    calls.clear()
    dataset._read_csv(path, "class", ())
    assert calls == [(2, 3)]
