"""Controlled-X gate: coupling structure and output moments."""

import math

import numpy as np
import pytest

from cvcluster import Axis, CxParams, controlled_x_gate, cx_output_moments

SQRT2 = math.sqrt(2.0)
SQRT52 = math.sqrt(2.5)


@pytest.fixture(scope="module")
def unit_result():
    return controlled_x_gate(CxParams(s_c=1.0, s_t=2.0), 1.0)


class TestStructure:
    def test_target_amplitude(self, unit_result):
        expr = unit_result.modes["target"].x
        assert expr.coefficient("t", Axis.X) == pytest.approx(1.0, abs=1e-12)
        assert expr.coefficient("c", Axis.X) == pytest.approx(-1.0, abs=1e-12)
        assert expr.coefficient("a2", Axis.X) == pytest.approx(SQRT52, abs=1e-12)
        assert expr.coefficient("a4", Axis.Y) == pytest.approx(-1.0 / SQRT2, abs=1e-12)
        assert len(expr.terms) == 4

    def test_target_phase(self, unit_result):
        expr = unit_result.modes["target"].y
        assert expr.coefficient("t", Axis.Y) == pytest.approx(1.0, abs=1e-12)
        assert expr.coefficient("a1", Axis.Y) == pytest.approx(SQRT2, abs=1e-12)
        assert len(expr.terms) == 2
        # phase of the target never sees the control
        assert abs(expr.coefficient("c", Axis.Y)) < 1e-12

    def test_control_amplitude(self, unit_result):
        expr = unit_result.modes["control"].x
        assert expr.coefficient("c", Axis.X) == pytest.approx(1.0, abs=1e-12)
        assert expr.coefficient("a4", Axis.Y) == pytest.approx(SQRT2, abs=1e-12)
        assert len(expr.terms) == 2
        # control amplitude passes through untouched by the target
        assert abs(expr.coefficient("t", Axis.X)) < 1e-12

    def test_control_phase(self, unit_result):
        expr = unit_result.modes["control"].y
        assert expr.coefficient("c", Axis.Y) == pytest.approx(1.0, abs=1e-12)
        assert expr.coefficient("t", Axis.Y) == pytest.approx(1.0, abs=1e-12)
        assert expr.coefficient("a3", Axis.X) == pytest.approx(-SQRT52, abs=1e-12)
        assert expr.coefficient("a1", Axis.Y) == pytest.approx(1.0 / SQRT2, abs=1e-12)
        assert len(expr.terms) == 4


class TestMoments:
    def test_means_exact(self):
        params = CxParams(s_c=0.7, s_t=-0.2)
        result = controlled_x_gate(params, 1.3)
        target = result.stats["target"]
        control = result.stats["control"]
        assert target.mean_x == pytest.approx(-0.2 - 0.7, abs=1e-12)
        assert target.mean_y == pytest.approx(0.0, abs=1e-12)
        assert control.mean_x == pytest.approx(0.7, abs=1e-12)
        assert control.mean_y == pytest.approx(0.0, abs=1e-12)

    def test_unit_point_target_mean(self, unit_result):
        # control 1 shifts the target amplitude from 2 down to 1
        assert unit_result.stats["target"].mean_x == pytest.approx(1.0, abs=1e-12)

    def test_closed_forms_match_expressions(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            r = rng.uniform(0.0, 2.5)
            params = CxParams(
                s_c=rng.uniform(-2, 2),
                s_t=rng.uniform(-2, 2),
                var_cx=rng.uniform(0.2, 3.0),
                var_cy=rng.uniform(0.2, 3.0),
                var_tx=rng.uniform(0.2, 3.0),
                var_ty=rng.uniform(0.2, 3.0),
            )
            result = controlled_x_gate(params, r)
            closed = cx_output_moments(params, r)
            for name in ("target", "control"):
                got = result.stats[name]
                want = closed[name]
                for field in ("mean_x", "mean_y", "var_x", "var_y"):
                    assert getattr(got, field) == pytest.approx(
                        getattr(want, field), abs=1e-9
                    ), (name, field)

    @pytest.mark.parametrize("r", [0.0, 1.0, 50.0])
    def test_outputs_uncorrelated(self, r):
        params = CxParams(s_c=0.7, s_t=-0.2, var_cx=1.4, var_cy=0.5, var_tx=2.0, var_ty=0.9)
        result = controlled_x_gate(params, r)
        closed = cx_output_moments(params, r)
        for name in ("target", "control"):
            assert result.stats[name].cov_xy == 0.0, name
            assert closed[name].cov_xy == 0.0, name

    def test_excess_noise_scaling(self):
        # coherent inputs: target picks up 3e^{-2r} in x and 2e^{-2r} in y
        params = CxParams(s_c=0.0, s_t=0.0)
        for r in (0.0, 0.5, 1.0):
            e = math.exp(-2.0 * r)
            moments = cx_output_moments(params, r)
            assert moments["target"].var_x == pytest.approx(3.0 * e + 2.0, rel=1e-12)
            assert moments["target"].var_y == pytest.approx(2.0 * e + 1.0, rel=1e-12)
            assert moments["control"].var_x == pytest.approx(2.0 * e + 1.0, rel=1e-12)
            assert moments["control"].var_y == pytest.approx(3.0 * e + 2.0, rel=1e-12)

    def test_high_squeezing_limit(self):
        # cluster noise dies off, only the coupled input variances remain
        params = CxParams(s_c=0.0, s_t=0.0, var_cx=1.4, var_tx=0.6, var_ty=0.9)
        moments = cx_output_moments(params, 20.0)
        assert moments["target"].var_x == pytest.approx(1.4 + 0.6, abs=1e-9)
        assert moments["control"].var_x == pytest.approx(1.4, abs=1e-9)
        assert moments["target"].var_y == pytest.approx(0.9, abs=1e-9)


class TestValidation:
    def test_nonpositive_variance(self):
        with pytest.raises(ValueError):
            CxParams(s_c=0.0, s_t=0.0, var_cx=0.0)

    def test_non_finite_mean(self):
        with pytest.raises(ValueError):
            CxParams(s_c=math.nan, s_t=0.0)

    def test_negative_r(self):
        with pytest.raises(ValueError):
            controlled_x_gate(CxParams(s_c=0.0, s_t=0.0), -1.0)
