"""Squeezing gate: feedforward structure, rotated variance, optimal angle."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from cvcluster import (
    Axis,
    SqueezerParams,
    optimal_detection_angle,
    rotate_quadrature,
    rotated_output_variance,
    rotated_output_variances,
    squeezer_gate,
    squeezing_threshold,
)

SQRT52 = math.sqrt(2.5)
S2 = 1.0 / math.sqrt(2.0)

#: tan(theta) of both signs, log-spaced over [1e-6, 1e8].
TAN_GRID = [sign * 10.0 ** e for e in np.linspace(-6.0, 8.0, 29) for sign in (1.0, -1.0)]
#: The same spacing over [1e-12, 1e8], down to the smallest tan(theta) accepted.
WIDE_TAN_GRID = [sign * 10.0 ** e for e in np.linspace(-12.0, 8.0, 41) for sign in (1.0, -1.0)]


def bisected_threshold(theta):
    """Reference: bisect ``3 e^{-2r} + noise_floor`` against 1 on [0, 30] to 1e-9."""
    _, floor = optimal_detection_angle(theta)

    def below(r):
        return 3.0 * math.exp(-2.0 * r) + floor < 1.0

    lo, hi = 0.0, 30.0
    assert below(hi)
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if below(mid) else (mid, hi)
    return 0.5 * (lo + hi)


class TestOutputStructure:
    def test_coefficients_at_tan_two(self):
        params = SqueezerParams.from_tan(2.0)
        out = squeezer_gate(params, 1.0).modes["out"]
        assert out.x.coefficient("a2", Axis.X) == pytest.approx(SQRT52, abs=1e-12)
        assert out.x.coefficient("a4", Axis.Y) == pytest.approx(S2, abs=1e-12)
        assert out.x.coefficient("in", Axis.X) == pytest.approx(1.0, abs=1e-12)
        assert out.x.coefficient("in", Axis.Y) == pytest.approx(4.0, abs=1e-12)
        assert len(out.x.terms) == 4
        assert out.y.coefficient("a3", Axis.X) == pytest.approx(-SQRT52, abs=1e-12)
        assert out.y.coefficient("a1", Axis.Y) == pytest.approx(-S2, abs=1e-12)
        assert out.y.coefficient("in", Axis.Y) == pytest.approx(1.0, abs=1e-12)
        assert len(out.y.terms) == 3

    @pytest.mark.parametrize("tan_theta", [-3.0, -1.0, 0.0, 0.5, 2.0, 5.0])
    def test_cross_coefficient_tracks_angle(self, tan_theta):
        params = SqueezerParams.from_tan(tan_theta)
        result = squeezer_gate(params, 0.5)
        assert result.meta["cross_coefficient"] == pytest.approx(
            2.0 * tan_theta, abs=1e-12
        )
        assert result.meta["squeeze_parameter"] == pytest.approx(
            -tan_theta, abs=1e-12
        )
        assert result.meta["rescale"] == pytest.approx(
            math.cos(math.atan(tan_theta)), abs=1e-12
        )
        # the cross-coupling shears the output: cov(x, y) = 2 tan(theta) var_y
        assert result.stats["out"].cov_xy == pytest.approx(2.0 * tan_theta, abs=1e-12)

    def test_phase_side_untouched_by_angle(self):
        for t in (0.0, 1.0, 4.0):
            out = squeezer_gate(SqueezerParams.from_tan(t), 1.0).modes["out"]
            assert abs(out.y.coefficient("in", Axis.X)) < 1e-12


class TestRotatedVariance:
    def test_matches_expression_covariance(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            t = rng.uniform(-4.0, 4.0)
            r = rng.uniform(0.0, 2.5)
            vx = rng.uniform(0.2, 3.0)
            vy = rng.uniform(0.2, 3.0)
            phi = rng.uniform(0.0, math.pi)
            params = SqueezerParams.from_tan(t, var_x=vx, var_y=vy)
            closed = rotated_output_variance(params, r, phi)
            out = squeezer_gate(params, r).modes["out"]
            expr = rotate_quadrature(out, phi)
            assert closed == pytest.approx(expr.variance(r), rel=1e-10)

    @pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 2.5, 10.0, 50.0])
    @pytest.mark.parametrize("tan_theta", [-3.0, -0.5, 0.25, 2.0])
    @pytest.mark.parametrize("vx, vy", [(1.0, 1.0), (2.0, 0.5)])
    def test_matches_output_covariance(self, r, tan_theta, vx, vy):
        # the record's 2x2 covariance, rotated by phi, is the closed form
        params = SqueezerParams.from_tan(tan_theta, var_x=vx, var_y=vy)
        stats = squeezer_gate(params, r).stats["out"]
        for phi in np.linspace(0.0, math.pi, 64):
            c, s = math.cos(phi), math.sin(phi)
            got = c * c * stats.var_x + s * s * stats.var_y + 2.0 * s * c * stats.cov_xy
            want = rotated_output_variance(params, r, phi)
            assert got == pytest.approx(want, rel=1e-12), phi

    def test_flat_when_angle_zero(self):
        params = SqueezerParams(theta=0.0)
        r = 1.0
        values = [
            rotated_output_variance(params, r, phi)
            for phi in np.linspace(0.0, math.pi, 10_000)
        ]
        assert max(values) - min(values) < 1e-12
        assert values[0] == pytest.approx(3.0 * math.exp(-2.0 * r) + 1.0, abs=1e-12)


def scalar_rotated_variance(params, r, phi):
    """The closed form as one scalar expression, in the library's operation order."""
    t = params.tan_theta
    c = math.cos(phi)
    s = math.sin(phi)
    return 3.0 * math.exp(-2.0 * r) + c * c * params.var_x + (2.0 * t * c + s) ** 2 * params.var_y


#: The fig5/fig6 grid, and the squeeze --scan-phi grid at its default 2001 points.
PHI_GRIDS = {"fig5": np.linspace(0.0, math.pi, 501).tolist(),
             "scan": [i * (math.pi / 2000) for i in range(2000)] + [math.pi]}


class TestRotatedVariances:
    @pytest.mark.parametrize("grid", PHI_GRIDS)
    @pytest.mark.parametrize("tan_theta", [-5.0, -0.5, 0.0, 1.0, 2.0, 1e6])
    @pytest.mark.parametrize("r", [0.0, 0.55, 2.0, 50.0])
    @pytest.mark.parametrize("vx, vy", [(1.0, 1.0), (2.0, 0.5), (0.3, 7.25)])
    def test_bitwise_equal_to_one_phi_at_a_time(self, grid, tan_theta, r, vx, vy):
        params = SqueezerParams.from_tan(tan_theta, var_x=vx, var_y=vy)
        phis = PHI_GRIDS[grid]
        got = [v.hex() for v in rotated_output_variances(params, r, phis)]
        assert got == [rotated_output_variance(params, r, phi).hex() for phi in phis]
        assert got == [scalar_rotated_variance(params, r, phi).hex() for phi in phis]

    def test_no_phi(self):
        assert rotated_output_variances(SqueezerParams.from_tan(2.0), 1.0, []) == []

    @pytest.mark.parametrize("phis", [[], [0.0, 1.0]])
    def test_negative_r_raises(self, phis):
        with pytest.raises(ValueError, match="r must be >= 0"):
            rotated_output_variances(SqueezerParams.from_tan(2.0), -0.1, phis)


class TestOptimalAngle:
    @pytest.mark.parametrize("tan_theta", [0.5, 1.0, 2.0, 5.0, -2.0])
    def test_double_angle_identity(self, tan_theta):
        phi_opt, _ = optimal_detection_angle(math.atan(tan_theta))
        assert math.tan(2.0 * phi_opt) * tan_theta == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("tan_theta", [0.5, 1.0, 2.0, 5.0, -2.0])
    def test_matches_numeric_minimum(self, tan_theta):
        params = SqueezerParams.from_tan(tan_theta)
        r = 1.0
        grid = np.linspace(0.0, math.pi, 2001)
        values = [rotated_output_variance(params, r, p) for p in grid]
        i = int(np.argmin(values))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        res = minimize_scalar(
            lambda p: rotated_output_variance(params, r, p),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-12},
        )
        phi_opt, floor = optimal_detection_angle(math.atan(tan_theta))
        assert rotated_output_variance(params, r, phi_opt) == pytest.approx(
            res.fun, abs=1e-9
        )
        assert floor == pytest.approx(res.fun - 3.0 * math.exp(-2.0 * r), abs=1e-9)

    @pytest.mark.parametrize("tan_theta", WIDE_TAN_GRID)
    def test_picks_the_smaller_root(self, tan_theta):
        # the roots of tan(2 phi) tan(theta) = 1 lie pi/2 apart in [0, pi)
        params = SqueezerParams.from_tan(tan_theta)
        phi_opt, _ = optimal_detection_angle(params.theta)
        other = phi_opt + (math.pi / 2 if phi_opt < math.pi / 2 else -math.pi / 2)
        at_opt, at_other = rotated_output_variances(params, 1.0, (phi_opt, other))
        assert at_opt < at_other

    def test_floor_closed_form(self):
        for t in (0.3, 1.0, 2.0, 7.0):
            _, floor = optimal_detection_angle(math.atan(t))
            want = 1.0 + 2.0 * t * t - 2.0 * abs(t) * math.sqrt(t * t + 1.0)
            assert floor == pytest.approx(want, abs=1e-12)

    def test_tan_two_values(self):
        phi_opt, floor = optimal_detection_angle(math.atan(2.0))
        assert phi_opt == pytest.approx(1.8026201312952996, abs=1e-9)
        assert phi_opt == pytest.approx(1.80259, abs=1e-4)
        assert floor == pytest.approx(9.0 - 4.0 * math.sqrt(5.0), abs=1e-12)

    def test_minimum_variance_at_tan_two(self):
        _, floor = optimal_detection_angle(math.atan(2.0))
        v_min = 3.0 * math.exp(-4.0) + floor
        assert v_min == pytest.approx(0.11067500666704372, abs=1e-9)
        assert v_min == pytest.approx(0.11067, abs=1e-4)

    def test_flat_angle_rejected(self):
        with pytest.raises(ValueError):
            optimal_detection_angle(0.0)


class TestThreshold:
    def test_tan_two_value(self):
        theta = math.atan(2.0)
        _, floor = optimal_detection_angle(theta)
        analytic = 0.5 * math.log(3.0 / (1.0 - floor))
        got = squeezing_threshold(theta)
        assert got == pytest.approx(analytic, abs=1e-6)
        assert got == pytest.approx(0.57790, abs=1e-4)

    def test_separates_regimes(self):
        theta = math.atan(2.0)
        thr = squeezing_threshold(theta)
        phi_opt, floor = optimal_detection_angle(theta)
        params = SqueezerParams(theta=theta)
        assert rotated_output_variance(params, thr + 0.01, phi_opt) < 1.0
        assert rotated_output_variance(params, thr - 0.01, phi_opt) > 1.0

    @pytest.mark.parametrize("tan_theta", TAN_GRID)
    def test_matches_bisection(self, tan_theta):
        theta = math.atan(tan_theta)
        assert squeezing_threshold(theta) == pytest.approx(bisected_threshold(theta),
                                                            abs=1e-9)

    @pytest.mark.parametrize("tan_theta", WIDE_TAN_GRID)
    def test_matches_cancellation_free_form(self, tan_theta):
        # 1 - floor = 2|t| / (sqrt(1 + t^2) + |t|), so r* = ln(1.5 (1 + sqrt(1 + t^-2))) / 2
        want = 0.5 * math.log(1.5 * (1.0 + math.sqrt(1.0 + tan_theta ** -2)))
        assert squeezing_threshold(math.atan(tan_theta)) == pytest.approx(want, abs=1e-12)

    def test_grows_with_weaker_operation(self):
        # weaker gate squeezing leaves a higher floor, needs more resource r
        assert squeezing_threshold(math.atan(1.0)) > squeezing_threshold(
            math.atan(2.0)
        )


class TestValidation:
    def test_angle_near_half_pi(self):
        with pytest.raises(ValueError):
            SqueezerParams(theta=math.pi / 2.0)

    def test_nonpositive_variance(self):
        with pytest.raises(ValueError):
            SqueezerParams(theta=0.5, var_x=-1.0)

    def test_negative_r(self):
        with pytest.raises(ValueError):
            squeezer_gate(SqueezerParams(theta=0.5), -0.2)
