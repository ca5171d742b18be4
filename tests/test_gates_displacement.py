"""Displacement gate: transfer, gains, noise floor, fidelity, resolvability."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from cvcluster import (
    Axis,
    DisplacementParams,
    SqueezerParams,
    displacement_gate,
    displacement_output_variance,
    fidelity_from_variances,
    identity_fidelity,
    min_distinguishable_displacement,
    optimal_displacement_variance,
    optimal_gain,
    squeezer_gate,
)

SQRT2 = math.sqrt(2.0)


class TestSignalTransfer:
    @pytest.mark.parametrize("r", [0.0, 0.7, 2.0])
    @pytest.mark.parametrize("gain", [0.0, 1.0, "optimal"])
    def test_means_exact(self, r, gain):
        params = DisplacementParams(
            s0=0.3, s1=-1.1, g2=gain, g3=gain, mean_x=0.4, mean_y=0.25
        )
        stats = displacement_gate(params, r).stats["out"]
        assert stats.mean_x == pytest.approx(0.4 + SQRT2 * 0.3, abs=1e-12)
        assert stats.mean_y == pytest.approx(0.25 + SQRT2 * (-1.1), abs=1e-12)
        assert stats.cov_xy == 0.0  # the two quadratures share no seed

    def test_unit_input_coefficients(self):
        result = displacement_gate(DisplacementParams(s0=0.0, s1=0.0), 1.0)
        out = result.modes["out"]
        assert out.x.coefficient("in", Axis.X) == pytest.approx(1.0, abs=1e-12)
        assert out.y.coefficient("in", Axis.Y) == pytest.approx(1.0, abs=1e-12)
        # no quadrature mixing
        assert abs(out.x.coefficient("in", Axis.Y)) < 1e-12
        assert abs(out.y.coefficient("in", Axis.X)) < 1e-12


class TestSqueezerAtThetaZero:
    # the displacement gate is the squeezer's single-mode step at theta = 0
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("moments", [
        {},
        {"var_x": 0.3, "var_y": 4.0},
        {"mean_x": 0.7, "mean_y": -1.2, "var_x": 2.5, "var_y": 0.5},
    ])
    def test_same_moments_bit_for_bit(self, r, moments):
        displaced = displacement_gate(DisplacementParams(g2=1.0, g3=1.0, **moments), r)
        squeezed = squeezer_gate(SqueezerParams(theta=0.0, **moments), r)
        assert displaced.stats == squeezed.stats
        assert ([v.hex() for v in dataclasses.astuple(displaced.stats["out"])]
                == [v.hex() for v in dataclasses.astuple(squeezed.stats["out"])])


class TestVariance:
    def test_closed_form_matches_expressions(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            r = rng.uniform(0.0, 2.5)
            g = rng.uniform(-0.5, 1.5)
            v_in = rng.uniform(0.2, 3.0)
            params = DisplacementParams(
                s0=0.0, s1=0.0, g2=g, g3=g, var_x=v_in, var_y=v_in
            )
            stats = displacement_gate(params, r).stats["out"]
            want = displacement_output_variance(r, g, v_in)
            assert stats.var_x == pytest.approx(want, rel=1e-12)
            assert stats.var_y == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0])
    def test_optimal_gain_matches_numeric_minimum(self, r):
        res = minimize_scalar(
            lambda g: displacement_output_variance(r, g),
            bracket=(0.0, 2.0),
            method="golden",
            options={"xtol": 1e-12},
        )
        assert optimal_gain(r) == pytest.approx(res.x, abs=1e-6)

    def test_unity_gain_vacuum_floor(self):
        # four unsqueezed cluster quanta on top of the coherent input
        assert displacement_output_variance(0.0, 1.0) == pytest.approx(4.0, abs=1e-12)

    def test_optimal_variance_consistent(self):
        for r in (0.0, 0.5, 1.0, 3.0):
            direct = displacement_output_variance(r, optimal_gain(r))
            assert optimal_displacement_variance(r) == pytest.approx(direct, rel=1e-12)

    def test_known_values(self):
        assert optimal_gain(1.0) == pytest.approx(0.9698421750728007, abs=1e-12)
        assert optimal_gain(1.0) == pytest.approx(0.96984, abs=1e-4)
        assert optimal_displacement_variance(1.0) == pytest.approx(
            1.4019244319315154, abs=1e-9
        )
        assert optimal_displacement_variance(1.0) == pytest.approx(1.40192, abs=1e-5)

    def test_added_noise_vanishes_at_high_squeezing(self):
        assert optimal_displacement_variance(20.0) == pytest.approx(1.0, abs=1e-9)

    def test_optimal_gain_approaches_unity(self):
        assert optimal_gain(20.0) == pytest.approx(1.0, abs=1e-12)
        assert optimal_gain(0.0) == 0.0


class TestFidelity:
    def test_variance_form(self):
        assert fidelity_from_variances(2.0, 2.0) == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert fidelity_from_variances(1.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_only_physical_variances(self):
        # rounding can leave a pure state's product just below 1; 1e-12 relative slack passes it
        assert fidelity_from_variances(math.exp(-2.0), math.exp(2.0)) == pytest.approx(
            2.0 / math.sqrt((1.0 + math.exp(-2.0)) * (1.0 + math.exp(2.0))), rel=1e-12)
        assert fidelity_from_variances(1.0 - 1e-13, 1.0) == pytest.approx(1.0, rel=1e-12)
        for var_x, var_y in ((0.5, 0.5), (1.0 - 1e-11, 1.0), (0.25, 3.9)):
            with pytest.raises(ValueError, match="uncertainty"):
                fidelity_from_variances(var_x, var_y)

    def test_no_squeezing_endpoint(self):
        assert identity_fidelity(0.0) == pytest.approx(0.5, abs=1e-9)

    def test_high_squeezing_endpoint(self):
        assert identity_fidelity(20.0) > 1.0 - 1e-6

    def test_strictly_increasing(self):
        grid = np.linspace(0.0, 5.0, 100)
        values = [identity_fidelity(r) for r in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestDistinguishability:
    def test_high_squeezing_coherent_limit(self):
        s0, s1 = min_distinguishable_displacement(20.0, 1.0, 1.0, criterion=99)
        assert s0 == pytest.approx(3.0 / SQRT2, abs=1e-6)
        assert s1 == pytest.approx(3.0 / SQRT2, abs=1e-6)

    def test_spec_point(self):
        s0, _ = min_distinguishable_displacement(1.0, 1.0, 1.0, criterion=99)
        assert s0 == pytest.approx(2.5117045892564316, abs=1e-9)
        assert s0 == pytest.approx(2.51172, abs=1e-4)

    def test_95_criterion_is_two_thirds(self):
        s99, _ = min_distinguishable_displacement(1.0, 1.0, 1.0, criterion=99)
        s95, _ = min_distinguishable_displacement(1.0, 1.0, 1.0, criterion=95)
        assert s95 / s99 == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            min_distinguishable_displacement(1.0, 1.0, 1.0, criterion=90)


class TestValidation:
    def test_nonpositive_variance(self):
        with pytest.raises(ValueError):
            DisplacementParams(s0=0.0, s1=0.0, var_x=0.0)

    def test_bad_gain_string(self):
        with pytest.raises(ValueError):
            DisplacementParams(s0=0.0, s1=0.0, g2="best")

    def test_non_finite_displacement(self):
        with pytest.raises(ValueError):
            DisplacementParams(s0=math.inf, s1=0.0)

    def test_negative_r(self):
        with pytest.raises(ValueError):
            displacement_gate(DisplacementParams(s0=0.0, s1=0.0), -1.0)
        with pytest.raises(ValueError):
            optimal_gain(-0.1)
