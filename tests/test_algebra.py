"""Linear quadrature algebra: seeds, expressions, beamsplitters."""

import ast
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvcluster
from cvcluster import (
    Axis,
    PRUNE_TOL,
    SeedKind,
    beamsplitter,
    input_mode,
    rotate_quadrature,
    squeezed_mode,
    squeezed_variance,
)


def fresh_pair(kind=SeedKind.PHASE_QUIET, label="m"):
    return squeezed_mode(kind, label)


class TestSqueezedVariance:
    def test_phase_quiet_y_is_squeezed(self):
        assert squeezed_variance(SeedKind.PHASE_QUIET, Axis.Y, 1.0) == pytest.approx(
            math.exp(-2.0), abs=1e-15
        )
        assert squeezed_variance(SeedKind.PHASE_QUIET, Axis.X, 1.0) == pytest.approx(
            math.exp(2.0), abs=1e-13
        )

    def test_amplitude_quiet_x_is_squeezed(self):
        assert squeezed_variance(SeedKind.AMPLITUDE_QUIET, Axis.X, 0.5) == pytest.approx(
            math.exp(-1.0), abs=1e-15
        )
        assert squeezed_variance(SeedKind.AMPLITUDE_QUIET, Axis.Y, 0.5) == pytest.approx(
            math.exp(1.0), abs=1e-14
        )

    def test_vacuum_limit(self):
        for kind in (SeedKind.PHASE_QUIET, SeedKind.AMPLITUDE_QUIET):
            for axis in Axis:
                assert squeezed_variance(kind, axis, 0.0) == 1.0

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            squeezed_variance(SeedKind.PHASE_QUIET, Axis.X, -0.1)

    def test_external_kind_rejected(self):
        with pytest.raises(ValueError):
            squeezed_variance(SeedKind.EXTERNAL, Axis.X, 1.0)


class TestRegistry:
    """Sources: each squeezed_mode or input_mode call makes fresh seeds."""

    def test_input_mode_variance_validation(self):
        with pytest.raises(ValueError):
            input_mode("bad", 0.0, 0.0, -1.0, 1.0)

    def test_input_mode_moments(self):
        mode = input_mode("in", 1.5, -0.5, 2.0, 3.0)
        assert mode.x.mean() == pytest.approx(1.5, abs=1e-15)
        assert mode.y.mean() == pytest.approx(-0.5, abs=1e-15)
        assert mode.x.variance(0.0) == pytest.approx(2.0, abs=1e-15)
        assert mode.y.variance(0.0) == pytest.approx(3.0, abs=1e-15)


class TestExpressionArithmetic:
    def test_mean_is_affine(self):
        mode = input_mode("in", 1.0, 0.0, 1.0, 1.0)
        expr = math.sqrt(2.0) * mode.x + 2.0
        assert expr.mean() == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-15)

    def test_variance_scales_quadratically(self):
        mode = fresh_pair(SeedKind.AMPLITUDE_QUIET)
        expr = 3.0 * mode.x
        assert expr.variance(1.0) == pytest.approx(9.0 * math.exp(-2.0), abs=1e-14)

    def test_covariance_shared_seed(self):
        mode = fresh_pair(SeedKind.AMPLITUDE_QUIET)
        u = 2.0 * mode.x
        v = 3.0 * mode.x + 5.0
        assert u.covariance(v, 1.0) == pytest.approx(6.0 * math.exp(-2.0), abs=1e-14)

    def test_disjoint_seeds_uncorrelated(self):
        m1 = squeezed_mode(SeedKind.PHASE_QUIET, "a")
        m2 = squeezed_mode(SeedKind.PHASE_QUIET, "b")
        assert m1.x.covariance(m2.x, 1.3) == 0.0

    def test_cancellation_prunes(self):
        mode = fresh_pair()
        expr = mode.x - mode.x
        assert not expr.terms
        assert expr.variance(2.0) == 0.0

    def test_tiny_coefficients_prune(self):
        mode = fresh_pair()
        expr = (PRUNE_TOL / 10.0) * mode.x
        assert not expr.terms

    def test_immutable(self):
        mode = fresh_pair()
        with pytest.raises(AttributeError):
            mode.x.constant = 5.0

    def test_separate_sources_independent(self):
        # seeds are told apart by identity: two sources with one name still
        # give two independent seeds per axis
        m1 = fresh_pair(SeedKind.PHASE_QUIET)
        m2 = fresh_pair(SeedKind.AMPLITUDE_QUIET)
        total = m1.x + m2.x
        assert len(total.terms) == 2
        for r in (0.0, 1.0):
            assert m1.x.covariance(m2.x, r) == 0.0
            assert total.variance(r) == m1.x.variance(r) + m2.x.variance(r)
        assert (m1.x - m2.x).covariance(m1.x, 1.0) == m1.x.variance(1.0)

    def test_expression_product_rejected(self):
        mode = fresh_pair()
        with pytest.raises(TypeError):
            mode.x * mode.y

    def test_negative_r_rejected(self):
        mode = fresh_pair()
        with pytest.raises(ValueError):
            mode.x.variance(-1.0)

    @given(
        a=st.floats(-5, 5, allow_nan=False),
        b=st.floats(-5, 5, allow_nan=False),
        r=st.floats(0, 3, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_covariance_bilinear(self, a, b, r):
        m1 = squeezed_mode(SeedKind.PHASE_QUIET, "p")
        m2 = squeezed_mode(SeedKind.AMPLITUDE_QUIET, "q")
        u, v, w = m1.x, m2.y, m1.x + 0.5 * m2.y
        lhs = (a * u + b * v).covariance(w, r)
        rhs = a * u.covariance(w, r) + b * v.covariance(w, r)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestBeamsplitter:
    def test_balanced_no_phase(self):
        a = input_mode("a", 0.0, 0.0, 1.0, 1.0)
        b = input_mode("b", 0.0, 0.0, 1.0, 1.0)
        o1, o2 = beamsplitter(a, b, 0.5)
        s = 1.0 / math.sqrt(2.0)
        assert o1.x.coefficient("a", Axis.X) == pytest.approx(s, abs=1e-15)
        assert o1.x.coefficient("b", Axis.X) == pytest.approx(s, abs=1e-15)
        assert o2.x.coefficient("a", Axis.X) == pytest.approx(s, abs=1e-15)
        assert o2.x.coefficient("b", Axis.X) == pytest.approx(-s, abs=1e-15)

    def test_phase_rotates_second_input(self):
        a = input_mode("a", 0.0, 0.0, 1.0, 1.0)
        b = input_mode("b", 0.0, 0.0, 1.0, 1.0)
        o1, _ = beamsplitter(a, b, 0.5, math.pi / 2.0)
        # quarter-wave phase swaps the partner quadratures: x picks up -y
        s = 1.0 / math.sqrt(2.0)
        assert o1.x.coefficient("b", Axis.Y) == pytest.approx(-s, abs=1e-15)
        assert o1.y.coefficient("b", Axis.X) == pytest.approx(s, abs=1e-15)
        assert abs(o1.x.coefficient("b", Axis.X)) < 1e-15

    def test_balanced_self_inverse(self):
        a = input_mode("a", 0.0, 0.0, 1.0, 1.0)
        b = input_mode("b", 0.0, 0.0, 1.0, 1.0)
        o1, o2 = beamsplitter(a, b, 0.5)
        p1, p2 = beamsplitter(o1, o2, 0.5)
        assert p1.x.coefficient("a", Axis.X) == pytest.approx(1.0, abs=1e-12)
        assert abs(p1.x.coefficient("b", Axis.X)) < 1e-12
        assert p2.x.coefficient("b", Axis.X) == pytest.approx(1.0, abs=1e-12)
        assert abs(p2.y.coefficient("a", Axis.Y)) < 1e-12

    def test_near_unit_transmittance_keeps_moments(self):
        # cross coupling scales as sqrt(1-tau), so the identity holds at the
        # moment level, not coefficient by coefficient
        a = squeezed_mode(SeedKind.PHASE_QUIET, "a")
        b = squeezed_mode(SeedKind.AMPLITUDE_QUIET, "b")
        o1, o2 = beamsplitter(a, b, 1.0 - 1e-15)
        for out, src in ((o1, a), (o2, b)):
            assert out.x.variance(1.0) == pytest.approx(src.x.variance(1.0), abs=1e-12)
            assert out.y.variance(1.0) == pytest.approx(src.y.variance(1.0), abs=1e-12)

    @given(
        tau=st.floats(0.01, 0.99),
        phase=st.floats(-math.pi, math.pi),
        r=st.floats(0, 2),
    )
    @settings(max_examples=50, deadline=None)
    def test_total_variance_preserved(self, tau, phase, r):
        # orthogonal mixing preserves the summed quadrature variance
        a = squeezed_mode(SeedKind.PHASE_QUIET, "a")
        b = squeezed_mode(SeedKind.AMPLITUDE_QUIET, "b")
        o1, o2 = beamsplitter(a, b, tau, phase)
        before = sum(e.variance(r) for e in (a.x, a.y, b.x, b.y))
        after = sum(e.variance(r) for e in (o1.x, o1.y, o2.x, o2.y))
        assert after == pytest.approx(before, rel=1e-12)

    def test_transmittance_bounds(self):
        a = input_mode("a", 0.0, 0.0, 1.0, 1.0)
        b = input_mode("b", 0.0, 0.0, 1.0, 1.0)
        for tau in (0.0, 1.0, -0.2, 1.2):
            with pytest.raises(ValueError):
                beamsplitter(a, b, tau)

    def test_mixes_separate_sources(self):
        a = fresh_pair(SeedKind.PHASE_QUIET)
        b = fresh_pair(SeedKind.AMPLITUDE_QUIET)
        o1, o2 = beamsplitter(a, b, 0.5)
        assert len(o1.x.terms) == len(o2.x.terms) == 2
        for r in (0.0, 1.0):
            assert o1.x.variance(r) == pytest.approx(
                0.5 * (a.x.variance(r) + b.x.variance(r)), rel=1e-15)
            assert o1.x.covariance(o2.x, r) == pytest.approx(
                0.5 * (a.x.variance(r) - b.x.variance(r)), rel=1e-15, abs=1e-15)


class TestRotation:
    def test_zero_angle_is_x(self):
        mode = fresh_pair()
        expr = rotate_quadrature(mode, 0.0)
        assert expr.coefficient(next(iter(mode.x.terms)).id, Axis.X) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_quarter_turn_is_y(self):
        mode = fresh_pair(label="m")
        expr = rotate_quadrature(mode, math.pi / 2.0)
        assert expr.coefficient("m", Axis.Y) == pytest.approx(1.0, abs=1e-15)
        assert abs(expr.coefficient("m", Axis.X)) < 1e-15

    def test_interpolates_variances(self):
        mode = fresh_pair(SeedKind.AMPLITUDE_QUIET, label="m")
        r, phi = 1.0, 0.7
        expr = rotate_quadrature(mode, phi)
        expected = math.cos(phi) ** 2 * math.exp(-2 * r) + math.sin(phi) ** 2 * math.exp(2 * r)
        assert expr.variance(r) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("module", ["algebra", "cluster", "gates"])
def test_core_modules_do_not_import_numpy(module):
    # the closed forms and the algebra stay importable without numpy
    source = Path(cvcluster.__file__).with_name(f"{module}.py").read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert "numpy" not in imported
