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
    SeedRegistry,
    beamsplitter,
    rotate_quadrature,
    squeezed_variance,
)


def fresh_pair(kind=SeedKind.PHASE_QUIET, label=None):
    reg = SeedRegistry()
    return reg, reg.squeezed_mode(kind, label=label)


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
    def test_unknown_seed(self):
        reg = SeedRegistry()
        with pytest.raises(ValueError, match="unknown seed"):
            reg.seed("nope", Axis.X)

    def test_labels_unique(self):
        reg = SeedRegistry()
        reg.squeezed_mode(SeedKind.PHASE_QUIET, label="a")
        with pytest.raises(ValueError):
            reg.squeezed_mode(SeedKind.PHASE_QUIET, label="a")

    def test_auto_labels_do_not_collide(self):
        reg = SeedRegistry()
        m1 = reg.squeezed_mode(SeedKind.PHASE_QUIET)
        m2 = reg.squeezed_mode(SeedKind.AMPLITUDE_QUIET)
        (k1,) = m1.x.terms
        (k2,) = m2.x.terms
        assert k1[0] != k2[0]

    def test_input_mode_variance_validation(self):
        reg = SeedRegistry()
        with pytest.raises(ValueError):
            reg.input_mode(0.0, 0.0, -1.0, 1.0, label="bad")

    def test_input_mode_moments(self):
        reg = SeedRegistry()
        mode = reg.input_mode(1.5, -0.5, 2.0, 3.0, label="in")
        assert mode.x.mean() == pytest.approx(1.5, abs=1e-15)
        assert mode.y.mean() == pytest.approx(-0.5, abs=1e-15)
        assert mode.x.variance(0.0) == pytest.approx(2.0, abs=1e-15)
        assert mode.y.variance(0.0) == pytest.approx(3.0, abs=1e-15)


class TestExpressionArithmetic:
    def test_mean_is_affine(self):
        reg = SeedRegistry()
        mode = reg.input_mode(1.0, 0.0, 1.0, 1.0, label="in")
        expr = math.sqrt(2.0) * mode.x + 2.0
        assert expr.mean() == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-15)

    def test_variance_scales_quadratically(self):
        reg, mode = fresh_pair(SeedKind.AMPLITUDE_QUIET)
        expr = 3.0 * mode.x
        assert expr.variance(1.0) == pytest.approx(9.0 * math.exp(-2.0), abs=1e-14)

    def test_covariance_shared_seed(self):
        reg, mode = fresh_pair(SeedKind.AMPLITUDE_QUIET)
        u = 2.0 * mode.x
        v = 3.0 * mode.x + 5.0
        assert u.covariance(v, 1.0) == pytest.approx(6.0 * math.exp(-2.0), abs=1e-14)

    def test_disjoint_seeds_uncorrelated(self):
        reg = SeedRegistry()
        m1 = reg.squeezed_mode(SeedKind.PHASE_QUIET)
        m2 = reg.squeezed_mode(SeedKind.PHASE_QUIET)
        assert m1.x.covariance(m2.x, 1.3) == 0.0

    def test_cancellation_prunes(self):
        reg, mode = fresh_pair()
        expr = mode.x - mode.x
        assert not expr.terms
        assert expr.variance(2.0) == 0.0

    def test_tiny_coefficients_prune(self):
        reg, mode = fresh_pair()
        expr = (PRUNE_TOL / 10.0) * mode.x
        assert not expr.terms

    def test_immutable(self):
        reg, mode = fresh_pair()
        with pytest.raises(AttributeError):
            mode.x.constant = 5.0

    def test_registry_mismatch(self):
        _, m1 = fresh_pair()
        _, m2 = fresh_pair()
        with pytest.raises(ValueError):
            m1.x + m2.x
        with pytest.raises(ValueError):
            m1.x.covariance(m2.x, 1.0)

    def test_expression_product_rejected(self):
        reg, mode = fresh_pair()
        with pytest.raises(TypeError):
            mode.x * mode.y

    def test_negative_r_rejected(self):
        reg, mode = fresh_pair()
        with pytest.raises(ValueError):
            mode.x.variance(-1.0)

    @given(
        a=st.floats(-5, 5, allow_nan=False),
        b=st.floats(-5, 5, allow_nan=False),
        r=st.floats(0, 3, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_covariance_bilinear(self, a, b, r):
        reg = SeedRegistry()
        m1 = reg.squeezed_mode(SeedKind.PHASE_QUIET, label="p")
        m2 = reg.squeezed_mode(SeedKind.AMPLITUDE_QUIET, label="q")
        u, v, w = m1.x, m2.y, m1.x + 0.5 * m2.y
        lhs = (a * u + b * v).covariance(w, r)
        rhs = a * u.covariance(w, r) + b * v.covariance(w, r)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestBeamsplitter:
    def test_balanced_no_phase(self):
        reg = SeedRegistry()
        a = reg.input_mode(0.0, 0.0, 1.0, 1.0, label="a")
        b = reg.input_mode(0.0, 0.0, 1.0, 1.0, label="b")
        o1, o2 = beamsplitter(a, b, 0.5)
        s = 1.0 / math.sqrt(2.0)
        assert o1.x.coefficient("a", Axis.X) == pytest.approx(s, abs=1e-15)
        assert o1.x.coefficient("b", Axis.X) == pytest.approx(s, abs=1e-15)
        assert o2.x.coefficient("a", Axis.X) == pytest.approx(s, abs=1e-15)
        assert o2.x.coefficient("b", Axis.X) == pytest.approx(-s, abs=1e-15)

    def test_phase_rotates_second_input(self):
        reg = SeedRegistry()
        a = reg.input_mode(0.0, 0.0, 1.0, 1.0, label="a")
        b = reg.input_mode(0.0, 0.0, 1.0, 1.0, label="b")
        o1, _ = beamsplitter(a, b, 0.5, math.pi / 2.0)
        # quarter-wave phase swaps the partner quadratures: x picks up -y
        s = 1.0 / math.sqrt(2.0)
        assert o1.x.coefficient("b", Axis.Y) == pytest.approx(-s, abs=1e-15)
        assert o1.y.coefficient("b", Axis.X) == pytest.approx(s, abs=1e-15)
        assert abs(o1.x.coefficient("b", Axis.X)) < 1e-15

    def test_balanced_self_inverse(self):
        reg = SeedRegistry()
        a = reg.input_mode(0.0, 0.0, 1.0, 1.0, label="a")
        b = reg.input_mode(0.0, 0.0, 1.0, 1.0, label="b")
        o1, o2 = beamsplitter(a, b, 0.5)
        p1, p2 = beamsplitter(o1, o2, 0.5)
        assert p1.x.coefficient("a", Axis.X) == pytest.approx(1.0, abs=1e-12)
        assert abs(p1.x.coefficient("b", Axis.X)) < 1e-12
        assert p2.x.coefficient("b", Axis.X) == pytest.approx(1.0, abs=1e-12)
        assert abs(p2.y.coefficient("a", Axis.Y)) < 1e-12

    def test_near_unit_transmittance_keeps_moments(self):
        # cross coupling scales as sqrt(1-tau), so the identity holds at the
        # moment level, not coefficient by coefficient
        reg = SeedRegistry()
        a = reg.squeezed_mode(SeedKind.PHASE_QUIET, label="a")
        b = reg.squeezed_mode(SeedKind.AMPLITUDE_QUIET, label="b")
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
        reg = SeedRegistry()
        a = reg.squeezed_mode(SeedKind.PHASE_QUIET, label="a")
        b = reg.squeezed_mode(SeedKind.AMPLITUDE_QUIET, label="b")
        o1, o2 = beamsplitter(a, b, tau, phase)
        before = sum(e.variance(r) for e in (a.x, a.y, b.x, b.y))
        after = sum(e.variance(r) for e in (o1.x, o1.y, o2.x, o2.y))
        assert after == pytest.approx(before, rel=1e-12)

    def test_transmittance_bounds(self):
        reg = SeedRegistry()
        a = reg.input_mode(0.0, 0.0, 1.0, 1.0, label="a")
        b = reg.input_mode(0.0, 0.0, 1.0, 1.0, label="b")
        for tau in (0.0, 1.0, -0.2, 1.2):
            with pytest.raises(ValueError):
                beamsplitter(a, b, tau)

    def test_registry_mismatch(self):
        _, m1 = fresh_pair()
        _, m2 = fresh_pair()
        with pytest.raises(ValueError):
            beamsplitter(m1, m2, 0.5)


class TestRotation:
    def test_zero_angle_is_x(self):
        reg, mode = fresh_pair()
        expr = rotate_quadrature(mode, 0.0)
        assert expr.coefficient(next(iter(mode.x.terms))[0], Axis.X) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_quarter_turn_is_y(self):
        reg, mode = fresh_pair(label="m")
        expr = rotate_quadrature(mode, math.pi / 2.0)
        assert expr.coefficient("m", Axis.Y) == pytest.approx(1.0, abs=1e-15)
        assert abs(expr.coefficient("m", Axis.X)) < 1e-15

    def test_interpolates_variances(self):
        reg, mode = fresh_pair(SeedKind.AMPLITUDE_QUIET, label="m")
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
