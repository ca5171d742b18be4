"""Four-mode cluster preparation, nullifiers, inseparability."""

import math

import numpy as np
import pytest

from cvcluster import (
    Axis,
    INSEPARABILITY_BOUND,
    build_cluster,
    inseparability_check,
    inseparability_threshold,
    nullifier_variances,
    nullifiers,
)

from reference import NULLIFIER_ROWS

S2 = 1.0 / math.sqrt(2.0)
S10 = 1.0 / math.sqrt(10.0)

# every quadrature of the prepared cluster as (seed, axis) -> coefficient
CLUSTER_COEFFS = {
    ("b1", "x"): {("a2", Axis.X): 2 * S10, ("a3", Axis.Y): -S10, ("a1", Axis.X): S2},
    ("b1", "y"): {("a2", Axis.Y): 2 * S10, ("a3", Axis.X): S10, ("a1", Axis.Y): S2},
    ("b2", "x"): {("a2", Axis.X): 2 * S10, ("a3", Axis.Y): -S10, ("a1", Axis.X): -S2},
    ("b2", "y"): {("a2", Axis.Y): 2 * S10, ("a3", Axis.X): S10, ("a1", Axis.Y): -S2},
    ("b3", "x"): {("a2", Axis.X): S10, ("a3", Axis.Y): 2 * S10, ("a4", Axis.Y): -S2},
    ("b3", "y"): {("a2", Axis.Y): S10, ("a3", Axis.X): -2 * S10, ("a4", Axis.X): S2},
    ("b4", "x"): {("a2", Axis.X): S10, ("a3", Axis.Y): 2 * S10, ("a4", Axis.Y): S2},
    ("b4", "y"): {("a2", Axis.Y): S10, ("a3", Axis.X): -2 * S10, ("a4", Axis.X): -S2},
}


@pytest.fixture(scope="module")
def cluster():
    return build_cluster()


class TestCalibration:
    def test_every_coefficient(self, cluster):
        for (mode_name, axis), expected in CLUSTER_COEFFS.items():
            mode = getattr(cluster, mode_name)
            expr = mode.x if axis == "x" else mode.y
            assert len(expr.terms) == len(expected), (mode_name, axis)
            for (seed, ax), coeff in expected.items():
                got = expr.coefficient(seed, ax)
                assert got == pytest.approx(coeff, abs=1e-12), (mode_name, axis, seed)

    def test_no_constants(self, cluster):
        for mode in cluster.modes:
            assert mode.x.constant == 0.0
            assert mode.y.constant == 0.0

    def test_vacuum_output_variances(self, cluster):
        # passive network on vacuum-normalized sources keeps unit variance
        for mode in cluster.modes:
            assert mode.x.variance(0.0) == pytest.approx(1.0, abs=1e-12)
            assert mode.y.variance(0.0) == pytest.approx(1.0, abs=1e-12)


class TestNullifiers:
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0])
    def test_variances(self, cluster, r):
        got = np.array(nullifier_variances(cluster, r))
        want = np.array([2.0, 3.0, 3.0, 2.0]) * math.exp(-2.0 * r)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_means_vanish(self, cluster):
        for expr in nullifiers(cluster):
            assert expr.mean() == pytest.approx(0.0, abs=1e-15)

    def test_negative_r_rejected(self, cluster):
        with pytest.raises(ValueError):
            nullifier_variances(cluster, -0.5)

    def test_slot_vectors_shape(self):
        vecs = np.array(NULLIFIER_ROWS)
        assert vecs.shape == (4, 8)
        assert set(np.unique(vecs)) <= {-1.0, 0.0, 1.0}


class TestInseparability:
    @pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 2.0])
    def test_sums(self, cluster, r):
        report = inseparability_check(cluster, r)
        want = np.array([5.0, 5.0, 6.0]) * math.exp(-2.0 * r)
        assert np.max(np.abs(np.array(report.lhs) - want)) < 1e-9
        assert INSEPARABILITY_BOUND == 4.0

    def test_threshold_value(self):
        analytic = 0.5 * math.log(1.5)
        got = inseparability_threshold()
        assert got == pytest.approx(analytic, abs=1e-8)
        assert got == pytest.approx(0.20273, abs=1e-5)

    def test_threshold_matches_bisection(self, cluster):
        def ok(r):
            return inseparability_check(cluster, r).all_satisfied

        lo, hi = 0.0, 2.0
        assert not ok(lo) and ok(hi)
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if ok(mid) else (mid, hi)
        assert inseparability_threshold() == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_threshold_separates(self, cluster):
        thr = inseparability_threshold()
        assert inseparability_check(cluster, thr + 0.01).all_satisfied
        below = inseparability_check(cluster, thr - 0.01)
        assert not below.all_satisfied

    def test_margin_sign(self, cluster):
        report = inseparability_check(cluster, 1.0)
        assert all(v < INSEPARABILITY_BOUND for v in report.lhs)
        assert all(report.satisfied)
