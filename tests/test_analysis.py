"""Wigner evaluation and the emitted curve datasets."""

import math
import warnings

import numpy as np
import pytest

import cvcluster
from cvcluster import (
    CurveDataset,
    ModePair,
    ModeStats,
    SeedKind,
    fig3_dataset,
    fig4_dataset,
    fig5_dataset,
    fig6_dataset,
    fig8_dataset,
    identity_fidelity,
    min_distinguishable_displacement,
    mode_moments,
    optimal_detection_angle,
    rotated_output_variance,
    SqueezerParams,
    squeezed_mode,
    wigner,
)

TWO_PI = 2.0 * math.pi


def vacuum_moments():
    return ModeStats(0.0, 0.0, 1.0, 1.0, 0.0)


def out_of_place_wigner(moments: ModeStats, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """W on the grid as one expression, each operation making a new array."""
    det = moments.var_x * moments.var_y - moments.cov_xy * moments.cov_xy
    inv00, inv11, inv01 = moments.var_y / det, moments.var_x / det, -moments.cov_xy / det
    dx = (x - moments.mean_x)[:, None]
    dy = (y - moments.mean_y)[None, :]
    quad = inv00 * dx * dx + 2.0 * inv01 * dx * dy + inv11 * dy * dy
    return np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))


def grid_integral(dataset: CurveDataset) -> float:
    x = np.unique(dataset.column("x"))
    y = np.unique(dataset.column("y"))
    dx = x[1] - x[0]
    dy = y[1] - y[0]
    return float(dataset.column("w").sum() * dx * dy)


class TestGaussianMoments:
    def test_nonpositive_determinant_rejected(self):
        g = np.linspace(-2.0, 2.0, 5)
        with pytest.raises(ValueError, match="positive definite"):
            wigner(ModeStats(0.0, 0.0, 1.0, 1.0, 1.0), g, g)

    def test_negative_definite_rejected(self):
        # -I has a positive determinant; it used to give W = 8.69 at a corner
        g = np.linspace(-2.0, 2.0, 5)
        with pytest.raises(ValueError, match="positive definite"):
            wigner(ModeStats(0.0, 0.0, -1.0, -1.0, 0.0), g, g)

    def test_mode_moments_cross_term(self):
        mode = squeezed_mode(SeedKind.AMPLITUDE_QUIET, "m")
        mixed = squeezed_mode(SeedKind.PHASE_QUIET, "n")
        combo = ModePair(x=mode.x + 0.5 * mixed.y, y=mixed.y)
        moments = mode_moments(combo, 1.0)
        want = 0.5 * mixed.y.variance(1.0)
        assert moments.cov_xy == pytest.approx(want, rel=1e-12)
        assert moments.var_x == pytest.approx(combo.x.variance(1.0), rel=1e-12)


class TestWigner:
    def test_vacuum_peak(self):
        g = np.linspace(-6.0, 6.0, 121)
        w = wigner(vacuum_moments(), g, g)
        assert w.shape == (121, 121)
        assert w[60, 60] == pytest.approx(1.0 / TWO_PI, rel=1e-12)

    def test_normalization(self):
        g = np.linspace(-8.0, 8.0, 321)
        w = wigner(vacuum_moments(), g, g)
        dx = g[1] - g[0]
        assert w.sum() * dx * dx == pytest.approx(1.0, abs=1e-3)

    def test_unit_determinant_keeps_peak(self):
        # pure squeezed state: det stays 1, so the peak height is the vacuum's
        moments = ModeStats(0.0, 0.0, math.exp(-2.0), math.exp(2.0), 0.0)
        x = np.linspace(-1.0, 1.0, 101)
        y = np.linspace(-10.0, 10.0, 101)
        w = wigner(moments, x, y)
        assert w[50, 50] == pytest.approx(1.0 / TWO_PI, rel=1e-12)

    def test_translation_invariance(self):
        shift = (1.2, -0.7)
        base = np.linspace(-4.0, 4.0, 81)
        w0 = wigner(vacuum_moments(), base, base)
        w1 = wigner(
            ModeStats(*shift, 1.0, 1.0, 0.0), base + shift[0], base + shift[1]
        )
        assert np.max(np.abs(w0 - w1)) < 1e-12

    @pytest.mark.parametrize("extent", [1e160, 1e300])
    def test_overflowing_quadratic_form(self, extent):
        g = np.array([-extent, 0.0, extent])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                wigner(vacuum_moments(), g, g)

    def test_overflowing_grid_width(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                fig8_dataset(grid_points=5, span=1.7e308)

    def test_sheared_grid_bit_for_bit_as_out_of_place(self):
        # cov_xy != 0 exercises the cross term the default panels leave at 0
        moments = ModeStats(0.4, -1.1, 2.5, 0.7, -0.9)
        x, y = np.linspace(-5.0, 6.0, 173), np.linspace(-4.0, 2.0, 211)
        got, want = wigner(moments, x, y), out_of_place_wigner(moments, x, y)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_grid_validation(self):
        m = vacuum_moments()
        good = np.linspace(-1, 1, 11)
        with pytest.raises(ValueError):
            wigner(m, np.zeros((2, 2)), good)
        with pytest.raises(ValueError):
            wigner(m, np.array([]), good)
        with pytest.raises(ValueError):
            wigner(m, np.array([0.0, 0.0, 1.0]), good)


class TestFig3:
    def test_shape_and_order(self):
        rs = np.linspace(0.0, 2.0, 5)
        rps = np.linspace(0.0, 2.0, 3)
        ds = fig3_dataset(rs, rps)
        assert ds.columns == ("r", "r_prime", "s0_min", "s1_min")
        assert ds.values.shape == (15, 4)
        # row-major with r on the outer loop
        assert np.allclose(ds.values[:3, 0], rs[0])
        assert np.allclose(ds.values[:3, 1], rps)

    def test_values_match_closed_form(self):
        ds = fig3_dataset(np.array([0.0, 1.0]), np.array([0.5]))
        for row in ds.values:
            r, rp, s0, s1 = row
            v_in = math.exp(-2.0 * rp)
            want = min_distinguishable_displacement(r, v_in, v_in, criterion=99)
            assert s0 == pytest.approx(want[0], rel=1e-12)
            assert s1 == pytest.approx(want[1], rel=1e-12)

    def test_monotone_in_both_resources(self):
        rs = np.linspace(0.0, 2.0, 9)
        ds = fig3_dataset(rs, rs)
        s0 = ds.values[:, 2].reshape(9, 9)
        assert np.all(np.diff(s0, axis=0) < 0)  # more cluster squeezing helps
        assert np.all(np.diff(s0, axis=1) < 0)  # quieter input helps


class TestFig4:
    def test_endpoints_and_monotonicity(self):
        grid = np.linspace(0.0, 5.0, 100)
        ds = fig4_dataset(grid)
        assert ds.columns == ("r", "fidelity")
        f = ds.column("fidelity")
        assert f[0] == pytest.approx(0.5, abs=1e-9)
        assert f[-1] == pytest.approx(identity_fidelity(5.0), rel=1e-12)
        assert np.all(np.diff(f) > 0)


class TestFig5:
    def test_columns_and_flat_reference(self):
        phis = np.linspace(0.0, math.pi, 101)
        ds = fig5_dataset(phis)
        assert ds.columns[0] == "phi"
        assert "v_tantheta_0" in ds.columns
        assert "v_tantheta_5" in ds.columns
        flat = ds.column("v_tantheta_0")
        assert np.max(flat) - np.min(flat) < 1e-12

    def test_periodic_endpoints(self):
        phis = np.linspace(0.0, math.pi, 101)
        ds = fig5_dataset(phis)
        for name in ds.columns[1:]:
            col = ds.column(name)
            assert col[0] == pytest.approx(col[-1], rel=1e-9)

    def test_min_approaches_floor(self):
        phis = np.linspace(0.0, math.pi, 4001)
        ds = fig5_dataset(phis, tan_thetas=(2.0,), r=2.0)
        _, floor = optimal_detection_angle(math.atan(2.0))
        want = 3.0 * math.exp(-4.0) + floor
        assert ds.column("v_tantheta_2").min() == pytest.approx(want, abs=1e-4)


class TestFig6:
    def test_threshold_crossing_visible(self):
        phis = np.linspace(0.0, math.pi, 2001)
        ds = fig6_dataset(phis)
        assert np.all(ds.column("snl") == 1.0)
        # r values straddling the 0.578 threshold
        assert ds.column("v_r_0.3").min() > 1.0
        assert ds.column("v_r_0.55").min() > 1.0
        assert ds.column("v_r_0.6").min() < 1.0
        assert ds.column("v_r_1.15").min() < 1.0

    def test_values_match_rotated_variance(self):
        phis = np.linspace(0.0, math.pi, 11)
        ds = fig6_dataset(phis, r_values=(0.7,), tan_theta=2.0)
        params = SqueezerParams.from_tan(2.0)
        got = ds.column("v_r_0.7")
        want = [rotated_output_variance(params, 0.7, p) for p in phis]
        assert np.allclose(got, want, rtol=1e-12)


@pytest.fixture(scope="module")
def panels():
    return fig8_dataset(grid_points=101)


class TestFig8:
    def test_panel_names(self, panels):
        assert set(panels) == {
            "input_control",
            "input_target",
            "output_control_r1",
            "output_target_r1",
            "output_control_r3",
            "output_target_r3",
        }

    def test_grids_normalized(self, panels):
        for name, panel in panels.items():
            assert grid_integral(panel) == pytest.approx(1.0, abs=1e-3), name

    def test_default_panels_bit_for_bit_as_out_of_place(self):
        # each default panel's moments are its meta's mean and var, uncorrelated; rows run
        # over y within x, as np.repeat(x) and np.tile(y) lay them out
        for name, panel in fig8_dataset().items():
            x, y = np.unique(panel.column("x")), np.unique(panel.column("y"))
            assert x.size == y.size == 201, name
            moments = ModeStats(*panel.meta["mean"], *panel.meta["var"], 0.0)
            w = out_of_place_wigner(moments, x, y)
            assert wigner(moments, x, y).tobytes() == w.tobytes(), name
            want = np.column_stack((np.repeat(x, y.size), np.tile(y, x.size), w.ravel()))
            assert panel.values.tobytes() == want.tobytes(), name

    def test_input_peaks_at_displacement(self, panels):
        for name, mean in (("input_control", 1.0), ("input_target", 2.0)):
            panel = panels[name]
            peak = panel.values[np.argmax(panel.column("w"))]
            assert peak[0] == pytest.approx(mean, abs=1e-9)
            assert peak[1] == pytest.approx(0.0, abs=1e-9)

    def test_caption_readings(self):
        stddev = fig8_dataset(grid_points=11)["input_control"]
        literal = fig8_dataset(grid_points=11, caption_reading="variance")[
            "input_control"
        ]
        assert stddev.meta["var"][0] == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert literal.meta["var"][0] == pytest.approx(math.exp(-1.0), rel=1e-12)
        with pytest.raises(ValueError):
            fig8_dataset(caption_reading="wrong")

    def test_output_variance_tracks_squeezing(self, panels):
        # meta carries the analytic moments the grids were drawn from
        v1 = panels["output_control_r1"].meta["var"][0]
        v3 = panels["output_control_r3"].meta["var"][0]
        v_in = panels["input_control"].meta["var"][0]
        assert abs(v3 - v_in) < abs(v1 - v_in)

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            fig8_dataset(grid_points=1)
        with pytest.raises(ValueError):
            fig8_dataset(span=0.0)
        with pytest.raises(ValueError):
            fig8_dataset(r_values=())

    @pytest.mark.parametrize("r_values", [(1.0, 1.0000001), (3.0, 1.0, 3.0)])
    def test_r_values_with_one_label_rejected(self, r_values):
        # both would name their panels output_*_r1 (or _r3), and one would be lost
        with pytest.raises(ValueError, match="label"):
            fig8_dataset(r_values=r_values, grid_points=3)


class TestCurveDataset:
    def test_analysis_reexports_the_io_class(self):
        assert cvcluster.analysis.CurveDataset is cvcluster.io.CurveDataset

    def test_unknown_column(self):
        ds = fig4_dataset(np.linspace(0.0, 1.0, 5))
        with pytest.raises(KeyError):
            ds.column("nope")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            CurveDataset(tag="t", columns=("a", "b"), values=np.zeros((3, 3)), meta={})

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(ValueError, match="column names"):
            CurveDataset(tag="t", columns=("a", "b", "a"), values=np.zeros((2, 3)))

    def test_phi_curves_with_one_label_rejected(self):
        phis = np.linspace(0.0, math.pi, 5)
        with pytest.raises(ValueError, match="column names"):
            fig6_dataset(phis, r_values=(0.3, 0.3000001))
        with pytest.raises(ValueError, match="column names"):
            fig5_dataset(phis, tan_thetas=(2.0, 2.0))

    def test_non_finite_rejected(self):
        bad = np.array([[1.0, math.nan]])
        with pytest.raises(ValueError):
            CurveDataset(tag="t", columns=("a", "b"), values=bad, meta={})
