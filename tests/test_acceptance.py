"""Acceptance gate: one test per release criterion, one report line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
The Monte-Carlo criterion samples n=10^6 per expression and certifies at
four standard errors with fixed seeds, so the whole file is deterministic.
"""

import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import cvcluster.cli as cli
from cvcluster import (
    CLUSTER_NETWORK,
    CxParams,
    DisplacementParams,
    SqueezerParams,
    build_cluster,
    certify,
    controlled_x_gate,
    cx_output_moments,
    displacement_gate,
    displacement_output_variance,
    fig8_dataset,
    identity_fidelity,
    inseparability_check,
    inseparability_threshold,
    nullifier_variances,
    nullifiers,
    optimal_detection_angle,
    optimal_displacement_variance,
    optimal_gain,
    rotate_quadrature,
    rotated_output_variance,
    sample_expr,
    squeezer_gate,
    squeezing_threshold,
)

from reference import covariance_propagate, nullifier_slot_vectors
from test_cluster import CLUSTER_COEFFS

R_GRID = (0.0, 0.5, 1.0, 2.0)
MC_SAMPLES = 1_000_000
MC_K = 4.0


def _report(number: int, text: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, f"criterion {number} failed: {text}"


@pytest.fixture(scope="module")
def cluster():
    return build_cluster()


def test_criterion_1_cluster_calibration(cluster):
    ok = True
    for (mode_name, axis), expected in CLUSTER_COEFFS.items():
        mode = cluster.mode(mode_name)
        expr = mode.x if axis == "x" else mode.y
        ok &= len(expr.terms) == len(expected)
        for (seed, ax), coeff in expected.items():
            ok &= abs(expr.coefficient(seed, ax) - coeff) < 1e-12
    vecs = nullifier_slot_vectors()
    for r in R_GRID:
        want = np.array([2.0, 3.0, 3.0, 2.0]) * math.exp(-2.0 * r)
        direct = np.array(nullifier_variances(cluster, r))
        ok &= np.max(np.abs(direct - want)) < 1e-9
        cov = covariance_propagate(CLUSTER_NETWORK, r)
        matrix_route = np.array([v @ cov @ v for v in vecs])
        ok &= np.max(np.abs(matrix_route - want)) < 1e-9
    _report(1, "network coefficients and nullifier variances", ok)


def test_criterion_2_inseparability(cluster):
    ok = True
    for r in R_GRID:
        lhs = np.array(inseparability_check(cluster, r).lhs)
        want = np.array([5.0, 5.0, 6.0]) * math.exp(-2.0 * r)
        ok &= np.max(np.abs(lhs - want)) < 1e-9
    threshold = inseparability_threshold()
    ok &= abs(threshold - 0.5 * math.log(1.5)) < 1e-6
    ok &= abs(threshold - 0.20273) < 1e-5
    _report(2, "variance sums and entanglement threshold", ok)


def test_criterion_3_displacement_gate():
    ok = True
    for r in (0.0, 0.7, 2.0):
        for gain in (0.0, 1.0, "optimal"):
            params = DisplacementParams(
                s0=0.4, s1=-0.9, g2=gain, g3=gain, mean_x=0.3, mean_y=-0.1
            )
            stats = displacement_gate(params, r).stats["out"]
            ok &= abs(stats.mean_x - (0.3 + math.sqrt(2.0) * 0.4)) < 1e-12
            ok &= abs(stats.mean_y - (-0.1 + math.sqrt(2.0) * -0.9)) < 1e-12
    for r in (0.1, 0.5, 1.0, 2.0):
        numeric = minimize_scalar(
            lambda g: displacement_output_variance(r, g),
            bracket=(0.0, 2.0), method="golden", options={"xtol": 1e-12},
        ).x
        ok &= abs(optimal_gain(r) - numeric) < 1e-6
    ok &= abs(optimal_displacement_variance(1.0) - 1.40192) < 1e-5
    _report(3, "displacement transfer, optimal gain, noise floor", ok)


def test_criterion_4_fidelity_endpoints():
    grid = np.linspace(0.0, 5.0, 100)
    values = [identity_fidelity(r) for r in grid]
    ok = abs(values[0] - 0.5) < 1e-9
    ok &= identity_fidelity(20.0) > 1.0 - 1e-6
    ok &= all(b > a for a, b in zip(values, values[1:]))
    _report(4, "fidelity 0.5 at r=0, above 1-1e-6 at r=20, strictly rising", ok)


def test_criterion_5_squeezer():
    flat = SqueezerParams(theta=0.0)
    r = 1.0
    samples = [
        rotated_output_variance(flat, r, phi)
        for phi in np.linspace(0.0, math.pi, 10_000)
    ]
    ok = max(samples) - min(samples) < 1e-12
    ok &= abs(samples[0] - (3.0 * math.exp(-2.0 * r) + 1.0)) < 1e-12
    for t in (0.5, 1.0, 2.0, 5.0):
        phi_opt, _ = optimal_detection_angle(math.atan(t))
        ok &= abs(math.tan(2.0 * phi_opt) * t - 1.0) < 1e-6
    _, floor = optimal_detection_angle(math.atan(2.0))
    ok &= abs((3.0 * math.exp(-4.0) + floor) - 0.11067) < 1e-4
    ok &= abs(squeezing_threshold(math.atan(2.0)) - 0.57790) < 1e-4
    _report(5, "squeezer flatness, optimal angle, floor, threshold", ok)


def test_criterion_6_controlled_x():
    rng = np.random.default_rng(97)
    ok = True
    for _ in range(5):
        r = rng.uniform(0.0, 2.5)
        params = CxParams(
            s_c=rng.uniform(-2, 2), s_t=rng.uniform(-2, 2),
            var_cx=rng.uniform(0.2, 3.0), var_cy=rng.uniform(0.2, 3.0),
            var_tx=rng.uniform(0.2, 3.0), var_ty=rng.uniform(0.2, 3.0),
        )
        result = controlled_x_gate(params, r)
        closed = cx_output_moments(params, r)
        for name in ("target", "control"):
            got, want = result.stats[name], closed[name]
            for field in ("mean_x", "mean_y", "var_x", "var_y"):
                ok &= abs(getattr(got, field) - getattr(want, field)) < 1e-9
        ok &= abs(result.stats["target"].mean_x - (params.s_t - params.s_c)) < 1e-12
    unit = controlled_x_gate(CxParams(s_c=1.0, s_t=2.0), 1.0)
    ok &= abs(unit.stats["target"].mean_x - 1.0) < 1e-12
    _report(6, "controlled-X moments against closed forms", ok)


def test_criterion_7_monte_carlo_certification(cluster):
    checks = []  # (expression, r, analytic mean, analytic variance)

    r1 = 1.0
    for expr in nullifiers(cluster):
        checks.append((expr, r1, 0.0, expr.variance(r1)))

    disp = displacement_gate(DisplacementParams(s0=0.5, s1=-0.25), r1)
    dstats = disp.stats["out"]
    checks.append((disp.modes["out"].x, r1, dstats.mean_x, dstats.var_x))
    checks.append((disp.modes["out"].y, r1, dstats.mean_y, dstats.var_y))

    theta = math.atan(2.0)
    sq_params = SqueezerParams(theta=theta)
    sq = squeezer_gate(sq_params, 2.0)
    sstats = sq.stats["out"]
    checks.append((sq.modes["out"].x, 2.0, sstats.mean_x, sstats.var_x))
    checks.append((sq.modes["out"].y, 2.0, sstats.mean_y, sstats.var_y))
    phi_opt, _ = optimal_detection_angle(theta)
    rotated = rotate_quadrature(sq.modes["out"], phi_opt)
    checks.append(
        (rotated, 2.0, 0.0, rotated_output_variance(sq_params, 2.0, phi_opt))
    )

    cx = controlled_x_gate(CxParams(s_c=1.0, s_t=2.0), r1)
    for name in ("target", "control"):
        stats = cx.stats[name]
        checks.append((cx.modes[name].x, r1, stats.mean_x, stats.var_x))
        checks.append((cx.modes[name].y, r1, stats.mean_y, stats.var_y))

    ok = True
    nullifier_estimates = []
    for index, (expr, r, mean, variance) in enumerate(checks):
        est = sample_expr(expr, r, MC_SAMPLES, index)
        ok &= certify(mean, est, MC_K, "mean").passed
        ok &= certify(variance, est, MC_K, "variance").passed
        if index < 4:
            nullifier_estimates.append(est)

    # the three pairwise sums, certified from the same nullifier samples
    lhs = inseparability_check(cluster, r1).lhs
    for sum_value, (i, j) in zip(lhs, ((1, 0), (3, 2), (1, 2))):
        est_sum = nullifier_estimates[i].variance + nullifier_estimates[j].variance
        se_sum = math.hypot(
            nullifier_estimates[i].se_var, nullifier_estimates[j].se_var
        )
        ok &= abs(sum_value - est_sum) <= MC_K * se_sum

    # determinism under the fixed seed
    expr0 = checks[0][0]
    again = sample_expr(expr0, r1, MC_SAMPLES, 0)
    first = sample_expr(expr0, r1, MC_SAMPLES, 0)
    ok &= again.mean == first.mean and again.variance == first.variance

    _report(7, f"{2 * len(checks) + 3} sampled statistics at n=1e6, k=4", ok)


def test_criterion_8_wigner_grids():
    panels = fig8_dataset()
    ok = len(panels) == 6

    def spread_x(panel):
        x = panel.column("x")
        y = np.unique(panel.column("y"))
        w = panel.column("w")
        dx = np.unique(x)[1] - np.unique(x)[0]
        dy = y[1] - y[0]
        mass = w.sum() * dx * dy
        mean = (w * x).sum() * dx * dy / mass
        return (w * (x - mean) ** 2).sum() * dx * dy / mass

    for name, panel in panels.items():
        x = np.unique(panel.column("x"))
        y = np.unique(panel.column("y"))
        integral = panel.column("w").sum() * (x[1] - x[0]) * (y[1] - y[0])
        ok &= abs(integral - 1.0) < 1e-3

    for mode in ("control", "target"):
        v_in = spread_x(panels[f"input_{mode}"])
        v_r1 = spread_x(panels[f"output_{mode}_r1"])
        v_r3 = spread_x(panels[f"output_{mode}_r3"])
        ok &= abs(v_r3 - v_in) < abs(v_r1 - v_in)

    _report(8, "all six grids normalized; spreads shrink toward input as r grows", ok)


def test_criterion_9_determinism_and_exit_codes(tmp_path, capsys):
    target = tmp_path / "figs"
    ok = cli.main(["figures", "--out", str(target), "--grid", "41"]) == 0
    first = {p.name: p.read_bytes() for p in target.iterdir()}
    ok &= cli.main(["figures", "--out", str(target), "--grid", "41"]) == 0
    second = {p.name: p.read_bytes() for p in target.iterdir()}
    ok &= len(first) == 10 and first == second

    blocker = tmp_path / "file"
    blocker.write_text("x")
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"r": 1.0, "mystery": 2}))
    matrix = [
        (["prepare", "--r", "1"], 0),
        (["prepare", "--r", "0.1"], 1),
        (["displace"], 2),
        (["displace", "--r", "-1"], 2),
        (["displace", "--r", "1", "--g2", "1", "--optimal-gain"], 2),
        (["squeeze", "--r", "1"], 2),
        (["squeeze", "--r", "1", "--theta", "0.4", "--tan-theta", "2"], 2),
        (["cx", "--r", "1", "--certify", "--samples", "10"], 2),
        (["prepare", "--r", "1", "--config", str(cfg)], 2),
        (["figures", "--out", str(blocker / "sub")], 4),
    ]
    for argv, expected in matrix:
        ok &= cli.main(argv) == expected
    capsys.readouterr()  # swallow the matrix chatter before reporting

    _report(9, "byte-identical figures and the exit-code contract", ok)
