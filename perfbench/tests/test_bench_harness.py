"""Tests of the benchmark itself: statistics, workloads, checks and tracing."""

import math
from pathlib import Path

import numpy as np
import pytest

import cvcluster.cli
import checks
import ops
import run
import tracing

GOLDEN = ops.load_golden()


# --------------------------------------------------------------------------
# tail percentile
# --------------------------------------------------------------------------


@pytest.mark.parametrize("n", [11, 12, 25, 100, 1000])
def test_tail_leaves_ten_samples_beyond(n):
    values = list(np.random.default_rng(n).permutation(np.arange(n, dtype=float)))
    value, pct, beyond = run.tail(values)
    assert beyond == run.TAIL_BEYOND
    assert sum(v > value for v in values) == run.TAIL_BEYOND
    assert pct == pytest.approx(100.0 * (n - run.TAIL_BEYOND) / n)


def test_tail_is_p90_of_100():
    value, pct, _ = run.tail([float(i) for i in range(1, 101)])
    assert (value, pct) == (90.0, 90.0)


def test_tail_with_too_few_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


# --------------------------------------------------------------------------
# self time on synthetic spans
# --------------------------------------------------------------------------


def _spans(rows):
    """rows: (name, parent index, start, end), all in iteration 0."""
    names = sorted({r[0] for r in rows})
    ids = {n: i for i, n in enumerate(names)}
    spans = {
        "name": np.array([ids[r[0]] for r in rows], dtype=np.int32),
        "parent": np.array([r[1] for r in rows], dtype=np.int32),
        "iteration": np.zeros(len(rows), dtype=np.int32),
        "start": np.array([r[2] for r in rows], dtype=float),
        "end": np.array([r[3] for r in rows], dtype=float),
    }
    counts = {0: dict.fromkeys(tracing.COUNTERS, 0)}
    return tracing.iteration_metrics(names, spans, counts)[0]


def test_self_time_of_nested_spans():
    m = _spans([
        ("cli.main", -1, 0.0, 10.0),
        ("cli.build_parser", 0, 0.5, 1.5),
        ("gates.displacement_gate", 0, 2.0, 8.0),
        ("cluster.build_cluster", 2, 2.5, 4.5),
        ("algebra.beamsplitter", 3, 3.0, 4.0),
        ("gates.identity_fidelity", 2, 5.0, 7.0),
        ("gates.optimal_displacement_variance", 5, 5.5, 6.5),
    ])
    assert m["cli.self_s"] == pytest.approx(10 - 1 - 6)
    assert m["cli.build_parser_s"] == pytest.approx(1.0)
    assert m["gates.build_self_s"] == pytest.approx(6 - 2 - 2)
    assert m["cluster.build_cluster_s"] == pytest.approx(2.0)
    assert m["algebra.beamsplitter_s"] == pytest.approx(1.0)
    # a closed form called by another closed form is covered once
    assert m["gates.closed_form_s"] == pytest.approx(2.0)
    assert m["gates.closed_form.calls"] == 2
    assert m["cli.self_share"] == pytest.approx(0.3 + 0.1)
    assert m["cluster.self_share"] == pytest.approx(0.1)
    assert m["algebra.self_share"] == pytest.approx(0.1)
    assert m["gates.self_share"] == pytest.approx(0.4)
    assert sum(m[f"{layer}.self_share"] for layer in tracing.LAYERS) == pytest.approx(1.0)


def test_group_coverage_skips_interleaved_layers():
    # inseparability_threshold -> build_cluster -> ... -> inseparability_check
    m = _spans([
        ("cli.main", -1, 0.0, 4.0),
        ("cluster.inseparability_threshold", 0, 0.0, 3.0),
        ("cluster.nullifier_variances", 1, 0.5, 2.5),
        ("cluster.inseparability_check", 2, 1.0, 2.0),
    ])
    assert m["cluster.inseparability_s"] == pytest.approx(3.0)
    assert m["cluster.self_share"] == pytest.approx(3.0 / 4.0)


# --------------------------------------------------------------------------
# workload generators
# --------------------------------------------------------------------------


@pytest.mark.parametrize("make", [ops.certify_ops, ops.sweep_ops])
def test_generators_are_deterministic_per_seed(make):
    assert make(7) == make(7)
    assert [op.argv for op in make(7)] != [op.argv for op in make(8)]


def test_sweep_has_equal_shares_and_one_scan_in_four_squeezes():
    ops_ = ops.sweep_ops(3)
    kinds = [op.command for op in ops_]
    assert len(ops_) == ops.SWEEP_OPS
    for kind in ("prepare", "displace", "squeeze", "cx"):
        assert kinds.count(kind) == ops.SWEEP_OPS // 4
    scans = [op for op in ops_ if op.params.get("scan")]
    assert len(scans) == ops.SWEEP_OPS // 4 // ops.SWEEP_SCAN_EVERY
    formats = [op.out.rpartition(".")[2] for op in ops_ if op.out]
    assert formats.count("csv") == formats.count("json")


def test_certify_has_seventeen_statistics():
    ops_ = ops.certify_ops(5)
    assert [op.command for op in ops_] == ["displace", "squeeze", "cx"]
    assert all("--certify" in op.argv for op in ops_)
    assert sum(len(checks.CERTIFIED[op.command]) for op in ops_) == 17


# --------------------------------------------------------------------------
# checks count failures
# --------------------------------------------------------------------------

FIG41 = ops.Op(("figures", "--grid", "41"), "figures", 0, {"variant": "grid41-csv"})


def _iterate(op_list, tmp_path, tracer=None):
    tally = run.Tally()
    run.run_iteration(op_list, tmp_path / "it", GOLDEN, tally, tracer)
    return tally


def test_figures_match_golden(tmp_path):
    tally = _iterate([FIG41], tmp_path)
    assert (tally.attempted, tally.failed) == (1, 0)


def test_flipped_byte_in_a_figure_file_counts_as_failure(tmp_path, monkeypatch):
    original = cvcluster.cli.write_dataset

    def flipping(dataset, path, fmt="csv", config=None):
        target = original(dataset, path, fmt, config)
        if Path(path).name == "fig4.csv":
            data = bytearray(target.read_bytes())
            data[-5] ^= 0x01
            target.write_bytes(bytes(data))
        return target

    monkeypatch.setattr(cvcluster.cli, "write_dataset", flipping)
    tally = _iterate([FIG41], tmp_path)
    assert tally.failed_frac == 1.0
    assert tally.problems == ["figures: fig4.csv digest differs from golden"]


def test_unexpected_exit_code_counts_as_failure(tmp_path, monkeypatch):
    op_list = ops.sweep_ops(1)[:8]
    monkeypatch.setitem(cvcluster.cli._COMMANDS, "cx", lambda cfg: cvcluster.cli.EXIT_CERTIFY)
    tally = _iterate(op_list, tmp_path)
    n_cx = sum(op.command == "cx" for op in op_list)
    assert n_cx > 0
    assert tally.failed == n_cx
    assert tally.failed_frac == pytest.approx(n_cx / len(op_list))


def test_sweep_iteration_passes(tmp_path):
    tally = _iterate(ops.sweep_ops(2), tmp_path)
    assert (tally.attempted, tally.failed) == (ops.SWEEP_OPS, 0), tally.problems


def test_prepare_below_threshold_expects_exit_1():
    low = [op for op in ops.sweep_ops(4) if op.command == "prepare"]
    assert {op.expect_exit for op in low} == {0, 1}
    for op in low:
        assert op.expect_exit == (1 if op.params["r"] < checks.R_STAR else 0)


def test_wrong_moment_is_caught():
    params = {"r": 1.0, "sc": 0.5, "st": -1.0, "vx": 1.0, "vy": 1.5}
    results = checks.expected_cx(params)
    assert checks.check_report("cx", params, results, certify=False) == []
    results["target_var_y"] *= 1 + 1e-9
    assert checks.check_report("cx", params, results, certify=False) == [
        f"cx: target_var_y={results['target_var_y']!r}, closed form "
        f"{checks.expected_cx(params)['target_var_y']!r}"
    ]


def test_out_file_must_match_printed_values(tmp_path):
    op = next(op for op in ops.sweep_ops(6) if op.command == "displace")
    code, _, stdout, _ = ops.execute(op.argv, tmp_path)
    assert ops.check(op, code, stdout, "", tmp_path, GOLDEN) == []
    results = checks.parse_report(stdout)
    results["var_x"] = math.nextafter(results["var_x"], math.inf)
    problems = checks.check_out_file(op.command, op.params, results, tmp_path / op.out)
    assert len(problems) == 1 and "var_x" in problems[0]


def test_certify_report_is_checked(tmp_path):
    op = ops.certify_ops(9)[2]
    small = ops.Op(op.argv + ("--samples", "20000"), op.command, 0, op.params)
    code, _, stdout, _ = ops.execute(small.argv, tmp_path)
    assert ops.check(small, code, stdout, "", tmp_path, GOLDEN) == []
    tampered = stdout.replace("-> PASS", "-> FAIL", 1)
    assert ops.check(small, code, tampered, "", tmp_path, GOLDEN) != []


# --------------------------------------------------------------------------
# tracing
# --------------------------------------------------------------------------


def _traced_counts(op_list, tmp_path):
    tracer = tracing.Tracer()
    tracer.begin_iteration(0)
    tally = _iterate(op_list, tmp_path, tracer)
    tracer.end_iteration()
    assert tally.failed == 0
    metrics, _ = tracer.metrics()
    return {k: v for k, v in metrics.items() if tracing.unit(k) == "count"}


def test_traced_counts_repeat_and_tracer_uninstalls(tmp_path):
    originals = (cvcluster.cli.main, cvcluster.cli.write_dataset,
                 cvcluster.algebra.QuadExpr.__dict__["variance"])
    op_list = ops.sweep_ops(5)[:20] + [FIG41]
    first = _traced_counts(op_list, tmp_path / "a")
    second = _traced_counts(op_list, tmp_path / "b")
    assert first == second
    assert first["cli.main.calls"] == len(op_list)
    assert first["io.write_dataset.calls"] == 10 + sum(op.out is not None for op in op_list)
    assert first["algebra.exprs_built"] > 0
    assert originals == (cvcluster.cli.main, cvcluster.cli.write_dataset,
                         cvcluster.algebra.QuadExpr.__dict__["variance"])
