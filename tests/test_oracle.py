"""Monte-Carlo sampling oracle and covariance-matrix cross-check."""

import dataclasses
import functools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cvcluster import (
    CLUSTER_NETWORK,
    CxParams,
    SampleEstimate,
    SeedKind,
    build_cluster,
    certify,
    controlled_x_gate,
    DisplacementParams,
    displacement_gate,
    input_mode,
    nullifier_variances,
    sample_expr,
    sample_exprs,
    SLOT_MODES,
    squeezed_mode,
)
from cvcluster import oracle
from cvcluster.oracle import BLOCK

from reference import beamsplitter_symplectic, covariance_propagate, nullifier_slot_vectors


def squeezed_y(label="m"):
    return squeezed_mode(SeedKind.PHASE_QUIET, label).y


class TestSampling:
    def test_deterministic_given_seed(self):
        expr = squeezed_y()
        a = sample_expr(expr, 1.0, 50_000, 11)
        b = sample_expr(expr, 1.0, 50_000, 11)
        assert a.mean == b.mean
        assert a.variance == b.variance

    def test_seed_changes_draws(self):
        expr = squeezed_y()
        a = sample_expr(expr, 1.0, 50_000, 11)
        b = sample_expr(expr, 1.0, 50_000, 12)
        assert a.mean != b.mean

    def test_estimates_track_analytics(self):
        mode = input_mode("in", 1.5, 0.0, 2.0, 1.0)
        pair = squeezed_mode(SeedKind.AMPLITUDE_QUIET, "s")
        expr = 2.0 * mode.x - 0.5 * pair.x + 3.0
        r = 1.0
        est = sample_expr(expr, r, 400_000, 5)
        assert est.n == 400_000
        assert abs(est.mean - expr.mean()) < 5.0 * est.se_mean
        assert abs(est.variance - expr.variance(r)) < 5.0 * est.se_var

    def test_constant_expression(self):
        mode = input_mode("in", 0.0, 0.0, 1.0, 1.0)
        expr = (mode.x - mode.x) + 4.0
        est = sample_expr(expr, 0.0, 10_000)
        assert est.mean == pytest.approx(4.0, abs=1e-15)
        assert est.variance == pytest.approx(0.0, abs=1e-15)

    def test_standard_error_scaling(self):
        expr = squeezed_y()
        ses = []
        for n in (10_000, 100_000, 1_000_000):
            est = sample_expr(expr, 0.5, n, 3)
            ses.append(est.se_var)
        for lo, hi in zip(ses[1:], ses[:-1]):
            assert hi / lo == pytest.approx(math.sqrt(10.0), rel=0.2)

    def test_minimum_sample_count(self):
        with pytest.raises(ValueError, match="1000"):
            sample_expr(squeezed_y(), 1.0, 999)

    def test_negative_r(self):
        with pytest.raises(ValueError):
            sample_expr(squeezed_y(), -1.0, 10_000)

    def test_seed_bounds(self):
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="64-bit"):
                sample_exprs([squeezed_y()], 1.0, 10_000, seed)
        assert sample_exprs([squeezed_y()], 1.0, 1000, 2**64 - 1)[0].n == 1000

    def test_stream_merge_consistency(self, monkeypatch):
        # Welford/Chan merge must agree with a single-pass reference
        monkeypatch.setattr(oracle, "STREAMS", 7)
        expr = squeezed_y()
        est = sample_expr(expr, 1.0, 30_000, 9)
        chunks = []
        base, extra = divmod(30_000, 7)
        for i in range(7):
            size = base + (1 if i < extra else 0)
            gen = np.random.default_rng(np.random.SeedSequence([9, i]))
            sd = math.sqrt(math.exp(-2.0))
            chunks.append(gen.normal(0.0, sd, size))
        ref = np.concatenate(chunks)
        assert est.mean == pytest.approx(float(ref.mean()), abs=1e-12)
        assert est.variance == pytest.approx(float(ref.var(ddof=1)), rel=1e-12)


CX_OUTPUTS = [(name, axis) for name in ("target", "control") for axis in ("x", "y")]


def cx_quadratures():
    result = controlled_x_gate(CxParams(s_c=1.0, s_t=-0.5, var_cx=2.0), 1.0)
    return result, [getattr(result.modes[name], axis) for name, axis in CX_OUTPUTS]


def seed_order(seed):
    return seed.id, seed.axis.value


def blocked_reference(expr, r, n, seed):
    """The samples ``sample_exprs`` should draw, in one flat array.

    Each substream draws every seed, in (id, axis) order, block by block.
    """
    seeds = sorted(expr.terms, key=seed_order)
    streams = min(oracle.STREAMS, n)
    base, extra = divmod(n, streams)
    parts = []
    for i in range(streams):
        size = base + (1 if i < extra else 0)
        gen = np.random.default_rng(np.random.SeedSequence([seed, i]))
        for start in range(0, size, BLOCK):
            m = min(BLOCK, size - start)
            values = np.full(m, expr.constant)
            for var in seeds:
                values += expr.terms[var] * gen.normal(
                    var.mean, math.sqrt(var.variance_at(r)), m)
            parts.append(values)
    return np.concatenate(parts)


class TestJointSampling:
    def test_permutation_and_duplicates_are_bitwise_neutral(self):
        _, quads = cx_quadratures()
        base = sample_exprs(quads, 1.0, 20_000, 13)
        order = [3, 1, 0, 2, 0, 3]
        shuffled = sample_exprs([quads[i] for i in order], 1.0, 20_000, 13)
        assert shuffled == [base[i] for i in order]

    def test_single_expression_wrapper(self):
        _, quads = cx_quadratures()
        joint = sample_exprs([quads[0]], 1.0, 5_000, 14)
        assert [sample_expr(quads[0], 1.0, 5_000, 14)] == joint

    def test_empty_call(self):
        assert sample_exprs([], 1.0, 1_000) == []

    @pytest.mark.parametrize("n", [16 * BLOCK + 3, 1000])
    def test_block_seams(self, n):
        mode = input_mode("in", 1.5, -0.5, 2.0, 0.5)
        pair = squeezed_mode(SeedKind.AMPLITUDE_QUIET, "s")
        expr = 0.75 * mode.y - 1.25 * pair.x + mode.x + 3.0
        est = sample_exprs([expr], 0.8, n, 15)[0]
        ref = blocked_reference(expr, 0.8, n, 15)
        assert est.n == n == ref.size
        assert est.mean == pytest.approx(float(ref.mean()), rel=1e-12)
        assert est.variance == pytest.approx(float(ref.var(ddof=1)), rel=1e-12)

    def test_shared_name_rejected(self):
        # two seeds with one name would be drawn in memory-address order
        for exprs in ([squeezed_y("a"), squeezed_y("a")], [squeezed_y("a") + squeezed_y("a")]):
            with pytest.raises(ValueError, match="two seeds named 'a'/y"):
                sample_exprs(exprs, 1.0, 10_000)

    def test_separate_sources_sample_jointly(self):
        a, b = squeezed_y("a"), squeezed_y("b")
        est_a, est_b, est_sum = sample_exprs([a, b, a + b], 1.0, 50_000, 18)
        assert est_sum.variance == pytest.approx(est_a.variance + est_b.variance, rel=0.05)
        ref = blocked_reference(a + b, 1.0, 50_000, 18)
        assert est_sum.mean == pytest.approx(float(ref.mean()), abs=1e-12)
        assert est_sum.variance == pytest.approx(float(ref.var(ddof=1)), rel=1e-12)

    def test_separate_gate_builds_sample_alike(self):
        # fresh seeds with the same names draw the same samples
        first, second = cx_quadratures()[1], cx_quadratures()[1]
        assert not set(first[0].terms) & set(second[0].terms)
        assert bits(sample_exprs(first, 1.0, 20_000, 19)) == bits(
            sample_exprs(second, 1.0, 20_000, 19))

    def test_cx_outputs_certify_jointly(self):
        result, quads = cx_quadratures()
        ests = sample_exprs(quads, 1.0, 200_000, 16)
        for (name, axis), est in zip(CX_OUTPUTS, ests):
            stats = result.stats[name]
            assert certify(getattr(stats, f"mean_{axis}"), est, 4.0, "mean").passed
            assert certify(getattr(stats, f"var_{axis}"), est, 4.0, "variance").passed

    def test_memory_does_not_grow_with_n(self):
        # numpy reports its buffers to tracemalloc
        _, quads = cx_quadratures()

        def peak(n):
            tracemalloc.start()
            try:
                sample_exprs(quads, 1.0, n, 17)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(200_000)  # warm any one-off allocations
        small, large = peak(200_000), peak(2_000_000)
        assert large <= small + 64 * 1024

    @pytest.mark.parametrize("workers", [2, 4])
    def test_peak_rss_does_not_grow_with_n(self, workers):
        # tracemalloc misses memory that worker threads take from malloc
        # arenas of their own; the process's peak RSS sees it
        src = Path(oracle.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-c", RSS_SCRIPT, str(workers)], env=env,
                              capture_output=True, text=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 128, f"peak RSS grew by {proc.stdout.strip()} KB"


RSS_SCRIPT = """
import os, resource, sys

# A process's ru_maxrss starts at its parent's peak across exec, but not
# across fork, so the measurement runs in a fork of this fresh interpreter.
if os.fork():
    sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))

from cvcluster import CxParams, controlled_x_gate, oracle

oracle._cpus = lambda: int(sys.argv[1])
result = controlled_x_gate(CxParams(s_c=1.0, s_t=-0.5, var_cx=2.0), 1.0)
quads = [getattr(mode, axis) for mode in result.modes.values() for axis in "xy"]
unit = 1024 if sys.platform == "darwin" else 1  # ru_maxrss is in bytes there, else KB

def peak_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // unit

oracle.sample_exprs(quads, 1.0, 200_000, 17)
before = peak_kb()
oracle.sample_exprs(quads, 1.0, 2_000_000, 17)
print(peak_kb() - before)
"""


def reference_sample_exprs(exprs, r, n, seed, streams):
    """The single-threaded loop: all seeds drawn into one matrix per block.

    Substreams run one after another, and each block's moments are merged
    as soon as the block is summed.
    """
    seeds = sorted({var for expr in exprs for var in expr.terms}, key=seed_order)
    laws = [(var.mean, math.sqrt(var.variance_at(r))) for var in seeds]
    row = {var: j for j, var in enumerate(seeds)}
    plans = [(expr.constant,
              [(row[var], expr.terms[var]) for var in sorted(expr.terms, key=seed_order)])
             for expr in exprs]
    draws = np.empty((len(seeds), BLOCK))
    values = np.empty(BLOCK)
    work = np.empty(BLOCK)
    moments = [(0.0, 0.0)] * len(exprs)
    total_n = 0
    streams = min(streams, n)
    base, extra = divmod(n, streams)
    for i in range(streams):
        size = base + (1 if i < extra else 0)
        gen = np.random.default_rng(np.random.SeedSequence([seed, i]))
        for start in range(0, size, BLOCK):
            m = min(BLOCK, size - start)
            for draw, (seed_mean, seed_sd) in zip(draws, laws):
                gen.standard_normal(out=draw[:m])
                draw[:m] *= seed_sd
                draw[:m] += seed_mean
            block, tmp = values[:m], work[:m]
            merged = total_n + m
            for k, (constant, terms) in enumerate(plans):
                block.fill(constant)
                for j, coeff in terms:
                    np.multiply(draws[j, :m], coeff, out=tmp)
                    block += tmp
                block_mean = float(block.mean())
                np.subtract(block, block_mean, out=tmp)
                tmp *= tmp
                mean, m2 = moments[k]
                delta = block_mean - mean
                moments[k] = (mean + delta * m / merged,
                              m2 + float(tmp.sum()) + delta * delta * total_n * m / merged)
            total_n = merged
    estimates = []
    for mean, m2 in moments:
        variance = m2 / (total_n - 1)
        estimates.append(SampleEstimate(
            mean=mean,
            variance=variance,
            n=total_n,
            se_mean=math.sqrt(variance / total_n),
            se_var=variance * math.sqrt(2.0 / (total_n - 1)),
        ))
    return estimates


def bits(estimates):
    """Each estimate's fields, floats as their exact hex form."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(est))
            for est in estimates]


def mixed_exprs():
    """The four cx outputs, one of them twice, and a constant."""
    _, quads = cx_quadratures()
    return [*quads, quads[2], (quads[0] - quads[0]) + 2.5]


@functools.cache
def reference_for(stream_count, n):
    return reference_sample_exprs(mixed_exprs(), 0.7, n, 7, stream_count)


class TestWorkers:
    @pytest.mark.parametrize("n", [1000, 16 * BLOCK + 3, 250_001])
    @pytest.mark.parametrize("stream_count", [1, 3, 7, 16, 40])
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_bitwise_equal_to_single_threaded_loop(self, monkeypatch, workers, stream_count, n):
        monkeypatch.setattr(oracle, "_cpus", lambda: workers)
        monkeypatch.setattr(oracle, "STREAMS", stream_count)
        got = sample_exprs(mixed_exprs(), 0.7, n, 7)
        assert bits(got) == bits(reference_for(stream_count, n))

    def test_bitwise_equal_under_fast_thread_switching(self, monkeypatch):
        # more workers than CPUs, switching threads as often as the interpreter allows
        monkeypatch.setattr(oracle, "_cpus", lambda: 5)
        monkeypatch.setattr(oracle, "STREAMS", 40)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = sample_exprs(mixed_exprs(), 0.7, 250_001, 7)
        finally:
            sys.setswitchinterval(interval)
        assert bits(got) == bits(reference_for(40, 250_001))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_failure_reaches_caller(self, monkeypatch, workers):
        real = oracle.default_rng

        class Broken:
            def standard_normal(self, out):
                raise RuntimeError("substream 1 failed")

        monkeypatch.setattr(oracle, "_cpus", lambda: workers)
        monkeypatch.setattr(oracle, "STREAMS", 5)
        monkeypatch.setattr(oracle, "default_rng",
                            lambda seq: Broken() if seq.entropy[1] == 1 else real(seq))
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="substream 1 failed"):
            sample_exprs(mixed_exprs(), 0.7, 50_000, 7)
        assert threading.active_count() == before

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        def refuse(self):
            raise AssertionError("thread started")

        monkeypatch.setattr(oracle, "_cpus", lambda: 1)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        got = sample_exprs(mixed_exprs(), 0.7, 1000, 7)
        assert bits(got) == bits(reference_for(oracle.STREAMS, 1000))

    def test_cpus_counts_usable_cpus(self):
        assert 1 <= oracle._cpus() <= (os.cpu_count() or 1)


class TestCovariancePropagation:
    def test_matches_expression_route(self):
        cluster = build_cluster()
        order = [(cluster.mode(name)) for name in SLOT_MODES]
        quads = []
        for mode in order:
            quads.extend([mode.x, mode.y])
        for r in (0.0, 0.7, 1.5):
            mat = covariance_propagate(CLUSTER_NETWORK, r)
            ref = np.array(
                [[a.covariance(b, r) for b in quads] for a in quads]
            )
            assert np.max(np.abs(mat - ref)) < 1e-12

    def test_nullifier_quadratic_forms(self):
        cluster = build_cluster()
        vecs = nullifier_slot_vectors()
        for r in (0.0, 1.0, 2.0):
            cov = covariance_propagate(CLUSTER_NETWORK, r)
            got = np.array([v @ cov @ v for v in vecs])
            want = np.array(nullifier_variances(cluster, r))
            assert np.max(np.abs(got - want)) < 1e-12

    def test_determinant_is_one(self):
        # symplectic transforms of pure squeezed inputs keep det = 1
        for r in (0.0, 0.5, 1.0, 2.0):
            cov = covariance_propagate(CLUSTER_NETWORK, r)
            assert np.linalg.det(cov) == pytest.approx(1.0, abs=1e-9)

    def test_symplectic_blocks(self):
        for spec in CLUSTER_NETWORK:
            mat = beamsplitter_symplectic(spec)
            j = np.kron(np.eye(4), np.array([[0.0, 1.0], [-1.0, 0.0]]))
            assert np.allclose(mat @ j @ mat.T, j, atol=1e-12)

    def test_non_symplectic_rejected(self):
        bad = np.eye(8)
        bad[0, 0] = 2.0
        with pytest.raises(ValueError, match="symplectic"):
            covariance_propagate([bad], 1.0)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            covariance_propagate([np.eye(3)], 1.0)


class TestCertify:
    def test_pass_and_fail(self):
        expr = squeezed_y()
        est = sample_expr(expr, 1.0, 100_000, 21)
        good = certify(math.exp(-2.0), est, 4.0, "variance")
        assert good.passed
        assert good.se == est.se_var
        bad = certify(math.exp(-2.0) * 2.0, est, 4.0, "variance")
        assert not bad.passed
        assert abs(bad.analytic - bad.estimate) > 4.0 * bad.se

    def test_statistic_selector(self):
        expr = squeezed_y()
        est = sample_expr(expr, 1.0, 100_000, 22)
        mean_check = certify(0.0, est, 4.0, "mean")
        assert mean_check.passed
        assert mean_check.se == est.se_mean
        with pytest.raises(ValueError):
            certify(0.0, est, 4.0, "median")

    def test_k_must_be_positive(self):
        est = sample_expr(squeezed_y(), 1.0, 10_000)
        with pytest.raises(ValueError):
            certify(0.0, est, 0.0, "mean")

    def test_gate_output_certifies(self):
        params = DisplacementParams(s0=0.5, s1=-0.25)
        result = displacement_gate(params, 1.0)
        mode = result.modes["out"]
        stats = result.stats["out"]
        checks = [
            ("mean", mode.x, stats.mean_x),
            ("mean", mode.y, stats.mean_y),
            ("variance", mode.x, stats.var_x),
            ("variance", mode.y, stats.var_y),
        ]
        for i, (stat, expr, analytic) in enumerate(checks):
            est = sample_expr(expr, 1.0, 200_000, 100 + i)
            assert certify(analytic, est, 5.0, stat).passed
