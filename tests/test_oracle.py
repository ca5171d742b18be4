"""Monte-Carlo sampling oracle and covariance-matrix cross-check."""

import dataclasses
import functools
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from cvcluster import (
    CLUSTER_NETWORK,
    CxParams,
    RngConfig,
    SampleEstimate,
    SeedKind,
    SeedRegistry,
    build_cluster,
    certify,
    controlled_x_gate,
    DisplacementParams,
    displacement_gate,
    nullifier_variances,
    sample_expr,
    sample_exprs,
    SLOT_MODES,
)
from cvcluster import oracle
from cvcluster.oracle import BLOCK

from reference import beamsplitter_symplectic, covariance_propagate, nullifier_slot_vectors


def squeezed_y(label="m"):
    reg = SeedRegistry()
    return reg.squeezed_mode(SeedKind.PHASE_QUIET, label=label).y


class TestSampling:
    def test_deterministic_given_seed(self):
        expr = squeezed_y()
        a = sample_expr(expr, 1.0, 50_000, RngConfig(seed=11))
        b = sample_expr(expr, 1.0, 50_000, RngConfig(seed=11))
        assert a.mean == b.mean
        assert a.variance == b.variance

    def test_seed_changes_draws(self):
        expr = squeezed_y()
        a = sample_expr(expr, 1.0, 50_000, RngConfig(seed=11))
        b = sample_expr(expr, 1.0, 50_000, RngConfig(seed=12))
        assert a.mean != b.mean

    def test_estimates_track_analytics(self):
        reg = SeedRegistry()
        mode = reg.input_mode(1.5, 0.0, 2.0, 1.0, label="in")
        pair = reg.squeezed_mode(SeedKind.AMPLITUDE_QUIET, label="s")
        expr = 2.0 * mode.x - 0.5 * pair.x + 3.0
        r = 1.0
        est = sample_expr(expr, r, 400_000, RngConfig(seed=5))
        assert est.n == 400_000
        assert abs(est.mean - expr.mean()) < 5.0 * est.se_mean
        assert abs(est.variance - expr.variance(r)) < 5.0 * est.se_var

    def test_constant_expression(self):
        reg = SeedRegistry()
        mode = reg.input_mode(0.0, 0.0, 1.0, 1.0, label="in")
        expr = (mode.x - mode.x) + 4.0
        est = sample_expr(expr, 0.0, 10_000)
        assert est.mean == pytest.approx(4.0, abs=1e-15)
        assert est.variance == pytest.approx(0.0, abs=1e-15)

    def test_standard_error_scaling(self):
        expr = squeezed_y()
        ses = []
        for n in (10_000, 100_000, 1_000_000):
            est = sample_expr(expr, 0.5, n, RngConfig(seed=3))
            ses.append(est.se_var)
        for lo, hi in zip(ses[1:], ses[:-1]):
            assert hi / lo == pytest.approx(math.sqrt(10.0), rel=0.2)

    def test_minimum_sample_count(self):
        with pytest.raises(ValueError, match="1000"):
            sample_expr(squeezed_y(), 1.0, 999)

    def test_negative_r(self):
        with pytest.raises(ValueError):
            sample_expr(squeezed_y(), -1.0, 10_000)

    def test_stream_merge_consistency(self):
        # Welford/Chan merge must agree with a single-pass reference
        expr = squeezed_y()
        est = sample_expr(expr, 1.0, 30_000, RngConfig(seed=9, stream_count=7))
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


def blocked_reference(expr, r, n, rng):
    """The samples ``sample_exprs`` should draw, in one flat array.

    Each substream draws every seed, in (id, axis) order, block by block.
    """
    keys = sorted(expr.terms, key=lambda k: (k[0], k[1].value))
    seeds = [expr.registry.seed(*key) for key in keys]
    streams = min(rng.stream_count, n)
    base, extra = divmod(n, streams)
    parts = []
    for i in range(streams):
        size = base + (1 if i < extra else 0)
        gen = np.random.default_rng(np.random.SeedSequence([rng.seed, i]))
        for start in range(0, size, BLOCK):
            m = min(BLOCK, size - start)
            values = np.full(m, expr.constant)
            for key, seed in zip(keys, seeds):
                values += expr.terms[key] * gen.normal(
                    seed.mean, math.sqrt(seed.variance_at(r)), m)
            parts.append(values)
    return np.concatenate(parts)


class TestJointSampling:
    def test_permutation_and_duplicates_are_bitwise_neutral(self):
        _, quads = cx_quadratures()
        rng = RngConfig(seed=13)
        base = sample_exprs(quads, 1.0, 20_000, rng)
        order = [3, 1, 0, 2, 0, 3]
        shuffled = sample_exprs([quads[i] for i in order], 1.0, 20_000, rng)
        assert shuffled == [base[i] for i in order]

    def test_single_expression_wrapper(self):
        _, quads = cx_quadratures()
        rng = RngConfig(seed=14)
        joint = sample_exprs([quads[0]], 1.0, 5_000, rng)
        assert [sample_expr(quads[0], 1.0, 5_000, rng)] == joint

    def test_empty_call(self):
        assert sample_exprs([], 1.0, 1_000) == []

    @pytest.mark.parametrize("n", [16 * BLOCK + 3, 1000])
    def test_block_seams(self, n):
        reg = SeedRegistry()
        mode = reg.input_mode(1.5, -0.5, 2.0, 0.5, label="in")
        pair = reg.squeezed_mode(SeedKind.AMPLITUDE_QUIET, label="s")
        expr = 0.75 * mode.y - 1.25 * pair.x + mode.x + 3.0
        rng = RngConfig(seed=15)
        est = sample_exprs([expr], 0.8, n, rng)[0]
        ref = blocked_reference(expr, 0.8, n, rng)
        assert est.n == n == ref.size
        assert est.mean == pytest.approx(float(ref.mean()), rel=1e-12)
        assert est.variance == pytest.approx(float(ref.var(ddof=1)), rel=1e-12)

    def test_mixed_registries_rejected(self):
        with pytest.raises(ValueError, match="registry"):
            sample_exprs([squeezed_y("a"), squeezed_y("b")], 1.0, 10_000)

    def test_cx_outputs_certify_jointly(self):
        result, quads = cx_quadratures()
        ests = sample_exprs(quads, 1.0, 200_000, RngConfig(seed=16))
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
                sample_exprs(quads, 1.0, n, RngConfig(seed=17))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(200_000)  # warm any one-off allocations
        small, large = peak(200_000), peak(2_000_000)
        assert large <= small + 64 * 1024


def reference_sample_exprs(exprs, r, n, rng):
    """The single-threaded loop: all seeds drawn into one matrix per block.

    Substreams run one after another, and each block's moments are merged
    as soon as the block is summed.
    """
    registry = exprs[0].registry

    def order(key):
        return key[0], key[1].value

    keys = sorted({key for expr in exprs for key in expr.terms}, key=order)
    laws = [(seed.mean, math.sqrt(seed.variance_at(r)))
            for seed in (registry.seed(*key) for key in keys)]
    row = {key: j for j, key in enumerate(keys)}
    plans = [(expr.constant, [(row[key], expr.terms[key]) for key in sorted(expr.terms, key=order)])
             for expr in exprs]
    draws = np.empty((len(keys), BLOCK))
    values = np.empty(BLOCK)
    work = np.empty(BLOCK)
    moments = [(0.0, 0.0)] * len(exprs)
    total_n = 0
    streams = min(rng.stream_count, n)
    base, extra = divmod(n, streams)
    for i in range(streams):
        size = base + (1 if i < extra else 0)
        gen = np.random.default_rng(np.random.SeedSequence([rng.seed, i]))
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
    return reference_sample_exprs(mixed_exprs(), 0.7, n, RngConfig(seed=7, stream_count=stream_count))


class TestWorkers:
    @pytest.mark.parametrize("n", [1000, 16 * BLOCK + 3, 250_001])
    @pytest.mark.parametrize("stream_count", [1, 3, 7, 16, 40])
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_bitwise_equal_to_single_threaded_loop(self, monkeypatch, workers, stream_count, n):
        monkeypatch.setattr(oracle, "_cpus", lambda: workers)
        got = sample_exprs(mixed_exprs(), 0.7, n, RngConfig(seed=7, stream_count=stream_count))
        assert bits(got) == bits(reference_for(stream_count, n))

    def test_bitwise_equal_under_fast_thread_switching(self, monkeypatch):
        # more workers than CPUs, switching threads as often as the interpreter allows
        monkeypatch.setattr(oracle, "_cpus", lambda: 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = sample_exprs(mixed_exprs(), 0.7, 250_001, RngConfig(seed=7, stream_count=40))
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
        monkeypatch.setattr(oracle, "default_rng",
                            lambda seq: Broken() if seq.entropy[1] == 1 else real(seq))
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="substream 1 failed"):
            sample_exprs(mixed_exprs(), 0.7, 50_000, RngConfig(seed=7, stream_count=5))
        assert threading.active_count() == before

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        def refuse(self):
            raise AssertionError("thread started")

        monkeypatch.setattr(oracle, "_cpus", lambda: 1)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        got = sample_exprs(mixed_exprs(), 0.7, 1000, RngConfig(seed=7, stream_count=16))
        assert bits(got) == bits(reference_for(16, 1000))

    def test_cpus_counts_usable_cpus(self):
        assert 1 <= oracle._cpus() <= (os.cpu_count() or 1)


class TestRngConfig:
    def test_seed_bounds(self):
        with pytest.raises(ValueError):
            RngConfig(seed=-1)
        with pytest.raises(ValueError):
            RngConfig(seed=2**64)
        with pytest.raises(ValueError):
            RngConfig(stream_count=0)


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
        est = sample_expr(expr, 1.0, 100_000, RngConfig(seed=21))
        good = certify(math.exp(-2.0), est, 4.0, "variance")
        assert good.passed
        assert good.se == est.se_var
        bad = certify(math.exp(-2.0) * 2.0, est, 4.0, "variance")
        assert not bad.passed
        assert bad.delta > 4.0 * bad.se

    def test_statistic_selector(self):
        expr = squeezed_y()
        est = sample_expr(expr, 1.0, 100_000, RngConfig(seed=22))
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
            est = sample_expr(expr, 1.0, 200_000, RngConfig(seed=100 + i))
            assert certify(analytic, est, 5.0, stat).passed
