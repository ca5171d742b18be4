"""Monte-Carlo cross-checks for the analytic results.

:func:`sample_exprs` draws every seed of a set of expressions once from its
Gaussian law and evaluates each expression sample by sample, giving
estimates with standard errors; :func:`certify` compares an analytic moment
with such an estimate.

Sampling is split into counter-keyed substreams and fixed-size blocks, so
estimates depend only on (seed, stream layout, block size), never on how the
work is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import Key, QuadExpr, _check_r

_MAX_SEED = 2**64

#: Samples drawn per seed and substream at a time. Estimates depend on it.
BLOCK = 8192


@dataclass(frozen=True)
class RngConfig:
    """Deterministic sampling layout: base seed plus substream count."""

    seed: int = 0
    stream_count: int = 16

    def __post_init__(self) -> None:
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.stream_count < 1:
            raise ValueError("stream_count must be >= 1")


@dataclass(frozen=True)
class SampleEstimate:
    """Monte-Carlo estimate of one expression's mean and variance."""

    mean: float
    variance: float
    n: int
    se_mean: float
    se_var: float


def _chunk_sizes(n: int, streams: int) -> list[int]:
    streams = min(streams, n)
    base, extra = divmod(n, streams)
    return [base + (1 if i < extra else 0) for i in range(streams)]


def _seed_order(key: Key) -> tuple[str, str]:
    return key[0], key[1].value


def sample_exprs(
    exprs: Sequence[QuadExpr],
    r: float,
    n: int,
    rng: RngConfig = RngConfig(),
) -> list[SampleEstimate]:
    """Estimate several expressions' means and variances from n joint samples.

    Every seed of the expressions, which must share one registry, is drawn
    once per sample and shared by all of them. Substream i draws from
    ``default_rng(SeedSequence([seed, i]))`` in blocks of :data:`BLOCK`
    samples, each seed in ``(id, axis)`` order, into buffers whose size does
    not depend on n. Each expression is summed elementwise term by term, and
    the block means and M2 are merged in block order (Chan, Golub and
    LeVeque, 1979). An estimate therefore depends only on (seed,
    stream_count), :data:`BLOCK` and the set of seeds in the call, never on
    scheduling, the BLAS build, or the order or repetition of ``exprs``. The
    variance standard error uses the normal-theory formula
    ``var * sqrt(2/(n-1))``.
    """
    if n < 1000:
        raise ValueError("need at least 1000 samples")
    _check_r(r)
    if not exprs:
        return []
    registry = exprs[0].registry
    if any(expr.registry is not registry for expr in exprs):
        raise ValueError("seed registry mismatch")
    keys = sorted({key for expr in exprs for key in expr.terms}, key=_seed_order)
    laws = [(seed.mean, math.sqrt(seed.variance_at(r)))
            for seed in (registry.seed(*key) for key in keys)]
    row = {key: j for j, key in enumerate(keys)}
    plans = [
        (expr.constant,
         [(row[key], expr.terms[key]) for key in sorted(expr.terms, key=_seed_order)])
        for expr in exprs
    ]

    draws = np.empty((len(keys), BLOCK))
    values = np.empty(BLOCK)
    work = np.empty(BLOCK)
    moments = [(0.0, 0.0)] * len(exprs)
    total_n = 0
    for i, size in enumerate(_chunk_sizes(n, rng.stream_count)):
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


def sample_expr(
    expr: QuadExpr,
    r: float,
    n: int,
    rng: RngConfig = RngConfig(),
) -> SampleEstimate:
    """Estimate one expression's mean and variance; see :func:`sample_exprs`."""
    return sample_exprs((expr,), r, n, rng)[0]


# --------------------------------------------------------------------------
# certification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CertifyResult:
    """Outcome of comparing an analytic value against a sampled estimate."""

    passed: bool
    analytic: float
    estimate: float
    se: float
    k_sigma: float
    statistic: str

    @property
    def delta(self) -> float:
        return abs(self.analytic - self.estimate)


def certify(
    analytic: float,
    estimate: SampleEstimate,
    k_sigma: float,
    statistic: str,
) -> CertifyResult:
    """Check that an analytic moment sits within k standard errors.

    ``statistic`` selects which moment of the estimate is compared:
    ``"mean"`` or ``"variance"``.
    """
    if k_sigma <= 0:
        raise ValueError("k_sigma must be > 0")
    if statistic == "mean":
        value, se = estimate.mean, estimate.se_mean
    elif statistic == "variance":
        value, se = estimate.variance, estimate.se_var
    else:
        raise ValueError("statistic must be 'mean' or 'variance'")
    return CertifyResult(
        passed=abs(analytic - value) <= k_sigma * se,
        analytic=analytic,
        estimate=value,
        se=se,
        k_sigma=k_sigma,
        statistic=statistic,
    )
