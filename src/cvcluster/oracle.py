"""Monte-Carlo cross-checks for the analytic results.

:func:`sample_exprs` draws every seed of a set of expressions once from its
Gaussian law and evaluates each expression sample by sample, giving
estimates with standard errors; :func:`certify` compares an analytic moment
with such an estimate.

Sampling is split into :data:`STREAMS` counter-keyed SFC64 substreams and
blocks of :data:`BLOCK` samples, and each block draws one standard normal
per seed in ``(id, axis)`` order. Each seed's law (its mean and standard
deviation at r) is folded into the coefficients and constants once per
call, so the draws need no per-seed affine pass. The blocks hold the
zero-mean noise only, and each expression's constant joins its mean after
the block moments are merged, so a large mean neither rounds away the
noise's low bits nor overflows a squared deviation. Estimates depend
only on the integer seed, :data:`STREAMS`, :data:`BLOCK`, the seeds' names
and the bit generator, never on how the work is scheduled. The substreams
run on one worker thread per CPU the process may use (numpy releases the
interpreter lock while it draws and sums), and the estimates are bit for
bit the same on any number of CPUs.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence  # loaded here, not in a worker

from .algebra import QuadExpr, SeedVar, _check_r
from .io import _cpus

_MAX_SEED = 2**64

#: Samples drawn per seed and substream at a time. Estimates depend on it.
BLOCK = 8192

#: Counter-keyed substreams a call is split into. Estimates depend on it.
STREAMS = 16


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


def _seed_order(seed: SeedVar) -> tuple[str, str]:
    return seed.id, seed.axis.value


def sample_exprs(
    exprs: Sequence[QuadExpr],
    r: float,
    n: int,
    seed: int = 0,
) -> list[SampleEstimate]:
    """Estimate several expressions' means and variances from n joint samples.

    Every seed of the expressions is drawn once per sample and shared by all
    of them. The sample is split into :data:`STREAMS` substreams; substream
    i draws standard normals z from ``Generator(SFC64(SeedSequence([seed,
    i])))`` in blocks of :data:`BLOCK` samples, one per seed in ``(id,
    axis)`` order, so two seeds of one call must not share a name and axis.
    A seed with mean mu and standard deviation sd at r enters each
    expression as ``(coeff * sd) * z``, with ``coeff * mu`` added to the
    expression's constant; both are computed from ``seed.mean``,
    ``seed.variance_at(r)`` and ``expr.terms`` once per call. Each
    expression's zero-mean noise is summed elementwise term by term, the
    block means and M2 are merged in block order (Chan, Golub and LeVeque,
    1979), and the constant is added to the merged mean last. An
    estimate therefore depends only on ``seed``, :data:`STREAMS`,
    :data:`BLOCK`, the names of the seeds in the call and the bit generator,
    never on scheduling, the BLAS build, or the order or repetition of
    ``exprs``. The variance standard error uses the normal-theory formula
    ``var * sqrt(2/(n-1))``.

    The substreams are shared out over min(substreams, CPUs the process may
    use) workers; the calling thread is one of them, so on one CPU no thread
    starts. The estimates do not depend on the worker count. Each worker
    holds fixed buffers of ``len(exprs) + 2`` rows of :data:`BLOCK` floats,
    and the block moments take 16 bytes per expression per block.
    """
    if n < 1000:
        raise ValueError("need at least 1000 samples")
    if not 0 <= seed < _MAX_SEED:
        raise ValueError("seed must be a 64-bit unsigned integer")
    _check_r(r)
    if not exprs:
        return []
    seeds = sorted({s for expr in exprs for s in expr.terms}, key=_seed_order)
    for a, b in zip(seeds, seeds[1:]):
        if _seed_order(a) == _seed_order(b):
            raise ValueError(f"two seeds named {a.id!r}/{a.axis.value} in one draw")
    # Each seed is mean + sd·z with z standard normal: fold sd into the
    # coefficients and the means into the constants, in draw order.
    constants = [expr.constant for expr in exprs]
    uses = []  # per seed, the (expression, coefficient × sd) pairs it feeds
    for s in seeds:
        sd = math.sqrt(s.variance_at(r))
        terms = []
        for k, expr in enumerate(exprs):
            if s in expr.terms:
                coeff = expr.terms[s]
                constants[k] += coeff * s.mean
                terms.append((k, coeff * sd))
        uses.append(terms)

    streams = []  # (substream, size, row of its first block)
    sizes = []  # block sizes in block order
    for i, size in enumerate(_chunk_sizes(n, STREAMS)):
        streams.append((i, size, len(sizes)))
        sizes.extend(min(BLOCK, size - start) for start in range(0, size, BLOCK))
    stats = np.empty((len(sizes), len(exprs), 2))  # block mean and M2

    def draw_streams(part: list[tuple[int, int, int]], buffers: np.ndarray) -> None:
        draw, work, values = buffers[0], buffers[1], buffers[2:]
        for i, size, first in part:
            gen = Generator(SFC64(SeedSequence([seed, i])))
            for g, start in enumerate(range(0, size, BLOCK), first):
                m = min(BLOCK, size - start)
                row, tmp, blocks = draw[:m], work[:m], values[:, :m]
                blocks.fill(0.0)
                for terms in uses:
                    gen.standard_normal(out=row)
                    for k, coeff in terms:
                        np.multiply(row, coeff, out=tmp)
                        blocks[k] += tmp
                for k, block in enumerate(blocks):
                    block_mean = float(block.mean())
                    np.subtract(block, block_mean, out=tmp)
                    tmp *= tmp
                    stats[g, k] = block_mean, float(tmp.sum())

    workers = min(len(streams), _cpus())
    # Allocated here, like numpy.random at import: memory that a worker
    # thread allocates lands in an allocator arena of its own and is kept.
    buffers = np.empty((workers, len(exprs) + 2, BLOCK))
    errors: list[BaseException] = []

    def worker(w: int) -> None:
        try:
            draw_streams(streams[w::workers], buffers[w])
        except BaseException as exc:  # raised again once every worker is done
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    worker(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]

    moments = [(0.0, 0.0)] * len(exprs)
    total_n = 0
    for m, block_stats in zip(sizes, stats):
        merged = total_n + m
        for k, (block_mean, block_m2) in enumerate(block_stats.tolist()):
            mean, m2 = moments[k]
            delta = block_mean - mean
            moments[k] = (mean + delta * m / merged,
                          m2 + block_m2 + delta * delta * total_n * m / merged)
        total_n = merged

    estimates = []
    for (mean, m2), constant in zip(moments, constants):
        variance = m2 / (total_n - 1)
        estimates.append(SampleEstimate(
            mean=mean + constant,
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
    seed: int = 0,
) -> SampleEstimate:
    """Estimate one expression's mean and variance; see :func:`sample_exprs`."""
    return sample_exprs((expr,), r, n, seed)[0]


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
