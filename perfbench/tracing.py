"""Per-layer spans and counts for cvcluster, recorded from outside the package.

:class:`Tracer` wraps the public functions of each ``src/cvcluster`` module.
Names are bound by ``from ... import``, so a function is replaced in every
``cvcluster`` module namespace that holds it, not only where it is defined.
Each call records a span (name, start, end, parent span, iteration id) in
flat in-memory arrays; a few calls also add to counters. Spans are turned
into per-layer metrics, and written out, after the run.

A span's self time is its duration minus the time its child spans cover.
``QuadExpr`` arithmetic is too fine-grained for spans: constructions are
counted, and their time falls to the calling span.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from array import array
from pathlib import Path
from typing import Callable

import numpy as np

LAYERS = ("cli", "io", "analysis", "oracle", "cluster", "algebra", "gates")

#: layer -> (defining module, attribute) of every traced function. Class
#: methods are given as ``Class.method``.
TRACED = {
    "cli": [("cli", "main"), ("cli", "build_parser")],
    "io": [("io", "write_dataset"), ("io", "dataset_to_csv"), ("io", "dataset_to_json")],
    "analysis": [("analysis", name) for name in (
        "fig3_dataset", "fig4_dataset", "fig5_dataset", "fig6_dataset",
        "fig8_dataset", "wigner")],
    "oracle": [("oracle", "sample_expr"), ("oracle", "certify")],
    "cluster": [("cluster", name) for name in (
        "build_cluster", "nullifier_variances", "inseparability_check",
        "inseparability_threshold")],
    "algebra": [("algebra", "beamsplitter"), ("algebra", "QuadExpr.mean"),
                ("algebra", "QuadExpr.variance"), ("algebra", "QuadExpr.covariance")],
    "gates": [("gates", name) for name in (
        "displacement_gate", "squeezer_gate", "controlled_x_gate",
        "optimal_gain", "displacement_output_variance",
        "optimal_displacement_variance", "min_distinguishable_displacement",
        "fidelity_from_variances", "identity_fidelity",
        "rotated_output_variance", "optimal_detection_angle",
        "squeezing_threshold", "cx_output_moments")],
}

GATE_FUNCTIONS = ("gates.displacement_gate", "gates.squeezer_gate", "gates.controlled_x_gate")
CLOSED_FORMS = tuple(f"gates.{name}" for _, name in TRACED["gates"][3:])
FIG_FUNCTIONS = tuple(f"analysis.{name}" for _, name in TRACED["analysis"][:5])
MOMENTS = ("algebra.mean", "algebra.variance", "algebra.covariance")
ENCODERS = ("io.dataset_to_csv", "io.dataset_to_json")
INSEPARABILITY = ("cluster.inseparability_check", "cluster.inseparability_threshold")

#: Counters that are not span counts.
COUNTERS = ("io.bytes_written", "io.floats_encoded", "oracle.draws",
            "oracle.certify.failed", "analysis.wigner.points", "algebra.exprs_built")


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_mb_per_s"):
        return "MB/s"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_share", "_frac")):
        return "ratio"
    return "count"


def _span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.rpartition('.')[2]}"


class Tracer:
    """Span recorder that patches cvcluster while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_iter = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.iteration = -1
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.iteration_counts: dict[int, dict[str, int]] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = []
        self._prepare()

    # recording -----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_iter.append(self.iteration)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        open_, close, counts = self._open, self._close, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_(name_id)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(counts, args, kwargs, result)
                return result
            finally:
                close(index)

        return traced

    # patching ------------------------------------------------------------

    def _prepare(self) -> None:
        import cvcluster
        from cvcluster import algebra, oracle

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cvcluster" or name.startswith("cvcluster.")]
        counters = _counters(oracle)
        for layer, targets in TRACED.items():
            for module_name, attr in targets:
                module = getattr(cvcluster, module_name)
                name = _span_name(layer, attr)
                if "." in attr:
                    owner_name, _, method = attr.partition(".")
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[method]
                    self._wrappers.append(
                        (owner, method, self._wrap(name, original, counters.get(name))))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, counters.get(name))
                for mod in modules:
                    for key, value in vars(mod).items():
                        if value is original:
                            self._wrappers.append((mod, key, wrapper))
        init = algebra.QuadExpr.__init__

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            self.counts["algebra.exprs_built"] += 1
            init(obj, *args, **kwargs)

        self._wrappers.append((algebra.QuadExpr, "__init__", counted_init))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, key, wrapper in self._wrappers:
            current = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
            self._patches.append((owner, key, current))
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def begin_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        for key in self.counts:
            self.counts[key] = 0

    def end_iteration(self) -> None:
        self.iteration_counts[self.iteration] = dict(self.counts)

    # output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "iteration": np.frombuffer(self.span_iter, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def write(self, path: Path) -> None:
        """Save every span plus the name table as a compressed ``.npz``."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def metrics(self) -> tuple[dict[str, float], dict[str, bool]]:
        """Per-iteration layer metrics, as medians over traced iterations.

        Returns the metrics and, for each count, whether it was identical
        in every traced iteration.
        """
        per_iter = iteration_metrics(self.names, self.arrays(), self.iteration_counts)
        if not per_iter:
            raise RuntimeError("no traced iterations")
        merged: dict[str, float] = {}
        stable: dict[str, bool] = {}
        for key in per_iter[0]:
            values = [m[key] for m in per_iter]
            merged[key] = statistics.median(values)
            if isinstance(values[0], int):
                stable[key] = len(set(values)) == 1
        return merged, stable


def _counters(oracle_mod) -> dict[str, Callable]:
    """Counting hooks, run inside the span of the call they describe."""
    sample_sig = inspect.signature(oracle_mod.sample_expr)

    def write_dataset(counts, args, kwargs, result):
        counts["io.bytes_written"] += os.path.getsize(result)

    def encode(counts, args, kwargs, result):
        dataset = args[0] if args else kwargs["dataset"]
        counts["io.floats_encoded"] += int(dataset.values.size)

    def sample_expr(counts, args, kwargs, result):
        bound = sample_sig.bind(*args, **kwargs)
        counts["oracle.draws"] += result.n * len(bound.arguments["expr"].terms)

    def certify(counts, args, kwargs, result):
        counts["oracle.certify.failed"] += not result.passed

    def wigner(counts, args, kwargs, result):
        counts["analysis.wigner.points"] += int(np.size(result))

    return {
        "io.write_dataset": write_dataset,
        "io.dataset_to_csv": encode,
        "io.dataset_to_json": encode,
        "oracle.sample_expr": sample_expr,
        "oracle.certify": certify,
        "analysis.wigner": wigner,
    }


def _covered(names: np.ndarray, parent: np.ndarray, group_ids: np.ndarray) -> np.ndarray:
    """Mask of spans in the group with no ancestor in the group."""
    in_group = np.isin(names, group_ids)
    has_parent = parent >= 0
    safe_parent = np.where(has_parent, parent, 0)
    below = np.zeros(names.size, dtype=bool)
    while True:
        nxt = has_parent & (in_group[safe_parent] | below[safe_parent])
        if np.array_equal(nxt, below):
            break
        below = nxt
    return in_group & ~below


def iteration_metrics(names: list[str], spans: dict[str, np.ndarray],
                      counters: dict[int, dict[str, int]]) -> list[dict[str, float]]:
    """Layer metrics of each traced iteration, from raw spans and counters."""
    ids = {name: i for i, name in enumerate(names)}
    name = spans["name"]
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    self_time = dur - child

    def group(keys):
        return np.array([ids[k] for k in keys if k in ids], dtype=np.int32)

    cover = {
        key: _covered(name, parent, group(members))
        for key, members in (
            ("encode", ENCODERS), ("fig", FIG_FUNCTIONS), ("wigner", ("analysis.wigner",)),
            ("sample", ("oracle.sample_expr",)), ("parser", ("cli.build_parser",)),
            ("cluster", ("cluster.build_cluster",)), ("insep", INSEPARABILITY),
            ("bs", ("algebra.beamsplitter",)), ("moment", MOMENTS),
            ("closed", CLOSED_FORMS),
        )
    }
    layer_of = np.array([n.partition(".")[0] for n in names] or [""])

    out = []
    for it in sorted(counters):
        mask = spans["iteration"] == it
        nm, d, st = name[mask], dur[mask], self_time[mask]
        cov = {key: c[mask] for key, c in cover.items()}

        def calls(*keys):
            return int(np.isin(nm, group(keys)).sum())

        def covered(key):
            return float(d[cov[key]].sum())

        def self_of(*keys):
            return float(st[np.isin(nm, group(keys))].sum())

        c = counters[it]
        root = float(d[parent[mask] < 0].sum())
        encode_s = covered("encode")
        sample_s = covered("sample")
        certs = calls("oracle.certify")
        m: dict[str, float] = {
            "io.write_dataset.calls": calls("io.write_dataset"),
            "io.encode_s": encode_s,
            "io.write_s": self_of("io.write_dataset"),
            "io.bytes_written": c["io.bytes_written"],
            "io.floats_encoded": c["io.floats_encoded"],
            "io.encode_mb_per_s": c["io.bytes_written"] / encode_s / 1e6 if encode_s else 0.0,
            "analysis.fig_build_s": covered("fig"),
            "analysis.wigner.calls": calls("analysis.wigner"),
            "analysis.wigner.points": c["analysis.wigner.points"],
            "analysis.wigner_s": covered("wigner"),
            "oracle.sample_expr.calls": calls("oracle.sample_expr"),
            "oracle.sample_expr_s": sample_s,
            "oracle.draws": c["oracle.draws"],
            "oracle.draws_per_s": c["oracle.draws"] / sample_s if sample_s else 0.0,
            "oracle.draws_per_stat": c["oracle.draws"] / certs if certs else 0.0,
            "oracle.certify.calls": certs,
            "oracle.certify.failed": c["oracle.certify.failed"],
            "cli.main.calls": calls("cli.main"),
            "cli.build_parser_s": covered("parser"),
            "cli.self_s": self_of("cli.main"),
            "cluster.build_cluster.calls": calls("cluster.build_cluster"),
            "cluster.build_cluster_s": covered("cluster"),
            "cluster.nullifier_variances.calls": calls("cluster.nullifier_variances"),
            "cluster.inseparability_s": covered("insep"),
            "algebra.beamsplitter.calls": calls("algebra.beamsplitter"),
            "algebra.beamsplitter_s": covered("bs"),
            "algebra.moment.calls": calls(*MOMENTS),
            "algebra.moment_s": covered("moment"),
            "algebra.exprs_built": c["algebra.exprs_built"],
            "gates.build.calls": calls(*GATE_FUNCTIONS),
            "gates.build_self_s": self_of(*GATE_FUNCTIONS),
            "gates.closed_form.calls": calls(*CLOSED_FORMS),
            "gates.closed_form_s": covered("closed"),
            "trace.spans": int(mask.sum()),
            "trace.iteration_s": root,
        }
        for layer in LAYERS:
            layer_self = float(st[layer_of[nm] == layer].sum())
            m[f"{layer}.self_share"] = layer_self / root if root else 0.0
        out.append(m)
    return out
