"""Command-line interface.

Subcommands: ``prepare`` (cluster certification), ``displace`` / ``squeeze``
/ ``cx`` (the three gates, with optional Monte-Carlo certification), and
``figures`` (emit the reference datasets).

Every option is declared once, in :data:`FLAGS`: the parser, the config-file
keys and types, the resolved defaults and the generic value checks all read
it. The three gates share one runner, :func:`_run_gate`, which certifies the
output-mode statistics, prints the report and writes the ``--out`` row.

The parser is built once per process. numpy, :mod:`cvcluster.analysis` and
:mod:`cvcluster.oracle` are imported only by the paths that use them
(``--certify``, ``--out``, ``--scan-phi`` and ``figures``), so ``prepare``
and a plain gate report never load numpy.

Exit codes: 0 success, 1 physics predicate unmet, 2 invalid input,
3 certification failure, 4 I/O failure. Every run is deterministic given
its resolved configuration, which is echoed as a JSON header line.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from .algebra import QuadExpr, rotate_quadrature
from .cluster import (
    INSEPARABILITY_BOUND,
    build_cluster,
    inseparability_check,
    inseparability_threshold,
    nullifier_variances,
)
from .gates import (
    CRITERION_SIGMAS,
    CxParams,
    DisplacementParams,
    GateResult,
    SqueezerParams,
    controlled_x_gate,
    displacement_gate,
    identity_fidelity,
    min_distinguishable_displacement,
    optimal_detection_angle,
    rotated_output_variance,
    rotated_output_variances,
    squeezer_gate,
    squeezing_threshold,
)
from .io import CurveDataset, _writing_ahead, format_float, write_dataset

EXIT_OK = 0
EXIT_UNMET = 1
EXIT_USAGE = 2
EXIT_CERTIFY = 3
EXIT_IO = 4

ENV_SEED = "CVCLUSTER_SEED"
SEED_FALLBACK = 0
CERTIFY_K = 4.0


class UsageError(Exception):
    """Invalid flag, config value, or config file."""


# --------------------------------------------------------------------------
# the flag table
# --------------------------------------------------------------------------

COMMANDS = {
    "prepare": "build the cluster and certify it",
    "displace": "run the displacement gate",
    "squeeze": "run the squeezing gate",
    "cx": "run the controlled-X gate",
    "figures": "emit the reference datasets",
}
GATES = ("displace", "squeeze", "cx")


@dataclass(frozen=True)
class Flag:
    """One option: ``--name`` on the command line, ``name`` in a config file.

    ``kind`` is the value type (``bool`` for a switch). ``rule`` is a
    predicate on a set value plus the message printed after the option when
    it fails; ``show_default`` appends the default to the help text.
    """

    name: str
    kind: type
    default: object
    help: str
    commands: tuple[str, ...]
    required: bool = False
    choices: tuple = ()
    rule: tuple[Callable[[object], bool], str] | None = None
    show_default: bool = False

    @property
    def option(self) -> str:
        return "--" + self.name.replace("_", "-")


_POSITIVE = (lambda v: v > 0, "must be > 0")
_GRID = (lambda v: v >= 2, "must be an integer >= 2")

#: Every option, in help order. A name may appear twice for disjoint
#: commands when its meaning differs (``--grid``).
FLAGS = (
    Flag("r", float, None, "squeezing parameter", ("prepare", *GATES), required=True,
         rule=(lambda v: v >= 0, "must be >= 0")),
    Flag("s0", float, 0.0, "amplitude displacement", ("displace",)),
    Flag("s1", float, 0.0, "phase displacement", ("displace",)),
    Flag("g2", float, None, "residual gain on detector 3", ("displace",)),
    Flag("g3", float, None, "residual gain on detector 4", ("displace",)),
    Flag("optimal_gain", bool, False, "variance-minimizing residual gains", ("displace",)),
    Flag("unity_gain", bool, False, "residual gains g2=g3=1", ("displace",)),
    Flag("criterion", int, 99, "distinguishability criterion", ("displace",),
         choices=tuple(CRITERION_SIGMAS), show_default=True),
    Flag("theta", float, None, "detection angle", ("squeeze",)),
    Flag("tan_theta", float, None, "detection angle given as its tangent", ("squeeze",)),
    Flag("phi", float, None, "report the output variance at this quadrature angle",
         ("squeeze",)),
    Flag("scan_phi", bool, False, "scan the rotated output variance over [0, pi]",
         ("squeeze",)),
    Flag("grid", int, 2001, "number of scan points", ("squeeze",), rule=_GRID,
         show_default=True),
    Flag("sc", float, 0.0, "control amplitude mean", ("cx",)),
    Flag("st", float, 0.0, "target amplitude mean", ("cx",)),
    Flag("grid", int, 201, "Wigner grid points per axis", ("figures",), rule=_GRID,
         show_default=True),
    Flag("span", float, 5.0, "Wigner grid half-width in standard deviations",
         ("figures",), rule=_POSITIVE, show_default=True),
    Flag("coherent", bool, False, "coherent input (unit variances)", GATES),
    Flag("vx", float, 1.0, "input amplitude variance", GATES, rule=_POSITIVE),
    Flag("vy", float, 1.0, "input phase variance", GATES, rule=_POSITIVE),
    Flag("certify", bool, False, "cross-check the analytic moments by sampling", GATES),
    Flag("samples", int, 1_000_000, "Monte-Carlo sample count", GATES,
         rule=(lambda v: v >= 1000, "must be >= 1000"), show_default=True),
    Flag("seed", int, None, f"rng seed (default ${ENV_SEED} or {SEED_FALLBACK})", GATES,
         rule=(lambda v: 0 <= v < 2**64, "must be an unsigned 64-bit integer")),
    Flag("out", str, None, "write results to this path", (*GATES, "figures"),
         rule=(lambda v: v != "", "must not be empty")),
    Flag("format", str, "csv", "serialization format", tuple(COMMANDS),
         choices=("csv", "json"), show_default=True),
)

_COMMAND_FLAGS = {
    command: tuple(flag for flag in FLAGS if command in flag.commands)
    for command in COMMANDS
}

_TYPE_NAMES = {float: "a number", int: "an integer", bool: "true or false", str: "a string"}


def _fmt_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt_value(v) for v in value) + "]"
    return str(value)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every command, built once per process."""
    parser = argparse.ArgumentParser(
        prog="cvcluster",
        description="Gaussian logic gates on a four-mode optical cluster state",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in COMMANDS.items():
        sp = sub.add_parser(command, help=summary)
        for flag in _COMMAND_FLAGS[command]:
            text = flag.help
            if flag.show_default:
                text += f" (default {_fmt_value(flag.default)})"
            if flag.kind is bool:
                sp.add_argument(flag.option, action="store_true", default=None, help=text)
            else:
                sp.add_argument(flag.option, type=flag.kind, default=None, help=text,
                                choices=flag.choices or None)
        sp.add_argument("--config", default=None,
                        help="JSON config file; flags override its values")
    return parser


# --------------------------------------------------------------------------
# config resolution
# --------------------------------------------------------------------------


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    return {str(key).replace("-", "_"): value for key, value in data.items()}


def _typed(flag: Flag, value: object) -> object:
    """A config-file value, if it has its flag's JSON type (or is an allowed null)."""
    if value is None and flag.default is None:
        return None
    if isinstance(value, bool):
        ok = flag.kind is bool
    elif flag.kind is float:
        ok = isinstance(value, (int, float))
    else:
        ok = isinstance(value, flag.kind)
    if not ok:
        kind = _TYPE_NAMES[flag.kind] + (" or null" if flag.default is None else "")
        raise UsageError(f"config key {flag.name!r} must be {kind}")
    return float(value) if flag.kind is float else value


def _env_seed() -> int:
    raw = os.environ.get(ENV_SEED, str(SEED_FALLBACK))
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"${ENV_SEED} must be an integer, got {raw!r}") from None


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge the table defaults, the config file and explicit flags, then check.

    Values from argv are typed by argparse and config-file values by
    :func:`_typed`; every set value must then pass its flag's generic checks.
    """
    flags = _COMMAND_FLAGS[args.command]
    cfg = {flag.name: flag.default for flag in flags}
    file_cfg = _load_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_cfg) - set(cfg))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    for flag in flags:
        if flag.name in file_cfg:
            cfg[flag.name] = _typed(flag, file_cfg[flag.name])
    explicit = {key for key in cfg if getattr(args, key, None) is not None}
    cfg.update({key: getattr(args, key) for key in explicit})

    if cfg.get("coherent"):
        if (explicit | set(file_cfg)) & {"vx", "vy"}:
            raise UsageError("choose either --coherent or explicit --vx/--vy")
        cfg["vx"] = cfg["vy"] = 1.0
    if "seed" in cfg and cfg["seed"] is None:
        cfg["seed"] = _env_seed()
    for flag in flags:
        value = cfg[flag.name]
        if value is None:
            if flag.required:
                raise UsageError(f"missing required {flag.option}")
        elif flag.kind is float and not math.isfinite(value):
            raise UsageError(f"{flag.option} must be finite")
        elif flag.choices and value not in flag.choices:
            allowed = " or ".join(str(choice) for choice in flag.choices)
            raise UsageError(f"{flag.option} must be {allowed}")
        elif flag.rule and not flag.rule[0](value):
            raise UsageError(f"{flag.option} {flag.rule[1]}")
    return cfg


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------


def _emit_report(command: str, cfg: dict, results: dict) -> dict:
    """Print the config header and results; return the resolved view."""
    resolved = {"command": command, **cfg}
    if cfg["format"] == "json":
        print(json.dumps({"config": resolved, "results": results}, sort_keys=True))
        return resolved
    print("# " + json.dumps(resolved, sort_keys=True))
    for key, value in results.items():
        if key == "certifications":
            for cert in value:
                status = "PASS" if cert["passed"] else "FAIL"
                print(
                    f"certify {cert['name']} ({cert['statistic']}): "
                    f"analytic={format_float(cert['analytic'])} "
                    f"estimate={format_float(cert['estimate'])} "
                    f"se={format_float(cert['se'])} -> {status}"
                )
        else:
            print(f"{key}: {_fmt_value(value)}")
    return resolved


#: Certified per output mode, in this order; the quadrature is the suffix.
_STATS = ("mean_x", "mean_y", "var_x", "var_y")


def _run_gate(
    command: str,
    cfg: dict,
    result: GateResult,
    after: dict | None = None,
    row: tuple[tuple[str, ...], tuple[str, ...]] = ((), ()),
    extra: tuple[tuple[str, QuadExpr, float], ...] = (),
    dataset: CurveDataset | None = None,
) -> int:
    """Certify, report and write one gate run.

    The report lists the gate's ``meta``, every output mode's :data:`_STATS`
    (keys prefixed by the mode name when the gate has several) and ``after``.
    ``--certify`` checks those statistics, mode by mode, then the
    ``extra`` (name, expression, analytic variance) checks of the first
    mode, all estimated from one shared draw of the gate's seeds with the
    run's ``seed``. ``--out`` writes ``dataset`` if given, else one row: the
    ``row`` head columns, the statistics and the tail columns, looked up in
    the results and then the config.
    """
    r = cfg["r"]
    prefixed = len(result.stats) > 1
    stats: dict = {}
    checks = []
    for name, mode_stats in result.stats.items():
        mode = result.modes[name]
        for stat in _STATS:
            key = f"{name}_{stat}" if prefixed else stat
            stats[key] = getattr(mode_stats, stat)
            kind, axis = stat.split("_")
            statistic = "mean" if kind == "mean" else "variance"
            checks.append((f"{name}.{stat}", statistic, getattr(mode, axis), stats[key]))
    first = next(iter(result.modes))
    checks.extend((f"{first}.{stat}", "variance", expr, value) for stat, expr, value in extra)
    results = {**result.meta, **stats, **(after or {})}
    for key, value in results.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"inputs out of range: {key} is not finite")

    exit_code = EXIT_OK
    if cfg["certify"]:
        from . import oracle

        distinct = list({id(expr): expr for _, _, expr, _ in checks}.values())
        samples = oracle.sample_exprs(distinct, r, cfg["samples"], cfg["seed"])
        estimates = {id(expr): est for expr, est in zip(distinct, samples)}
        rows = []
        for name, statistic, expr, analytic in checks:
            res = oracle.certify(analytic, estimates[id(expr)], CERTIFY_K, statistic)
            rows.append({"name": name, **asdict(res)})
        results["certifications"] = rows
        results["certified"] = all(cert["passed"] for cert in rows)
        if not results["certified"]:
            exit_code = EXIT_CERTIFY
    resolved = _emit_report(command, cfg, results)
    if cfg["out"]:
        if dataset is None:
            columns = (*row[0], *stats, *row[1])
            values = {**cfg, **results}
            dataset = CurveDataset(tag=command, columns=columns,
                                   values=[[values[c] for c in columns]])
        try:
            write_dataset(dataset, cfg["out"], cfg["format"], resolved)
        except OSError as exc:
            print(f"error: cannot write {cfg['out']}: {exc}", file=sys.stderr)
            return EXIT_IO
    return exit_code


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def cmd_prepare(cfg: dict) -> int:
    r = cfg["r"]
    cluster = build_cluster()
    report = inseparability_check(cluster, r)
    results = {
        "nullifier_variances": list(nullifier_variances(cluster, r)),
        "inseparability_lhs": list(report.lhs),
        "bound": INSEPARABILITY_BOUND,
        "satisfied": list(report.satisfied),
        "all_satisfied": report.all_satisfied,
        "threshold_r": inseparability_threshold(),
    }
    _emit_report("prepare", cfg, results)
    return EXIT_OK if report.all_satisfied else EXIT_UNMET


def cmd_displace(cfg: dict) -> int:
    gains = (cfg["optimal_gain"], cfg["unity_gain"],
             cfg["g2"] is not None or cfg["g3"] is not None)
    if sum(gains) > 1:
        raise UsageError("choose one of --g2/--g3, --optimal-gain, --unity-gain")
    for key in ("g2", "g3"):
        if cfg["unity_gain"]:
            cfg[key] = 1.0
        elif cfg[key] is None:
            cfg[key] = "optimal"
    r = cfg["r"]
    params = DisplacementParams(
        s0=cfg["s0"], s1=cfg["s1"], g2=cfg["g2"], g3=cfg["g3"],
        var_x=cfg["vx"], var_y=cfg["vy"],
    )
    result = displacement_gate(params, r)
    s0_min, s1_min = min_distinguishable_displacement(
        r, cfg["vx"], cfg["vy"], cfg["criterion"]
    )
    return _run_gate(
        "displace", cfg, result,
        after={"fidelity": identity_fidelity(r), "s0_min": s0_min, "s1_min": s1_min},
        row=(("r", "s0", "s1", "g2", "g3"), ("fidelity", "s0_min", "s1_min")),
    )


def cmd_squeeze(cfg: dict) -> int:
    if cfg["theta"] is not None and cfg["tan_theta"] is not None:
        raise UsageError("give either --theta or --tan-theta, not both")
    if cfg["theta"] is None and cfg["tan_theta"] is None:
        raise UsageError("missing required --theta or --tan-theta")
    if cfg["tan_theta"] is not None:
        cfg["theta"] = math.atan(cfg["tan_theta"])
    else:
        cfg["tan_theta"] = math.tan(cfg["theta"])
    r = cfg["r"]
    params = SqueezerParams(theta=cfg["theta"], var_x=cfg["vx"], var_y=cfg["vy"])
    result = squeezer_gate(params, r)
    after: dict = {}
    extra = ()
    try:
        phi_opt, floor = optimal_detection_angle(cfg["theta"])
    except ValueError:  # tan(theta) = 0
        after["note"] = "tan(theta)=0: rotated variance has no squeezing direction"
    else:
        after["phi_opt"] = phi_opt
        after["v_min_coherent"] = 3.0 * math.exp(-2.0 * r) + floor
        after["threshold_r"] = squeezing_threshold(cfg["theta"])
        if cfg["certify"]:
            rotated = rotate_quadrature(result.modes["out"], phi_opt)
            extra = (("rotated_var_at_phi_opt", rotated,
                      rotated_output_variance(params, r, phi_opt)),)
    if cfg["phi"] is not None:
        after["v_at_phi"] = rotated_output_variance(params, r, cfg["phi"])
    scan = None
    if cfg["scan_phi"]:
        import numpy as np

        step = math.pi / (cfg["grid"] - 1)
        phis = [i * step for i in range(cfg["grid"] - 1)] + [math.pi]
        vs = rotated_output_variances(params, r, phis)
        best = min(range(len(vs)), key=vs.__getitem__)
        after["scan_min_v"] = vs[best]
        after["scan_min_phi"] = phis[best]
        after["scan_max_v"] = max(vs)
        scan = CurveDataset(tag="squeeze_scan", columns=("phi", "v"),
                            values=np.column_stack((phis, vs)))
    return _run_gate("squeeze", cfg, result, after,
                     row=(("r", "theta", "tan_theta"), ()), extra=extra, dataset=scan)


def cmd_cx(cfg: dict) -> int:
    params = CxParams(
        s_c=cfg["sc"], s_t=cfg["st"],
        var_cx=cfg["vx"], var_cy=cfg["vy"],
        var_tx=cfg["vx"], var_ty=cfg["vy"],
    )
    return _run_gate("cx", cfg, controlled_x_gate(params, cfg["r"]))


def cmd_figures(cfg: dict) -> int:
    import numpy as np

    from .analysis import _fig8_panels, fig3_dataset, fig4_dataset, fig5_dataset, fig6_dataset

    if cfg["out"] is None:
        cfg["out"] = "figures"
    resolved = {"command": "figures", **cfg}
    out_dir = Path(cfg["out"])
    ext = cfg["format"]
    builds = {
        "fig3": lambda: fig3_dataset(np.linspace(0.0, 2.0, 41), np.linspace(0.0, 2.0, 41)),
        "fig4": lambda: fig4_dataset(np.linspace(0.0, 5.0, 100)),
        "fig5": lambda: fig5_dataset(np.linspace(0.0, math.pi, 501)),
        "fig6": lambda: fig6_dataset(np.linspace(0.0, math.pi, 501)),
    }
    for name, build in _fig8_panels(grid_points=cfg["grid"], span=cfg["span"]).items():
        builds[f"fig8_{name}"] = build
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create {out_dir}: {exc}", file=sys.stderr)
        return EXIT_IO
    jobs = [(build, out_dir / f"{name}.{ext}") for name, build in builds.items()]
    try:
        with _writing_ahead(jobs, ext, resolved) as datasets:
            for _, path in jobs:  # each dataset is dropped once written
                write_dataset(next(datasets), path, ext, resolved)
    except OSError as exc:
        print(f"error: cannot write datasets: {exc}", file=sys.stderr)
        return EXIT_IO
    _emit_report("figures", cfg, {"files": [str(path) for _, path in jobs]})
    return EXIT_OK


_COMMANDS = {
    "prepare": cmd_prepare,
    "displace": cmd_displace,
    "squeeze": cmd_squeeze,
    "cx": cmd_cx,
    "figures": cmd_figures,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](resolve_config(args))
    except (UsageError, ValueError) as exc:
        message = str(exc)
    except OverflowError as exc:
        message = f"inputs out of range: {exc}"
    except MemoryError as exc:
        message = f"inputs too large: {str(exc) or 'out of memory'}"
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))
