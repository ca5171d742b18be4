"""Workload generators and the execution of one operation.

An operation is one in-process ``cvcluster.cli.main(argv)`` call. A
workload is a list of operations built from the workload seed alone; one
pass over the list is an iteration. The program sees only the generated
argv.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import cvcluster.cli

import checks

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"

#: ``figures`` invocations whose outputs have golden digests. The workload
#: times the first (the CLI defaults); the others are checked once per run.
FIGURE_VARIANTS = {
    "grid201-csv": ["figures"],
    "grid201-json": ["figures", "--format", "json"],
    "grid41-csv": ["figures", "--grid", "41"],
    "grid41-json": ["figures", "--grid", "41", "--format", "json"],
}
#: The CLI's default output directory; a relative path keeps the config
#: header, and so the digests, independent of where the run happens.
FIGURES_DIR = "figures"

#: Commands per ``sweep`` iteration, in equal shares of the four kinds.
SWEEP_OPS = 80
#: One ``squeeze`` in this many scans 2001 angles.
SWEEP_SCAN_EVERY = 4
SCAN_GRID = 2001


@dataclass(frozen=True)
class Op:
    """One CLI call plus what its output is checked against."""

    argv: tuple[str, ...]
    command: str
    expect_exit: int
    params: dict = field(default_factory=dict)
    out: str | None = None


def _num(value: float) -> str:
    return repr(float(value))


def _tan_theta(rng: random.Random) -> float:
    # |tan(theta)| >= 0.25 keeps phi_opt defined, so every squeeze reports
    # (and certifies) the same set of statistics.
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 3.0)


def figures_ops(seed: int) -> list[Op]:
    """The CLI defaults; the output is deterministic, so the seed is unused."""
    return [Op(tuple(FIGURE_VARIANTS["grid201-csv"]), "figures", 0,
               {"variant": "grid201-csv"})]


def certify_ops(seed: int) -> list[Op]:
    """``displace``, ``squeeze`` and ``cx`` with ``--certify`` at n=10^6.

    Parameters and sampling seeds are drawn once from the workload seed, so
    every iteration repeats the same 17 sampled statistics.
    """
    rng = random.Random(f"certify-{seed}")
    r = rng.uniform(0.5, 2.0)
    disp = {"r": r, "s0": rng.uniform(-3, 3), "s1": rng.uniform(-3, 3),
            "vx": 1.0, "vy": 1.0, "gain": "optimal"}
    sq = {"r": r, "tan_theta": _tan_theta(rng), "vx": 1.0, "vy": 1.0}
    cx = {"r": r, "sc": rng.uniform(-3, 3), "st": rng.uniform(-3, 3), "vx": 1.0, "vy": 1.0}
    seeds = [str(rng.randrange(2**32)) for _ in range(3)]
    return [
        Op(("displace", "--r", _num(r), f"--s0={_num(disp['s0'])}",
            f"--s1={_num(disp['s1'])}", "--certify", "--seed", seeds[0]),
           "displace", 0, disp),
        Op(("squeeze", "--r", _num(r), f"--tan-theta={_num(sq['tan_theta'])}",
            "--certify", "--seed", seeds[1]),
           "squeeze", 0, sq),
        Op(("cx", "--r", _num(r), f"--sc={_num(cx['sc'])}", f"--st={_num(cx['st'])}",
            "--certify", "--seed", seeds[2]),
           "cx", 0, cx),
    ]


def sweep_ops(seed: int) -> list[Op]:
    """A seeded stream of small commands, one quarter of each kind.

    r is uniform on [0, 3]. Every gate command writes a one-row ``--out``
    file (a 2001-row scan for ``--scan-phi``), alternating CSV and JSON.
    Counted choices (scans, unity gains) are fixed shares, not draws, so
    every seed does the same amount of work.
    """
    rng = random.Random(f"sweep-{seed}")
    share = SWEEP_OPS // 4
    kinds = ["prepare", "displace", "squeeze", "cx"] * share
    rng.shuffle(kinds)
    ops: list[Op] = []
    squeezes = displaces = gates = 0
    for kind in kinds:
        r = rng.uniform(0.0, 3.0)
        if kind == "prepare":
            ops.append(Op(("prepare", "--r", _num(r)), "prepare",
                          1 if r < checks.R_STAR else 0, {"r": r}))
            continue
        vx, vy = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        fmt = ("csv", "json")[gates % 2]
        out = f"out{gates}.{fmt}"
        gates += 1
        argv = [kind, "--r", _num(r), "--vx", _num(vx), "--vy", _num(vy),
                "--format", fmt, "--out", out]
        params = {"r": r, "vx": vx, "vy": vy}
        if kind == "displace":
            params.update(s0=rng.uniform(-3, 3), s1=rng.uniform(-3, 3),
                          gain=("optimal", "unity")[displaces % 2])
            displaces += 1
            argv += [f"--s0={_num(params['s0'])}", f"--s1={_num(params['s1'])}"]
            if params["gain"] == "unity":
                argv.append("--unity-gain")
        elif kind == "squeeze":
            params.update(tan_theta=_tan_theta(rng),
                          scan=squeezes % SWEEP_SCAN_EVERY == SWEEP_SCAN_EVERY - 1,
                          grid=SCAN_GRID)
            squeezes += 1
            argv.append(f"--tan-theta={_num(params['tan_theta'])}")
            if params["scan"]:
                argv.append("--scan-phi")
        else:
            params.update(sc=rng.uniform(-3, 3), st=rng.uniform(-3, 3))
            argv += [f"--sc={_num(params['sc'])}", f"--st={_num(params['st'])}"]
        ops.append(Op(tuple(argv), kind, 0, params, out))
    return ops


WORKLOADS = {
    "figures": figures_ops,
    "certify": certify_ops,
    "sweep": sweep_ops,
}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def execute(argv: tuple[str, ...], workdir: Path) -> tuple[int | None, float, str, str]:
    """Run ``cli.main(argv)`` with ``workdir`` as the working directory.

    Returns (exit code, seconds inside ``main``, stdout, stderr). An
    exception escaping ``main`` gives exit code None and its text on stderr.
    ``main`` is looked up on the module at call time, so a tracer that
    wraps it is honoured.
    """
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cvcluster.cli.main(list(argv))
            except Exception as exc:  # a crash is a failed operation, not a crashed run
                code = None
                print(f"{type(exc).__name__}: {exc}", file=err)
            seconds = time.perf_counter() - start
    finally:
        os.chdir(previous)
    return code, seconds, out.getvalue(), err.getvalue()


def check(op: Op, code: int | None, stdout: str, stderr: str, workdir: Path,
          golden: dict) -> list[str]:
    """Every reason the operation's outcome is wrong; empty when correct."""
    if code != op.expect_exit:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return [f"{op.command}: exit {code}, expected {op.expect_exit} {tail[0]}".rstrip()]
    if op.command == "figures":
        return checks.check_digests(workdir / FIGURES_DIR, golden[op.params["variant"]])
    try:
        results = checks.parse_report(stdout)
    except (ValueError, KeyError) as exc:
        return [f"{op.command}: cannot parse report: {exc}"]
    problems = checks.check_report(op.command, op.params, results,
                                   certify="--certify" in op.argv)
    if op.out is not None:
        problems += checks.check_out_file(op.command, op.params, results, workdir / op.out)
    return problems
