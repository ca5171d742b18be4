"""Golden CLI transcripts: exit code, stdout, stderr and written-file digests.

Each case runs ``cli.main(argv)`` in a fresh working directory that holds
only the case's setup files, with ``CVCLUSTER_SEED`` unset and
``COLUMNS=80``. The recorded outcomes live in ``golden_cli.json`` next to
this file, together with the Python minor version they were recorded on.
Entries whose output is argparse layout (help text, usage errors) depend on
that version; on any other version only their exit code is compared.

Record the cases of :data:`CASES` that have no entry yet (existing entries
are never touched)::

    PYTHONPATH=src python tests/test_cli_golden.py

``--rerecord ID [ID ...]`` re-records the named entries.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import pytest

import cvcluster.cli as cli

FIXTURE = Path(__file__).with_name("golden_cli.json")
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"


def case(case_id: str, *argv: str, setup: dict[str, str | bytes] | None = None) -> tuple:
    return case_id, list(argv), setup or {}


def config(data: object) -> dict[str, str]:
    """Setup that writes ``data`` as JSON to ``cfg.json``."""
    return {"cfg.json": json.dumps(data)}


CSV_JSON = (("csv", "csv"), ("json", "json"))

DISPLACE_GAINS = (
    ("default", ()),
    ("optimal-gain", ("--optimal-gain",)),
    ("unity-gain", ("--unity-gain",)),
    ("g2g3", ("--g2", "0.5", "--g3", "0.7")),
    ("coherent", ("--coherent",)),
    ("criterion95", ("--criterion", "95")),
)

CERTIFY = ("--certify", "--samples", "20000", "--seed", "3")

CASES = [
    case("help", "--help"),
    *(case(f"help-{cmd}", cmd, "--help")
      for cmd in ("prepare", "displace", "squeeze", "cx", "figures")),
    *(case(f"prepare-r{r}-{fmt}", "prepare", "--r", r, "--format", fmt)
      for r in ("0.1", "1") for fmt, _ in CSV_JSON),
    *(case(f"displace-{name}-{fmt}", "displace", "--r", "1", "--s0", "0.5",
           "--s1", "-0.25", *flags, "--out", f"d.{ext}", "--format", fmt)
      for name, flags in DISPLACE_GAINS for fmt, ext in CSV_JSON),
    case("displace-g2-only", "displace", "--r", "0.7", "--g2", "0.3"),
    case("displace-variances", "displace", "--r", "2", "--vx", "2", "--vy", "0.5"),
    case("displace-r0-worked", "displace", "--r", "0", "--coherent", "--unity-gain"),
    case("squeeze-theta", "squeeze", "--r", "1", "--theta", "0.7"),
    case("squeeze-tan-theta", "squeeze", "--r", "2", "--tan-theta", "2"),
    case("squeeze-tan-theta-0", "squeeze", "--r", "1", "--tan-theta", "0"),
    case("squeeze-phi", "squeeze", "--r", "2", "--tan-theta", "2", "--phi", "1.8"),
    case("squeeze-scan-csv", "squeeze", "--r", "2", "--tan-theta", "2", "--scan-phi",
         "--grid", "11", "--out", "scan.csv"),
    case("squeeze-scan-json", "squeeze", "--r", "2", "--tan-theta", "-1", "--scan-phi",
         "--grid", "11", "--out", "scan.json", "--format", "json"),
    # the default grid: 2001 points, enough for the numpy float formatter
    case("squeeze-scan-default-grid-csv", "squeeze", "--r", "1.5", "--tan-theta", "2",
         "--scan-phi", "--out", "scan.csv"),
    case("squeeze-scan-default-grid-json", "squeeze", "--r", "0.5", "--theta", "-0.3",
         "--vx", "2", "--vy", "0.5", "--scan-phi", "--out", "scan.json", "--format", "json"),
    *(case(f"squeeze-out-{fmt}", "squeeze", "--r", "1", "--tan-theta", "-0.5",
           "--vx", "2", "--vy", "0.5", "--out", f"s.{ext}", "--format", fmt)
      for fmt, ext in CSV_JSON),
    case("cx-out-csv", "cx", "--r", "1", "--sc", "1", "--st", "2", "--out", "c.csv"),
    case("cx-out-json", "cx", "--r", "0.5", "--sc", "-0.5", "--st", "1", "--vx", "1.5",
         "--vy", "0.8", "--out", "c.json", "--format", "json"),
    case("certify-displace", "displace", "--r", "1", *CERTIFY),
    case("certify-displace-json", "displace", "--r", "1", "--format", "json", *CERTIFY),
    case("certify-squeeze", "squeeze", "--r", "1", "--tan-theta", "2", *CERTIFY),
    case("certify-squeeze-tan-theta-0", "squeeze", "--r", "1", "--tan-theta", "0",
         *CERTIFY),
    case("certify-cx", "cx", "--r", "1", *CERTIFY),
    case("certify-cx-out", "cx", "--r", "1", "--sc", "1", *CERTIFY, "--out", "cc.csv"),
    case("figures-csv", "figures", "--grid", "5"),
    case("figures-json", "figures", "--grid", "5", "--span", "3", "--format", "json",
         "--out", "figs"),
    case("config-supplies-values", "squeeze", "--config", "cfg.json",
         setup=config({"r": 1.5, "tan-theta": 2.0})),
    case("config-flags-override", "prepare", "--config", "cfg.json", "--r", "2",
         setup=config({"r": 1.5})),
    case("config-unknown-key", "prepare", "--config", "cfg.json",
         setup=config({"r": 1.0, "bogus": 1})),
    case("config-displace-switches", "displace", "--config", "cfg.json",
         setup=config({"r": 1, "s0": 0.5, "optimal_gain": True, "coherent": True,
                       "criterion": 95, "format": "json"})),
    case("config-cx-certify", "cx", "--config", "cfg.json",
         setup=config({"r": 1, "certify": True, "samples": 20000, "seed": 3})),
    case("config-figures", "figures", "--config", "cfg.json",
         setup=config({"grid": 4, "span": 2, "out": "panels"})),
    case("config-not-object", "prepare", "--config", "cfg.json", setup=config([1, 2])),
    case("config-not-json", "prepare", "--config", "cfg.json", setup={"cfg.json": "{"}),
    # a config the parser cannot take is a config-file error too, not a traceback
    case("config-nested-too-deep", "prepare", "--config", "cfg.json",
         setup={"cfg.json": "[" * 10**5 + "]" * 10**5}),
    case("config-not-utf8", "prepare", "--config", "cfg.json",
         setup={"cfg.json": b'{"r": \xff1}'}),
    # the malformed-input cases of test_cli.py
    case("bad-missing-r", "displace"),
    case("bad-negative-r", "displace", "--r", "-1"),
    case("bad-variance", "displace", "--r", "1", "--vx", "-2"),
    case("bad-gain-conflict", "displace", "--r", "1", "--g2", "1", "--unity-gain"),
    case("bad-no-angle", "squeeze", "--r", "1"),
    case("bad-two-angles", "squeeze", "--r", "1", "--theta", "0.5", "--tan-theta", "2"),
    case("bad-coherent-and-vx", "squeeze", "--r", "1", "--tan-theta", "2", "--coherent",
         "--vx", "2"),
    case("bad-few-samples", "cx", "--r", "1", "--certify", "--samples", "10"),
    case("bad-config-path", "displace", "--r", "1", "--config", "/does/not/exist.json"),
    case("bad-r-not-a-number", "prepare", "--r", "abc"),
    case("bad-figures-dir", "figures", "--out", "blocker/sub",
         setup={"blocker": "plain file"}),
    case("bad-subcommand", "explode"),
    case("bad-theta-pole", "squeeze", "--r", "1", "--theta", str(math.pi / 2)),
    # the exit-code matrix of acceptance criterion 9 not covered above
    case("c9-gain-conflict", "displace", "--r", "1", "--g2", "1", "--optimal-gain"),
    case("c9-two-angles", "squeeze", "--r", "1", "--theta", "0.4", "--tan-theta", "2"),
    case("c9-unknown-key", "prepare", "--r", "1", "--config", "cfg.json",
         setup=config({"r": 1.0, "mystery": 2})),
    # further generic and command-specific checks
    case("bad-format", "cx", "--r", "1", "--format", "xml"),
    case("bad-criterion", "displace", "--r", "1", "--criterion", "90"),
    case("bad-r-inf", "prepare", "--r", "inf"),
    case("bad-g2-nan", "displace", "--r", "1", "--g2", "nan"),
    case("bad-gain-styles", "displace", "--r", "1", "--unity-gain", "--optimal-gain"),
    case("bad-vy-zero", "cx", "--r", "1", "--vy", "0"),
    case("bad-seed-negative", "displace", "--r", "1", "--seed", "-1"),
    case("bad-seed-too-big", "cx", "--r", "1", "--seed", str(2**64)),
    case("bad-samples-no-certify", "squeeze", "--r", "1", "--theta", "0.2",
         "--samples", "999"),
    case("bad-squeeze-grid", "squeeze", "--r", "1", "--tan-theta", "1", "--scan-phi",
         "--grid", "1"),
    case("bad-tan-theta-pole", "squeeze", "--r", "1", "--tan-theta", "1e300"),
    case("bad-figures-grid", "figures", "--grid", "1"),
    case("bad-figures-span", "figures", "--grid", "5", "--span", "0"),
    case("bad-figures-out-empty", "figures", "--grid", "5", "--out", ""),
    case("bad-config-r-missing", "cx", "--config", "cfg.json", setup=config({"sc": 1})),
    # overflowing inputs exit 2 before anything is printed
    case("overflow-r400", "displace", "--r", "400"),
    case("overflow-r400-unity-gain", "displace", "--r", "400", "--unity-gain"),
    case("overflow-r1e300", "displace", "--r", "1e300"),
    case("overflow-g2", "displace", "--r", "1", "--g2", "1e300"),
    case("overflow-g2-out", "displace", "--r", "1", "--g2", "1e300", "--out", "d.csv"),
    case("overflow-cx-vx", "cx", "--r", "1", "--vx", "1e308"),
    # config values must have their flag's JSON type
    case("config-out-number", "displace", "--config", "cfg.json",
         setup=config({"r": 1, "out": 5})),
    case("config-r-bool", "prepare", "--config", "cfg.json", setup=config({"r": True})),
    case("config-r-string", "prepare", "--config", "cfg.json", setup=config({"r": "1.5"})),
    case("config-seed-bool", "displace", "--r", "1", "--certify", "--samples", "2000",
         "--config", "cfg.json", setup=config({"seed": True})),
    case("config-switch-string", "displace", "--r", "1", "--config", "cfg.json",
         setup=config({"coherent": "no"})),
    case("config-criterion-float", "displace", "--r", "1", "--config", "cfg.json",
         setup=config({"criterion": 99.0})),
    case("config-samples-float", "cx", "--r", "1", "--config", "cfg.json",
         setup=config({"samples": 20000.0})),
    case("config-grid-string", "figures", "--config", "cfg.json",
         setup=config({"grid": "many"})),
    case("config-format-list", "cx", "--r", "1", "--config", "cfg.json",
         setup=config({"format": ["json"]})),
    case("config-vx-null", "cx", "--r", "1", "--config", "cfg.json",
         setup=config({"vx": None})),
    case("config-g2-null", "displace", "--r", "1", "--config", "cfg.json",
         setup=config({"g2": None, "g3": 0.5})),
    # prepare writes no file, so it takes no --out
    case("prepare-out-flag", "prepare", "--r", "1", "--out", "p.csv"),
    case("prepare-out-key", "prepare", "--config", "cfg.json",
         setup=config({"r": 1, "out": "p.csv"})),
    # coherent input conflicts with a set --vx/--vy wherever either comes from
    case("coherent-config-vx-argv", "cx", "--r", "1", "--vx", "2", "--config", "cfg.json",
         setup=config({"coherent": True})),
    case("coherent-config-vy-config", "cx", "--config", "cfg.json",
         setup=config({"r": 1, "coherent": True, "vy": 0.5})),
    case("coherent-argv-vx-config", "displace", "--r", "1", "--coherent",
         "--config", "cfg.json", setup=config({"vx": 2})),
    # a Wigner grid or quadratic form that overflows is out of range
    case("overflow-figures-span", "figures", "--grid", "5", "--span", "1e300"),
    case("overflow-figures-span-grid", "figures", "--grid", "5", "--span", "1.7e308"),
    # an empty --out exits 2 on a gate too, wherever it comes from
    case("bad-gate-out-empty", "cx", "--r", "1", "--out", ""),
    case("config-gate-out-empty", "displace", "--config", "cfg.json",
         setup=config({"r": 1, "out": ""})),
]


@contextlib.contextmanager
def _isolated(workdir: Path):
    """Run inside ``workdir`` with the environment the fixture assumes."""
    saved_env = {key: os.environ.get(key) for key in (cli.ENV_SEED, "COLUMNS")}
    saved_cwd = os.getcwd()
    os.environ.pop(cli.ENV_SEED, None)
    os.environ["COLUMNS"] = "80"
    os.chdir(workdir)
    try:
        yield
    finally:
        os.chdir(saved_cwd)
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def run_case(argv: list[str], setup: dict[str, str | bytes], workdir: Path) -> dict:
    """Run one case in an empty ``workdir``; return its recorded outcome."""
    for name, text in setup.items():
        (workdir / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    out, err = io.StringIO(), io.StringIO()
    with _isolated(workdir), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    files = {
        path.relative_to(workdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(workdir.rglob("*"))
        if path.is_file() and path.name not in setup
    }
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": files}


def _is_layout(entry: dict) -> bool:
    return entry["stdout"].startswith("usage:") or entry["stderr"].startswith("usage:")


def _load() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case():
    recorded = _load()["cases"]
    assert [c[0] for c in CASES] == list(recorded)


def _assert_matches(fixture: dict, case_id: str, argv: list[str], got: dict) -> None:
    want = fixture["cases"][case_id]
    assert want["argv"] == argv
    if fixture["python"] != PYTHON and _is_layout(want):
        assert got["exit"] == want["exit"], case_id
        return
    assert {key: got[key] for key in ("exit", "stdout", "stderr", "files")} == {
        key: want[key] for key in ("exit", "stdout", "stderr", "files")
    }, case_id


@pytest.mark.parametrize("case_id,argv,setup", CASES, ids=[c[0] for c in CASES])
def test_golden(case_id, argv, setup, tmp_path):
    _assert_matches(_load(), case_id, argv, run_case(argv, setup, tmp_path))


def test_golden_replayed_in_one_process(tmp_path):
    # the parser is built once per process: help, usage errors and config
    # errors must leave nothing behind that changes a later run
    warmups = (["prepare", "--r", "1"], ["displace", "--help"], ["cx", "--bogus"],
               ["explode"], ["squeeze", "--r", "1", "--tan-theta", "2", "--config", "no.json"])
    for index, argv in enumerate(warmups):
        workdir = tmp_path / f"warmup{index}"
        workdir.mkdir()
        run_case(argv, {}, workdir)
    fixture = _load()
    for index, (case_id, argv, setup) in enumerate(reversed(CASES)):
        workdir = tmp_path / f"case{index}"
        workdir.mkdir()
        _assert_matches(fixture, case_id, argv, run_case(argv, setup, workdir))


def record(rerecord: set[str]) -> None:
    fixture = _load() if FIXTURE.exists() else {"python": PYTHON, "cases": {}}
    if fixture["python"] != PYTHON:
        raise SystemExit(f"fixture was recorded on Python {fixture['python']}")
    cases = {}
    for case_id, argv, setup in CASES:
        if case_id in fixture["cases"] and case_id not in rerecord:
            cases[case_id] = fixture["cases"][case_id]
            continue
        with tempfile.TemporaryDirectory() as tmp:
            cases[case_id] = {"argv": argv, **run_case(argv, setup, Path(tmp))}
        print(f"recorded {case_id}")
    fixture["cases"] = cases
    FIXTURE.write_text(json.dumps(fixture, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    args = sys.argv[1:]
    if args and args[0] == "--rerecord":
        record(set(args[1:]))
    elif not args:
        record(set())
    else:
        raise SystemExit("usage: test_cli_golden.py [--rerecord ID ...]")
