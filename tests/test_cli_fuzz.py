"""The exit-code contract under random argv and config files.

Every ``cli.main`` call must exit with a documented code (0-4), never print
a traceback, and print nothing on stdout when it exits 2. Flags and config
keys come from the CLI's own flag table. Each example runs in a fresh
temporary directory, and ``--out`` only names a few relative paths inside
it. ``--grid`` and ``--samples`` stay small, so no example allocates much.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import cvcluster.cli as cli

OUT_NAMES = ("a.csv", "b.json", "figs", "nested/c.csv", "")
#: Integer flags whose value sets an allocation size, and their ranges.
BOUNDED = {"grid": (2, 64), "samples": (1000, 20000)}
FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _flags(command: str) -> list[cli.Flag]:
    return [flag for flag in cli.FLAGS if command in flag.commands]


def _run(argv: list[str], setup: dict[str, str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in setup.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def _assert_contract(code: int, out: str, err: str) -> None:
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""


def _sensible(flag: cli.Flag) -> st.SearchStrategy[object]:
    """Values of the flag's type that usually pass its checks."""
    if flag.name in BOUNDED:
        return st.integers(*BOUNDED[flag.name])
    if flag.name == "out":
        return st.sampled_from(OUT_NAMES)
    if flag.choices:
        return st.sampled_from(flag.choices)
    if flag.kind is int:
        return st.integers(0, 2**64 - 1)
    if flag.kind is bool:
        return st.booleans()
    return st.floats(0, 3)


def _wild(flag: cli.Flag) -> st.SearchStrategy[object]:
    """Anything a config file can hold, with integers kept small where they size work."""
    low, high = BOUNDED.get(flag.name, (-2**70, 2**70))
    scalar = st.one_of(
        st.none(), st.booleans(), st.integers(low, high), st.floats(),
        st.text(max_size=4), st.sampled_from(["csv", "xml", "-1", "nan"]),
    )
    if flag.name not in BOUNDED:
        scalar = scalar | st.just(10**400)
    return scalar | st.lists(scalar, max_size=3)


def _value(draw, flag: cli.Flag) -> object:
    return draw(_wild(flag) if draw(st.integers(0, 5)) == 0 else _sensible(flag))


def _present(draw, flag: cli.Flag) -> bool:
    # figures always gets a small --grid: its default grid takes seconds
    if flag.name == "grid" and "figures" in flag.commands:
        return True
    return draw(st.integers(0, 3) if flag.required else st.booleans())


@st.composite
def argv_cases(draw) -> list[str]:
    command = draw(st.sampled_from(tuple(cli.COMMANDS)))
    argv = [command]
    for flag in _flags(command):
        if not _present(draw, flag):
            continue
        value = _value(draw, flag)
        if flag.kind is bool:
            argv += [flag.option] if value else []
        else:
            argv += [flag.option, repr(value) if isinstance(value, float) else str(value)]
    argv += draw(st.lists(st.sampled_from(["--bogus", "--r", "x"]), max_size=1))
    return argv


@st.composite
def config_cases(draw) -> tuple[list[str], dict]:
    command = draw(st.sampled_from(tuple(cli.COMMANDS)))
    data = {}
    for flag in _flags(command):
        if _present(draw, flag):
            key = draw(st.sampled_from([flag.name, flag.option[2:]]))
            data[key] = _value(draw, flag)
    if draw(st.integers(0, 7)) == 0:
        data[draw(st.sampled_from(["bogus", "config", "r_"]))] = 1
    return [command, "--config", "cfg.json"], data


@FUZZ
@given(argv_cases())
def test_argv_exits_with_a_documented_code(argv):
    _assert_contract(*_run(argv, {}))


@FUZZ
@given(config_cases())
def test_config_exits_with_a_documented_code(case):
    argv, data = case
    _assert_contract(*_run(argv, {"cfg.json": json.dumps(data)}))
