"""Record the golden sha256 digests of every ``cvcluster figures`` output.

Run from the repository root, at the commit whose bytes are the reference::

    python3 perfbench/golden.py

It runs each variant in ``ops.FIGURE_VARIANTS`` in a fresh directory and
rewrites ``perfbench/golden.json``. Recording is a deliberate act: a change
that alters figure bytes must say so, and the benchmark then fails its
``figures`` checks until the digests are recorded again.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import ops  # noqa: E402


def record(scratch: Path) -> dict:
    golden = {}
    for variant, argv in ops.FIGURE_VARIANTS.items():
        workdir = scratch / variant
        workdir.mkdir(parents=True)
        code, _, _, stderr = ops.execute(tuple(argv), workdir)
        if code != 0:
            raise SystemExit(f"{variant}: exit {code}: {stderr}")
        golden[variant] = checks.digest_dir(workdir / ops.FIGURES_DIR)
    return golden


def main() -> None:
    scratch = BENCH_DIR / ".work" / "golden"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        golden = record(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    ops.GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
    print(f"wrote {sum(map(len, golden.values()))} digests to {ops.GOLDEN_PATH.name}")


if __name__ == "__main__":
    main()
