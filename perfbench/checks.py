"""Output checks for the benchmark's operations.

One checker serves every workload. Gate and cluster reports (``key: value``
lines or one JSON object on stdout) and their ``--out`` files are compared
with the closed forms in :mod:`cvcluster.gates` and the paper's nullifier
variances; figure datasets are compared with golden sha256 digests.
Every check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

from cvcluster.gates import (
    CxParams,
    SqueezerParams,
    cx_output_moments,
    displacement_output_variance,
    identity_fidelity,
    min_distinguishable_displacement,
    optimal_detection_angle,
    optimal_displacement_variance,
    optimal_gain,
    rotated_output_variance,
    squeezing_threshold,
)

#: Relative agreement demanded between a printed value and its closed form.
REL_TOL = 1e-12
#: Absolute floor for values whose closed form is 0 (means of unshifted
#: quadratures); inputs are O(1), so rounding residue stays far below it.
ABS_TOL = 1e-12
#: ``prepare`` reports r* from a bisection run to 1e-9.
THRESHOLD_TOL = 1e-9
#: Sigmas at which the CLI certifies a sampled statistic.
CERTIFY_K = 4.0
#: Inseparability threshold r* = ln(3/2)/2: the largest pair sum, 6 e^{-2r},
#: drops below the bound 4 there.
R_STAR = 0.5 * math.log(1.5)
#: Nullifier variances in units of e^{-2r} (the paper's closed forms).
NULLIFIER_COEFFS = (2.0, 3.0, 3.0, 2.0)
#: Nullifier index pairs summed by the three inseparability conditions.
PAIRS = ((1, 0), (3, 2), (1, 2))
INSEPARABILITY_BOUND = 4.0

_CERT_LINE = re.compile(
    r"certify (\S+) \((mean|variance)\): analytic=(\S+) estimate=(\S+) "
    r"se=(\S+) -> (PASS|FAIL)$"
)


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------


def _parse_value(text: str) -> object:
    if text in ("true", "false"):
        return text == "true"
    if text.startswith("[") and text.endswith("]"):
        body = text[1:-1].strip()
        return [_parse_value(part) for part in body.split(", ")] if body else []
    try:
        return float(text)
    except ValueError:
        return text


def parse_report(stdout: str) -> dict:
    """Results of one CLI report, in either output format.

    Certification lines are collected under ``"certifications"`` as dicts
    with the keys the JSON format uses.
    """
    text = stdout.strip()
    if text.startswith("{"):
        return json.loads(text)["results"]
    results: dict = {}
    certs = []
    for line in text.splitlines():
        if line.startswith("# "):
            continue
        match = _CERT_LINE.match(line)
        if match:
            name, statistic, analytic, estimate, se, status = match.groups()
            certs.append({
                "name": name, "statistic": statistic,
                "analytic": float(analytic), "estimate": float(estimate),
                "se": float(se), "passed": status == "PASS",
            })
            continue
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"unparseable report line {line!r}")
        results[key] = _parse_value(value)
    if certs:
        results["certifications"] = certs
    return results


def read_dataset(path: Path) -> tuple[list[str], np.ndarray]:
    """Columns and rows of a dataset file written by ``--out``."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        doc = json.loads(text)
        return list(doc["columns"]), np.array(doc["rows"], dtype=float)
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError("missing config header")
    columns = lines[1].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    return columns, np.array(rows, dtype=float)


# --------------------------------------------------------------------------
# closed forms per command
# --------------------------------------------------------------------------


def expected_prepare(p: dict) -> dict:
    down = math.exp(-2.0 * p["r"])
    variances = [c * down for c in NULLIFIER_COEFFS]
    lhs = [variances[i] + variances[j] for i, j in PAIRS]
    return {
        "nullifier_variances": variances,
        "inseparability_lhs": lhs,
        "bound": INSEPARABILITY_BOUND,
        "satisfied": [v < INSEPARABILITY_BOUND for v in lhs],
        "all_satisfied": all(v < INSEPARABILITY_BOUND for v in lhs),
        "threshold_r": R_STAR,
    }


def expected_displace(p: dict) -> dict:
    r, vx, vy = p["r"], p["vx"], p["vy"]
    if p["gain"] == "unity":
        gain = 1.0
        var_x = displacement_output_variance(r, gain, vx)
        var_y = displacement_output_variance(r, gain, vy)
    else:
        gain = optimal_gain(r)
        var_x = optimal_displacement_variance(r, vx)
        var_y = optimal_displacement_variance(r, vy)
    s0_min, s1_min = min_distinguishable_displacement(r, vx, vy, 99)
    return {
        "g2": gain, "g3": gain,
        "mean_x": math.sqrt(2.0) * p["s0"], "mean_y": math.sqrt(2.0) * p["s1"],
        "var_x": var_x, "var_y": var_y,
        "fidelity": identity_fidelity(r),
        "s0_min": s0_min, "s1_min": s1_min,
    }


def _squeezer(p: dict) -> SqueezerParams:
    return SqueezerParams.from_tan(p["tan_theta"], var_x=p["vx"], var_y=p["vy"])


def expected_squeeze(p: dict) -> dict:
    r, params = p["r"], _squeezer(p)
    theta = params.theta
    phi_opt, floor = optimal_detection_angle(theta)
    return {
        "theta": theta,
        "tan_theta": p["tan_theta"],
        "rescale": math.cos(theta),
        "squeeze_parameter": -p["tan_theta"],
        "cross_coefficient": 2.0 * p["tan_theta"],
        "mean_x": 0.0, "mean_y": 0.0,
        "var_x": rotated_output_variance(params, r, 0.0),
        "var_y": rotated_output_variance(params, r, 0.5 * math.pi),
        "phi_opt": phi_opt,
        "v_min_coherent": 3.0 * math.exp(-2.0 * r) + floor,
        "threshold_r": squeezing_threshold(theta),
        "rotated_var_at_phi_opt": rotated_output_variance(params, r, phi_opt),
    }


def expected_cx(p: dict) -> dict:
    params = CxParams(s_c=p["sc"], s_t=p["st"], var_cx=p["vx"], var_cy=p["vy"],
                      var_tx=p["vx"], var_ty=p["vy"])
    out = {}
    for mode, stats in cx_output_moments(params, p["r"]).items():
        for field in ("mean_x", "mean_y", "var_x", "var_y"):
            out[f"{mode}_{field}"] = getattr(stats, field)
    return out


EXPECTED = {
    "prepare": expected_prepare,
    "displace": expected_displace,
    "squeeze": expected_squeeze,
    "cx": expected_cx,
}

#: Statistics each gate certifies, in report order.
CERTIFIED = {
    "displace": ["out.mean_x", "out.mean_y", "out.var_x", "out.var_y"],
    "squeeze": ["out.mean_x", "out.mean_y", "out.var_x", "out.var_y",
                "out.rotated_var_at_phi_opt"],
    "cx": [f"{mode}.{stat}" for mode in ("target", "control")
           for stat in ("mean_x", "mean_y", "var_x", "var_y")],
}

#: Closed forms the report does not print; they only check certifications.
_DERIVED_ONLY = {"rotated_var_at_phi_opt"}


# --------------------------------------------------------------------------
# comparison
# --------------------------------------------------------------------------


def _close(got: object, want: object, tol: tuple[float, float]) -> bool:
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w, tol) for g, w in zip(got, want)))
    if not isinstance(got, float):
        return False
    return math.isclose(got, want, rel_tol=tol[0], abs_tol=tol[1])


def _cert_key(name: str) -> str:
    # "out.var_x" -> "var_x"; "target.mean_y" -> "target_mean_y";
    # "out.rotated_var_at_phi_opt" -> "rotated_var_at_phi_opt"
    mode, _, stat = name.partition(".")
    return stat if mode == "out" else f"{mode}_{stat}"


def check_report(command: str, params: dict, results: dict, certify: bool) -> list[str]:
    """Compare one parsed report with the command's closed forms."""
    problems = []
    want = EXPECTED[command](params)
    for key, value in want.items():
        if key in _DERIVED_ONLY:
            continue
        tol = (0.0, THRESHOLD_TOL) if (command, key) == ("prepare", "threshold_r") \
            else (REL_TOL, ABS_TOL)
        if key not in results:
            problems.append(f"{command}: {key} missing from report")
        elif not _close(results[key], value, tol):
            problems.append(f"{command}: {key}={results[key]!r}, closed form {value!r}")
    if certify:
        problems.extend(_check_certifications(command, want, results))
    return problems


def _check_certifications(command: str, want: dict, results: dict) -> list[str]:
    problems = []
    certs = results.get("certifications", [])
    expected_names = CERTIFIED[command]
    names = [c["name"] for c in certs]
    if names != expected_names:
        problems.append(f"{command}: certified {names}, expected {expected_names}")
    for cert in certs:
        key = _cert_key(cert["name"])
        if key in want and not _close(cert["analytic"], want[key], (REL_TOL, ABS_TOL)):
            problems.append(f"{command}: {cert['name']} analytic={cert['analytic']!r}, "
                            f"closed form {want[key]!r}")
        within = abs(cert["analytic"] - cert["estimate"]) <= CERTIFY_K * cert["se"]
        if within != cert["passed"]:
            problems.append(f"{command}: {cert['name']} verdict disagrees with its numbers")
    if results.get("certified") is not all(c["passed"] for c in certs):
        problems.append(f"{command}: 'certified' disagrees with the verdicts")
    return problems


def check_out_file(command: str, params: dict, results: dict, path: Path) -> list[str]:
    """Check that an ``--out`` file parses back to the printed values."""
    try:
        columns, rows = read_dataset(path)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{command}: cannot read {path.name}: {exc}"]
    if params.get("scan"):
        return _check_scan(params, results, columns, rows)
    if rows.shape[0] != 1:
        return [f"{command}: {path.name} has {rows.shape[0]} rows, expected 1"]
    printed = dict(results, r=params["r"], s0=params.get("s0"), s1=params.get("s1"))
    problems = []
    for column, value in zip(columns, rows[0]):
        if printed.get(column) != value:
            problems.append(f"{command}: {path.name} {column}={value!r}, "
                            f"printed {printed.get(column)!r}")
    return problems


def _check_scan(params: dict, results: dict, columns: list, rows: np.ndarray) -> list[str]:
    if columns != ["phi", "v"] or rows.shape != (params["grid"], 2):
        return [f"squeeze: scan file has columns {columns} and shape {rows.shape}"]
    problems = []
    phis, vs = rows[:, 0], rows[:, 1]
    if not np.array_equal(phis, np.linspace(0.0, math.pi, params["grid"])):
        problems.append("squeeze: scan phi grid differs from linspace(0, pi)")
    sq = _squeezer(params)
    want = np.array([rotated_output_variance(sq, params["r"], phi) for phi in phis])
    if not np.allclose(vs, want, rtol=REL_TOL, atol=0.0):
        problems.append("squeeze: scan variances differ from the closed form")
    best = int(np.argmin(vs))
    for key, value in (("scan_min_v", vs[best]), ("scan_min_phi", phis[best]),
                       ("scan_max_v", vs.max())):
        if results.get(key) != value:
            problems.append(f"squeeze: {key}={results.get(key)!r}, file gives {value!r}")
    return problems


# --------------------------------------------------------------------------
# figures
# --------------------------------------------------------------------------


def digest_dir(path: Path) -> dict[str, str]:
    """sha256 of every file directly inside ``path``, keyed by file name."""
    digests = {}
    for file in sorted(path.iterdir()):
        sha = hashlib.sha256()
        with file.open("rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                sha.update(block)
        digests[file.name] = sha.hexdigest()
    return digests


def check_digests(path: Path, golden: dict[str, str]) -> list[str]:
    """Compare the files in ``path`` with their golden digests."""
    if not path.is_dir():
        return [f"figures: {path.name} was not written"]
    got = digest_dir(path)
    problems = [f"figures: {name} missing" for name in golden if name not in got]
    problems += [f"figures: unexpected file {name}" for name in got if name not in golden]
    problems += [f"figures: {name} digest differs from golden"
                 for name in golden if name in got and got[name] != golden[name]]
    return problems
