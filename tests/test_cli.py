"""End-to-end CLI behavior: reports, exit codes, config merge, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import cvcluster
import cvcluster.cli as cli
import cvcluster.io
import cvcluster.oracle
from cvcluster.oracle import CertifyResult

GOLDEN_FIGURES = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out):
    lines = out.strip().splitlines()
    assert lines[0].startswith("# ")
    header = json.loads(lines[0][2:])
    body = {}
    for line in lines[1:]:
        if line.startswith("certify "):
            continue
        key, _, value = line.partition(": ")
        body[key] = value
    return header, body


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()


class TestPrepare:
    def test_entangled_regime(self, capsys):
        code, out, _ = run(capsys, "prepare", "--r", "1")
        assert code == 0
        header, body = parse_report(out)
        assert header["command"] == "prepare"
        assert body["all_satisfied"] == "true"

    def test_separable_regime(self, capsys):
        code, out, _ = run(capsys, "prepare", "--r", "0.1")
        assert code == 1
        _, body = parse_report(out)
        assert body["all_satisfied"] == "false"

    def test_threshold_reported(self, capsys):
        _, out, _ = run(capsys, "prepare", "--r", "1")
        _, body = parse_report(out)
        assert float(body["threshold_r"]) == pytest.approx(0.20273, abs=1e-5)


class TestDisplace:
    def test_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "displace", "--r", "0", "--coherent", "--unity-gain"
        )
        assert code == 0
        _, body = parse_report(out)
        assert body["fidelity"] == "0.5"
        assert float(body["var_x"]) == pytest.approx(4.0, abs=1e-12)

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "displace", "--r", "1", "--coherent", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["command"] == "displace"
        assert doc["results"]["var_x"] == pytest.approx(1.4019244319315154, rel=1e-9)

    def test_explicit_gains(self, capsys):
        code, out, _ = run(capsys, "displace", "--r", "1", "--g2", "0.5", "--g3", "0.5")
        assert code == 0
        _, body = parse_report(out)
        assert float(body["g2"]) == 0.5

    def test_means_follow_displacement(self, capsys):
        code, out, _ = run(capsys, "displace", "--r", "1", "--s0", "2")
        assert code == 0
        _, body = parse_report(out)
        assert float(body["mean_x"]) == pytest.approx(math.sqrt(2.0) * 2.0, rel=1e-12)

    def test_certify_small_run(self, capsys):
        code, out, _ = run(
            capsys, "displace", "--r", "1", "--certify",
            "--samples", "20000", "--seed", "3",
        )
        assert code == 0
        assert out.count("-> PASS") == 4

    def test_certify_failure_exit(self, capsys, monkeypatch):
        def always_fail(analytic, est, k, statistic):
            se = est.se_mean if statistic == "mean" else est.se_var
            return CertifyResult(
                passed=False, analytic=analytic,
                estimate=est.mean if statistic == "mean" else est.variance,
                se=se, k_sigma=k, statistic=statistic,
            )

        monkeypatch.setattr(cvcluster.oracle, "certify", always_fail)
        code, out, _ = run(
            capsys, "displace", "--r", "1", "--certify",
            "--samples", "2000", "--seed", "3",
        )
        assert code == 3
        assert "-> FAIL" in out


class TestSqueeze:
    def test_report_fields(self, capsys):
        code, out, _ = run(capsys, "squeeze", "--r", "2", "--tan-theta", "2")
        assert code == 0
        _, body = parse_report(out)
        assert float(body["phi_opt"]) == pytest.approx(1.8026201312952996, abs=1e-9)
        assert float(body["v_min_coherent"]) == pytest.approx(0.110675, abs=1e-5)
        assert float(body["threshold_r"]) == pytest.approx(0.57790, abs=1e-4)

    def test_scan_close_to_analytic(self, capsys):
        code, out, _ = run(
            capsys, "squeeze", "--r", "2", "--tan-theta", "2", "--scan-phi"
        )
        assert code == 0
        _, body = parse_report(out)
        assert float(body["scan_min_v"]) == pytest.approx(
            float(body["v_min_coherent"]), abs=1e-4
        )

    def test_theta_flag_equivalent(self, capsys):
        theta = math.atan(2.0)
        _, out_a, _ = run(capsys, "squeeze", "--r", "1", "--theta", str(theta))
        _, out_b, _ = run(capsys, "squeeze", "--r", "1", "--tan-theta", "2")
        _, body_a = parse_report(out_a)
        _, body_b = parse_report(out_b)
        assert float(body_a["var_x"]) == pytest.approx(float(body_b["var_x"]), rel=1e-9)

    def test_flat_angle_still_succeeds(self, capsys):
        code, out, _ = run(capsys, "squeeze", "--r", "1", "--tan-theta", "0")
        assert code == 0
        _, body = parse_report(out)
        assert "note" in body
        assert "phi_opt" not in body

    def test_phi_point_report(self, capsys):
        code, out, _ = run(
            capsys, "squeeze", "--r", "2", "--tan-theta", "2", "--phi", "1.8026201313"
        )
        assert code == 0
        _, body = parse_report(out)
        assert float(body["v_at_phi"]) == pytest.approx(0.110675, abs=1e-5)


class TestCx:
    def test_mean_shift(self, capsys):
        code, out, _ = run(capsys, "cx", "--r", "1", "--sc", "1", "--st", "2")
        assert code == 0
        _, body = parse_report(out)
        assert float(body["target_mean_x"]) == pytest.approx(1.0, abs=1e-12)
        assert float(body["control_mean_x"]) == pytest.approx(1.0, abs=1e-12)

    def test_certify(self, capsys):
        code, out, _ = run(
            capsys, "cx", "--r", "1", "--certify", "--samples", "20000", "--seed", "5"
        )
        assert code == 0
        assert out.count("-> PASS") == 8


class TestConfigMerge:
    def test_file_supplies_values(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 1.5, "tan-theta": 2.0}))
        code, out, _ = run(capsys, "squeeze", "--config", str(cfg))
        assert code == 0
        header, _ = parse_report(out)
        assert header["r"] == 1.5

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 1.5}))
        code, out, _ = run(capsys, "prepare", "--config", str(cfg), "--r", "2")
        assert code == 0
        header, _ = parse_report(out)
        assert header["r"] == 2.0

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 1.0, "bogus": 1}))
        code, _, err = run(capsys, "prepare", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("CVCLUSTER_SEED", "42")
        code, out, _ = run(capsys, "displace", "--r", "1")
        assert code == 0
        header, _ = parse_report(out)
        assert header["seed"] == 42

    def test_bad_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CVCLUSTER_SEED", "not-a-number")
        code, _, err = run(capsys, "displace", "--r", "1")
        assert code == 2


class TestOutputs:
    def test_dataset_written_with_header(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, _, _ = run(capsys, "displace", "--r", "1", "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# ")
        assert "fidelity" in lines[1]

    def test_scan_written(self, capsys, tmp_path):
        path = tmp_path / "scan.csv"
        code, _, _ = run(
            capsys, "squeeze", "--r", "2", "--tan-theta", "2",
            "--scan-phi", "--grid", "11", "--out", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[1] == "phi,v"
        assert len(lines) == 13

    def test_figures_byte_identical(self, capsys, tmp_path):
        target = tmp_path / "figs"
        code, _, _ = run(capsys, "figures", "--out", str(target), "--grid", "21")
        assert code == 0
        first = {p.name: p.read_bytes() for p in target.iterdir()}
        assert len(first) == 10
        code, _, _ = run(capsys, "figures", "--out", str(target), "--grid", "21")
        assert code == 0
        second = {p.name: p.read_bytes() for p in target.iterdir()}
        assert first == second

    @pytest.mark.parametrize("variant,argv", [
        ("grid41-csv", ("--grid", "41")),
        ("grid41-json", ("--grid", "41", "--format", "json")),
        ("grid201-csv", ()),
    ])
    def test_figures_match_golden_digests(self, capsys, tmp_path, monkeypatch, variant, argv):
        # the benchmark's recorded digests; its default output directory is
        # relative, so the config header does not depend on tmp_path
        golden = json.loads(GOLDEN_FIGURES.read_text(encoding="utf-8"))[variant]
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "figures", *argv)
        assert code == 0
        got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (tmp_path / "figures").iterdir()}
        assert got == golden

    def test_figures_in_fresh_process_report_once(self, capsys, tmp_path, monkeypatch):
        # the writer's children leave without flushing this process's stdout
        src = Path(cvcluster.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
        (tmp_path / "fresh").mkdir()
        proc = subprocess.run([sys.executable, "-m", "cvcluster", "figures", "--grid", "5"],
                              cwd=tmp_path / "fresh", env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=120, check=False)
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "figures", "--grid", "5")
        assert (proc.returncode, proc.stderr, proc.stdout) == (code, "", out)
        assert out.count("files: ") == 1
        for path in (tmp_path / "figures").iterdir():
            assert (tmp_path / "fresh" / "figures" / path.name).read_bytes() == path.read_bytes()

    def test_figures_json_format(self, capsys, tmp_path):
        target = tmp_path / "figs"
        code, out, _ = run(
            capsys, "figures", "--out", str(target), "--grid", "11",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["results"]["files"]) == 10
        sample = json.loads((target / "fig4.json").read_text())
        assert sample["tag"] == "fig4"
        assert sample["columns"] == ["r", "fidelity"]


class TestMalformedInputs:
    CASES = [
        (("displace",), 2),                                      # missing r
        (("displace", "--r", "-1"), 2),                          # negative squeezing
        (("displace", "--r", "1", "--vx", "-2"), 2),             # bad variance
        (("displace", "--r", "1", "--g2", "1", "--unity-gain"), 2),  # gain conflict
        (("squeeze", "--r", "1"), 2),                            # no angle given
        (("squeeze", "--r", "1", "--theta", "0.5", "--tan-theta", "2"), 2),
        (("squeeze", "--r", "1", "--tan-theta", "2", "--coherent", "--vx", "2"), 2),
        (("cx", "--r", "1", "--certify", "--samples", "10"), 2),  # too few samples
        (("displace", "--r", "1", "--config", "/does/not/exist.json"), 2),
        (("prepare", "--r", "abc"), 2),                          # argparse type error
    ]

    @pytest.mark.parametrize("argv,expected", CASES)
    def test_exit_codes(self, capsys, argv, expected):
        code, _, _ = run(capsys, *argv)
        assert code == expected

    def test_unwritable_figures_dir(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("plain file")
        code, _, err = run(capsys, "figures", "--out", str(blocker / "sub"))
        assert code == 4
        assert "cannot" in err

    @pytest.mark.parametrize("blocked", [("fig4", "fig5"), ("fig5", "fig6")])
    def test_first_unwritable_figure_file_is_reported(self, capsys, tmp_path, monkeypatch,
                                                       blocked):
        # at --grid 5 on two CPUs a forked child writes fig4 and fig6, this process fig5
        monkeypatch.setattr(cvcluster.io, "_cpus", lambda: 2)
        target = tmp_path / "figs"
        for name in blocked:
            (target / f"{name}.csv").mkdir(parents=True)
        code, out, err = run(capsys, "figures", "--grid", "5", "--out", str(target))
        assert (code, out) == (4, "")
        first = target / f"{blocked[0]}.csv"
        assert err == f"error: cannot write datasets: [Errno 21] Is a directory: '{first}'\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("span,error", [
        ("1e300", "error: inputs out of range: "), ("1.7e308", "error: inputs out of range: "),
        ("4e-16", "error: x_grid must be strictly increasing"),  # only inner points repeat
    ])
    def test_span_out_of_range(self, capsys, tmp_path, monkeypatch, cpus, span, error):
        # every panel is checked before the directory is made or any dataset built
        monkeypatch.setattr(cvcluster.io, "_cpus", lambda: cpus)
        target = tmp_path / "figs"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "figures", "--grid", "5", "--span", span,
                                 "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(error)
        assert not target.exists()

    @pytest.mark.parametrize("writers", [1, 2, 9])
    def test_inputs_too_large(self, tmp_path, writers):
        # one 11.9 GiB Wigner grid, asked for at once under a 2 GiB address-space limit;
        # the directory is made before the grid, and the fig3-fig6 files, which come before
        # every fig8 panel in report order, are written whatever the number of writers
        pytest.importorskip("resource")
        src = Path(cvcluster.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                  "import cvcluster.cli as cli, cvcluster.io\n"
                  f"cvcluster.io._cpus = lambda: {writers}\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        proc = subprocess.run([sys.executable, "-c", script, "figures", "--grid", "40000",
                               "--out", "big"], cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120, check=False)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: inputs too large: ")
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert sorted(path.name for path in (tmp_path / "big").iterdir()) == [
            "fig3.csv", "fig4.csv", "fig5.csv", "fig6.csv"]

    @pytest.mark.parametrize("argv,config,message", [
        (("prepare", "--r", "1"), {"format": "xml"}, "error: --format must be csv or json"),
        (("displace", "--r", "1"), {"criterion": 98}, "error: --criterion must be 95 or 99"),
    ])
    def test_config_value_outside_choices(self, capsys, tmp_path, argv, config, message):
        # argparse checks choices only on argv; config values take this branch
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == message + "\n"

    @pytest.mark.parametrize("argv,blocker,message,report", [
        (("cx", "--r", "1", "--out", "missing/dir/x.csv"), None,
         "error: cannot write missing/dir/x.csv: ", True),
        (("figures", "--grid", "5", "--out", "figs"), "figs/fig3.csv",
         "error: cannot write datasets: ", False),
    ])
    def test_unwritable_output_file(self, capsys, tmp_path, monkeypatch, argv, blocker,
                                    message, report):
        # a gate prints its report before writing; figures reports after
        monkeypatch.chdir(tmp_path)
        if blocker:
            (tmp_path / blocker).mkdir(parents=True)
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert err.startswith(message)
        assert out.startswith("# ") if report else out == ""

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "explode")
        assert code == 2

    def test_theta_at_pole(self, capsys):
        code, _, err = run(capsys, "squeeze", "--r", "1", "--theta", str(math.pi / 2))
        assert code == 2

    @pytest.mark.parametrize("argv,config", [
        (("cx", "--r", "1", "--out", ""), None),
        (("displace", "--r", "1"), {"out": ""}),
        (("squeeze", "--r", "1", "--tan-theta", "2"), {"out": ""}),
        (("figures", "--grid", "5"), {"out": ""}),
    ])
    def test_empty_out(self, capsys, tmp_path, monkeypatch, argv, config):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ("--config", "cfg.json")
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: --out must not be empty\n")
        assert [path.name for path in tmp_path.iterdir()] == (["cfg.json"] if config else [])
