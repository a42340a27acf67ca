import json
import os
import subprocess
import sys

import pytest

RUN = [sys.executable, "-m", "dispersive_lab.cli"]


def run_cli(args):
    return subprocess.run(RUN + args, capture_output=True, text=True)


def test_count_example(tmp_path):
    out = tmp_path / "run"
    r = run_cli(["count", "--out", str(out), "--param", "d=3",
                 "--param", "b=2", "--param", "N=1"])
    assert r.returncode == 0, r.stderr
    lines = (out / "count_scan.csv").read_text().splitlines()
    assert lines[0] == "d,b,N,S,runtime_ms"
    assert lines[1].startswith("3,2,1,19,")


def test_manifest_complete(tmp_path):
    out = tmp_path / "run"
    r = run_cli(["count", "--out", str(out), "--param", "N=1,2,4"])
    assert r.returncode == 0
    manifest = json.loads((out / "manifest.json").read_text())
    listed = set(manifest["files"])
    on_disk = {p for p in os.listdir(out) if p != "manifest.json"}
    assert listed == on_disk
    assert len(manifest["config_hash"]) == 64


def test_empty_n_range_is_config_error(tmp_path):
    out = tmp_path / "run"
    r = run_cli(["count", "--out", str(out), "--param", "N="])
    assert r.returncode == 2
    assert not (out / "count_scan.csv").exists()


def test_unknown_command_rejected(tmp_path):
    r = run_cli(["frobnicate", "--out", str(tmp_path / "x")])
    assert r.returncode == 2


def test_odd_p_rejected(tmp_path):
    out = tmp_path / "run"
    r = run_cli(["strichartz", "--out", str(out), "--param", "p=7",
                 "--param", "N=4"])
    assert r.returncode == 2
    assert "even" in r.stderr


def test_budget_exceeded_exit_code(tmp_path):
    out = tmp_path / "run"
    r = run_cli(["count", "--out", str(out), "--param", "d=5",
                 "--param", "b=6", "--param", "N=32",
                 "--param", "mem_budget=1000000"])
    assert r.returncode == 3
    assert "budget" in r.stderr.lower()


def test_int64_overflow_exit_code(tmp_path):
    # d=9, b=3, N=64: the packed (A, B) keys would wrap in int64
    out = tmp_path / "run"
    r = run_cli(["count", "--out", str(out), "--param", "d=9",
                 "--param", "b=3", "--param", "N=64"])
    assert r.returncode == 2
    assert len(r.stderr.splitlines()) == 1 and "int64" in r.stderr
    assert not (out / "count_scan.csv").exists()


def test_inexact_frequency_exit_code(tmp_path):
    # 1553^5 is past 2^53, so the flow's frequency would not be exact
    out = tmp_path / "run"
    r = run_cli(["solve", "--out", str(out), "--param", "mode=1553"])
    assert r.returncode == 2
    assert len(r.stderr.splitlines()) == 1 and "2^53" in r.stderr
    assert not (out / "picard.csv").exists()


def test_gauge_check_projects_a_harmonic_final_iterate(tmp_path):
    # max_iter=2 ends on an exact iterate, which is sampled once for both residuals
    out = tmp_path / "run"
    r = run_cli(["gauge-check", "--out", str(out), "--param", "band_cap=8",
                 "--param", "time_samples=65", "--param", "max_iter=2"])
    assert r.returncode == 0, r.stderr
    rep = json.loads((out / "gauge.json").read_text())
    assert rep["residual_gauged_equation"] < 1e-7
    assert rep["residual_original_equation"] < 1e-7
    assert rep["theta_final"] > 0.0


def test_lock_file_blocks_concurrent_runs(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / ".dlab.lock").write_text("")
    r = run_cli(["count", "--out", str(out), "--param", "N=1"])
    assert r.returncode == 2
    assert "locked" in r.stderr


def test_deterministic_csv_bytes(tmp_path):
    # identical config -> identical bytes for the data columns; the
    # count CSV carries a runtime column, so compare all other fields
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        r = run_cli(["illposed", "--out", str(out), "--param", "N=8,16",
                     "--param", "case=p1"])
        assert r.returncode == 0
        outs.append((out / "illposed.csv").read_bytes())
    assert outs[0] == outs[1]


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nd=3\nb=2\nN=1,2\n")
    out = tmp_path / "run"
    r = run_cli(["count", "--config", str(cfg), "--out", str(out),
                 "--param", "N=1"])
    assert r.returncode == 0
    lines = (out / "count_scan.csv").read_text().splitlines()
    assert len(lines) == 2  # flag N=1 beats file N=1,2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["N"] == [1]


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nope=1\n")
    r = run_cli(["count", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert r.returncode == 2


def test_unknown_param_key_rejected(tmp_path):
    out = tmp_path / "run"
    r = run_cli(["levelset", "--out", str(out), "--param", "sampels=10"])
    assert r.returncode == 2
    assert "sampels" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["count", "illposed", "solve", "gauge-check"])
def test_seed_only_where_read(tmp_path, command):
    r = run_cli([command, "--out", str(tmp_path / "run"), "--param", "seed=1"])
    assert r.returncode == 2
    assert "seed" in r.stderr


def test_threads_flag_removed(tmp_path):
    r = run_cli(["count", "--out", str(tmp_path / "run"), "--threads", "2",
                 "--param", "N=1"])
    assert r.returncode == 2
    assert "--threads" in r.stderr


def test_solve_outputs(tmp_path):
    out = tmp_path / "run"
    r = run_cli(["solve", "--out", str(out), "--param", "band_cap=8",
                 "--param", "time_samples=65", "--param", "max_iter=6"])
    assert r.returncode == 0, r.stderr
    report = json.loads((out / "solve_report.json").read_text())
    assert report["contraction"] is True
    assert (out / "trajectory.json").exists()
    rows = (out / "picard.csv").read_text().splitlines()
    assert rows[0] == "j,diff_norm,representation,terms,truncated_mass"


def test_gauge_check_outputs(tmp_path):
    out = tmp_path / "run"
    r = run_cli(["gauge-check", "--out", str(out), "--param", "band_cap=8",
                 "--param", "time_samples=65"])
    assert r.returncode == 0, r.stderr
    rep = json.loads((out / "gauge.json").read_text())
    assert rep["residual_original_equation"] < 1e-6


def test_weyl_arcs_dump(tmp_path):
    out = tmp_path / "run"
    r = run_cli(["weyl", "--out", str(out), "--param", "N=8",
                 "--param", "count=3", "--param", "arcs=4"])
    assert r.returncode == 0, r.stderr
    arcs = (out / "arcs.txt").read_text().splitlines()
    assert any(line.startswith("1/4 ") for line in arcs)
    csv_lines = (out / "weyl_scan.csv").read_text().splitlines()
    assert csv_lines[0] == "N,Q,quantity,bound,ratio"


def test_levelset_command_and_determinism(tmp_path):
    csvs = []
    for name in ("a", "b"):
        out = tmp_path / name
        r = run_cli(["levelset", "--out", str(out), "--param", "case=kernel",
                     "--param", "N=8", "--param", "samples=20000",
                     "--param", "points=5", "--param", "min_hits=10"])
        assert r.returncode == 0, r.stderr
        csvs.append((out / "levelset.csv").read_bytes())
        rep = json.loads((out / "decay_report.json").read_text())
        assert rep["case"] == "kernel"
    assert csvs[0] == csvs[1]


def test_levelset_rejects_unknown_case(tmp_path):
    r = run_cli(["levelset", "--out", str(tmp_path / "x"),
                 "--param", "case=banana"])
    assert r.returncode == 2


def test_strichartz_command(tmp_path):
    out = tmp_path / "run"
    r = run_cli(["strichartz", "--out", str(out), "--param", "d=5",
                 "--param", "p=12", "--param", "N=4,8",
                 "--param", "strategies=single,all_ones"])
    assert r.returncode == 0, r.stderr
    lines = (out / "envelope.csv").read_text().splitlines()
    assert lines[0] == "N,p,d,envelope,theory_upper"
    assert (out / "envelope.svg").exists()


def test_kernel_command(tmp_path):
    out = tmp_path / "run"
    r = run_cli(["kernel", "--out", str(out), "--param", "N=4",
                 "--param", "count=40"])
    assert r.returncode == 0, r.stderr
    rep = json.loads((out / "kernel_report.json").read_text())
    assert rep["k2_hat_on_curve_max"] == 0.0


def test_embeddings_command(tmp_path):
    out = tmp_path / "run"
    r = run_cli(["embeddings", "--out", str(out), "--param", "N=2,4",
                 "--param", "samples=5000", "--param", "delta=0.5"])
    assert r.returncode == 0, r.stderr
    lines = (out / "embeddings.csv").read_text().splitlines()
    assert lines[0] == "trial,l4,xsb,ratio"
    assert len(lines) == 3
