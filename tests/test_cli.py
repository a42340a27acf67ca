import hashlib
import json
import os
import subprocess
import sys
import textwrap

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
    assert lines[0] == "d,b,N,S"
    assert lines[1] == "3,2,1,19"
    manifest = json.loads((out / "manifest.json").read_text())
    [row] = manifest["row_runtime_ms"]
    assert (row["d"], row["b"], row["N"]) == (3, 2, 1) and row["runtime_ms"] >= 0


def test_count_scan_rerun_byte_identical(tmp_path):
    # wall times go to the manifest, so the CSV depends on the config alone
    outs = []
    for k in range(2):
        out = tmp_path / f"run{k}"
        r = run_cli(["count", "--out", str(out), "--param", "d=3",
                     "--param", "b=2,3", "--param", "N=2,4"])
        assert r.returncode == 0, r.stderr
        outs.append((out / "count_scan.csv").read_bytes())
    assert outs[0] == outs[1]


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


# (command, params, a word the one stderr line must contain)
BAD_CONFIGS = [
    ("solve", ["time_samples=1"], "time_samples"),
    ("gauge-check", ["time_samples=1"], "time_samples"),
    ("levelset", ["samples=0"], "samples"),
    ("levelset", ["N=0"], "N"),
    ("count", ["N=0"], "N"),
    ("count", ["b=0"], "b"),
    ("kernel", ["N=1"], "N"),
    ("illposed", ["N=0"], "N"),
    ("solve", ["delta=0"], "delta"),
    ("embeddings", ["delta=0"], "delta"),
    ("embeddings", ["samples=0"], "samples"),
    ("strichartz", ["strategies=foo"], "strategies"),
    ("strichartz", ["strategies="], "strategies"),
    # arcs is 0 (no dump) or a Farey level Q >= 2
    ("weyl", ["arcs=1"], "arcs"),
    # lambda^(2^d+2) of the decay ratio leaves float64 (kernel case: 2N = 240)
    ("levelset", ["d=7", "N=120"], "overflows"),
    # 1553^5 is past 2^53, so curve_sum refuses a float t
    ("levelset", ["d=5", "N=1553"], "2^53"),
    # every float key refuses inf and nan; 1e400 parses as inf
    ("embeddings", ["delta=inf"], "delta"),
    ("embeddings", ["delta=1e400"], "delta"),
    ("solve", ["delta=inf"], "delta"),
    ("gauge-check", ["delta=inf"], "delta"),
    ("solve", ["amp=nan"], "amp"),
    ("gauge-check", ["s=nan"], "s"),
    ("illposed", ["s=-inf"], "s"),
    # a slope needs two distinct N
    ("illposed", ["N=16"], "distinct"),
    ("illposed", ["N=1"], "distinct"),
    ("illposed", ["N=8,8"], "distinct"),
    # moduli up to 5 N^(d-1) = 5,242,880 are past the 10^6 sieve
    ("kernel", ["d=5", "N=32"], "sieve"),
    ("kernel", ["N=16,1000"], "sieve"),
    # no primes in the sieve above N^(d-1)
    ("weyl", ["d=3", "N=2000"], "primes"),
    ("weyl", ["d=4", "N=101"], "primes"),
    ("weyl", ["N=64,1000"], "primes"),
]


@pytest.mark.parametrize("command,params,word", BAD_CONFIGS,
                         ids=["-".join([c] + p) for c, p, _ in BAD_CONFIGS])
def test_bad_config_values_exit_2(tmp_path, command, params, word):
    out = tmp_path / "run"
    r = run_cli([command, "--out", str(out)] + [a for p in params for a in ("--param", p)])
    assert r.returncode == 2, r.stderr
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:") and word in lines[0]
    assert not out.exists() or os.listdir(out) == []


# values inside the config domains whose results leave the float64 range:
# Picard's diff norms overflow, or the s = 50 response underflows to 0. numpy
# may warn on stderr first; the last line is the config error
FLOAT_RANGE = [
    ("solve", "delta=1e3", "diverged"),
    ("solve", "delta=1e6", "diverged"),
    ("solve", "delta=5e6", "diverged"),
    ("solve", "amp=1e200", "diverged"),
    ("illposed", "s=50", "response"),
]


@pytest.mark.parametrize("command,param,word", FLOAT_RANGE,
                         ids=[f"{c}-{p}" for c, p, _ in FLOAT_RANGE])
def test_float_range_failures_exit_2(tmp_path, command, param, word):
    out = tmp_path / "run"
    r = run_cli([command, "--out", str(out), "--param", param])
    assert r.returncode == 2, r.stderr
    last = r.stderr.splitlines()[-1]
    assert last.startswith("config error:") and word in last
    assert not list(out.glob("*.csv"))


def test_gauge_check_samples_on_the_picard_grid(tmp_path):
    # picard_solve rounds 64 samples up to 65; a harmonic final iterate is
    # sampled on that grid, step delta/64
    out = tmp_path / "run"
    r = run_cli(["gauge-check", "--out", str(out), "--param", "band_cap=8",
                 "--param", "time_samples=64", "--param", "max_iter=2"])
    assert r.returncode == 0, r.stderr
    rep = json.loads((out / "gauge.json").read_text())
    assert rep["time_step"] == pytest.approx(1e-3 / 64, rel=1e-12)


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


def test_gauge_check_band_cap_follows_the_nonlinearity(tmp_path):
    # k = 4 gives P1 = u^4, whose products reach band 5 band_cap = 60
    out = tmp_path / "run"
    r = run_cli(["gauge-check", "--out", str(out), "--param", "k=4", "--param", "mode=12"])
    assert r.returncode == 0, r.stderr
    assert (out / "gauge.json").exists()


def test_cli_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency: importing the CLI and running the
    # sampled Picard and gauge paths must leave scipy unimported
    script = textwrap.dedent(f"""
        import sys
        from dispersive_lab import cli
        for command in ("solve", "gauge-check"):
            argv = [command, "--out", {str(tmp_path)!r} + "/" + command,
                    "--param", "band_cap=8", "--param", "time_samples=65"]
            assert cli.main(argv) == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert "sampled" in (tmp_path / "solve" / "picard.csv").read_text()
    assert r.stdout.strip() == "[]"


def test_levelset_rejects_several_n(tmp_path):
    out = tmp_path / "run"
    r = run_cli(["levelset", "--out", str(out), "--param", "N=8,64",
                 "--param", "samples=2000"])
    assert r.returncode == 2
    assert r.stderr.startswith("config error:") and "one N" in r.stderr
    assert os.listdir(out) == []


@pytest.mark.parametrize("value,code", [("ture", 2), ("maybe", 2), ("", 2),
                                        ("YES", 0), ("False", 0), ("0", 0)])
def test_bool_param_spellings(tmp_path, value, code):
    out = tmp_path / "run"
    r = run_cli(["count", "--out", str(out), "--param", "N=1",
                 "--param", f"table={value}"])
    assert r.returncode == code, r.stderr
    if code == 2:
        assert r.stderr.startswith("config error:") and "table" in r.stderr
    else:
        tables = [p for p in os.listdir(out) if p.startswith("table_")]
        assert bool(tables) == (value == "YES")


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


RERUN_CONFIGS = {
    "strichartz": ["d=5", "p=12", "N=4", "strategies=single,random", "draws=2"],
    "weyl": ["N=8,16", "count=4"],
    "kernel": ["N=4", "count=40"],
    "embeddings": ["N=2,4", "samples=5000"],
}


@pytest.mark.parametrize("command", sorted(RERUN_CONFIGS))
def test_seeded_rerun_byte_identical(tmp_path, command):
    # every output but the manifest, which records wall times, depends on the
    # config (seed included) alone
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        r = run_cli([command, "--out", str(out)]
                    + [a for p in RERUN_CONFIGS[command] for a in ("--param", p)])
        assert r.returncode == 0, r.stderr
        outs.append({f: (out / f).read_bytes() for f in os.listdir(out) if f != "manifest.json"})
    assert outs[0] and outs[0] == outs[1]


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


# sha256 of the dispersive commands' default outputs (every file but
# manifest.json), taken before the exact Picard path moved to columns
# (numpy 2.4, x86-64 with AVX-512; another libm or SIMD level may round
# some floats differently)
DISPERSIVE_DIGESTS = [
    ("solve", {}, {
        "picard.csv": "5e5a280bf564958c756b3e88f75c1086f9bb5d1b99df7c2f121930cad1bf9612",
        "solve_report.json": "854986423b91dac8a978f2d8d423b58427da51921b56a0809e6702e5e8e1e253",
        "trajectory.json": "c9172f40be8bbe3bb1883b0b42292e6a2fa4660c2284316fe7f35ed55a893db0"}),
    ("gauge-check", {}, {
        "gauge.json": "51bdf1e2e3fb2801c9d014d7fde58c95a2eda635014089d78a9a8380a2194841"}),
    ("illposed", {"case": "p1"}, {
        "illposed.csv": "0f9852effa747507eee325b903c254fae310e9a401c245e6efd574dcddb51af8",
        "illposed.svg": "7809937b4f66c2529948c47d30107fc9cef8a17b3bf63b47564bb35f2e98e3a4",
        "slope.json": "b0bbc7f0f5823fc990d8e5d0f8b0f1ecaff2c14092e9225f17a3f66a592a6a1b"}),
    ("illposed", {"case": "p2"}, {
        "illposed.csv": "76cd603224a57e0efcae40a3ec0f766fbb32d46d1cc3569b8170a115c265f2d6",
        "illposed.svg": "b691da627854fb2076b77c8bc17d02f6e98256b4197451c59967d3f80f553671",
        "slope.json": "dc17cec4b25d9628842449376ba6712cfcc5222b122f1a6f071662e5ea4b4b39"}),
    ("embeddings", {}, {
        "embeddings.csv": "92c0c5da27ec848cc7a5e00a4a2a45a494e5cca8be76949a58d59c9b4a6d5652"}),
]


@pytest.mark.parametrize("command, params, digests", DISPERSIVE_DIGESTS,
                         ids=["solve", "gauge-check", "illposed-p1", "illposed-p2", "embeddings"])
def test_dispersive_outputs_bytes_pinned(tmp_path, command, params, digests):
    from dispersive_lab import cli

    argv = [command, "--out", str(tmp_path)]
    for key, val in params.items():
        argv += ["--param", f"{key}={val}"]
    assert cli.main(argv) == 0
    files = json.loads((tmp_path / "manifest.json").read_text())["files"]
    assert sorted(files) == sorted(digests)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in files}
    assert got == digests
