"""Tests for the flowctl command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from flowctl.cli import main


TINY_CONFIG = """
episodes = 2
max_agent_steps = 120
buffer_capacity = 200
batch_size = 50
vehicles = 30
spawn_horizon = 30
"""


@pytest.fixture
def tiny_config_file(tmp_path):
    path = tmp_path / "tiny.conf"
    path.write_text(TINY_CONFIG)
    return path


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def test_run_fixed_writes_artifacts(tiny_config_file, tmp_path, capsys):
    out = tmp_path / "fx"
    rc = run_cli("run", "--mode", "fixed", "--config", tiny_config_file,
                 "--seed", "3", "--out", out)
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"metrics.csv", "config.txt", "summary.txt",
                     "detectors.csv"}
    stdout = capsys.readouterr().out
    assert "fixed seed 3: 2 episodes" in stdout
    assert "arrived 30" in stdout


def test_run_rl_writes_policy(tiny_config_file, tmp_path):
    out = tmp_path / "rl"
    rc = run_cli("run", "--mode", "rl", "--config", tiny_config_file,
                 "--seed", "3", "--out", out)
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert "policy.bin" in names
    assert "reroutes.csv" not in names


def test_run_rl_reroute_writes_reroute_log(tiny_config_file, tmp_path, capsys):
    out = tmp_path / "rr"
    rc = run_cli("run", "--mode", "rl-reroute", "--config", tiny_config_file,
                 "--seed", "3", "--out", out)
    assert rc == 0
    assert (out / "reroutes.csv").is_file()
    assert "reroute decisions:" in capsys.readouterr().out


def test_unknown_config_key_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("bogus_key = 1\n")
    rc = run_cli("run", "--mode", "fixed", "--config", bad,
                 "--out", tmp_path / "x")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "bogus_key" in err


def test_missing_config_file_exits_1(tmp_path, capsys):
    rc = run_cli("run", "--mode", "fixed",
                 "--config", tmp_path / "absent.conf",
                 "--out", tmp_path / "x")
    assert rc == 1
    assert "config error:" in capsys.readouterr().err


def test_runtime_failure_exits_2(tmp_path, capsys, monkeypatch):
    import flowctl.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(cli_mod, "run_phase", boom)
    rc = run_cli("run", "--mode", "fixed", "--out", tmp_path / "x")
    assert rc == 2
    assert "error: disk on fire" in capsys.readouterr().err


def test_summarize_over_run_dirs(tiny_config_file, tmp_path, capsys):
    fx, rl = tmp_path / "fx", tmp_path / "rl"
    assert run_cli("run", "--mode", "fixed", "--config", tiny_config_file,
                   "--out", fx) == 0
    assert run_cli("run", "--mode", "rl", "--config", tiny_config_file,
                   "--out", rl) == 0
    capsys.readouterr()  # drop run output

    report_file = tmp_path / "report.txt"
    rc = run_cli("summarize", fx, rl, "--out", report_file)
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "rl vs fixed" in stdout
    assert report_file.read_text() == stdout


def test_summarize_out_creates_missing_directory(tiny_config_file, tmp_path, capsys):
    fx = tmp_path / "fx"
    assert run_cli("run", "--mode", "fixed", "--config", tiny_config_file,
                   "--out", fx) == 0
    capsys.readouterr()
    report_file = tmp_path / "reports" / "new" / "report.txt"
    assert run_cli("summarize", fx, "--out", report_file) == 0
    assert report_file.read_text() == capsys.readouterr().out
    assert [p.name for p in report_file.parent.iterdir()] == ["report.txt"]


def test_summarize_requires_fixed_baseline(tiny_config_file, tmp_path, capsys):
    rl = tmp_path / "rl"
    assert run_cli("run", "--mode", "rl", "--config", tiny_config_file,
                   "--out", rl) == 0
    capsys.readouterr()
    rc = run_cli("summarize", rl)
    assert rc == 1
    assert "fixed" in capsys.readouterr().err


def test_summarize_rejects_duplicate_modes(tiny_config_file, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("run", "--mode", "fixed", "--config", tiny_config_file,
                       "--out", out) == 0
    capsys.readouterr()
    rc = run_cli("summarize", a, b)
    assert rc == 1
    assert "two fixed run directories" in capsys.readouterr().err


def test_summarize_rejects_non_run_directory(tmp_path, capsys):
    rc = run_cli("summarize", tmp_path)
    assert rc == 1
    assert "not a run directory" in capsys.readouterr().err


def test_sweep_command_prints_ranks(tiny_config_file, tmp_path, capsys):
    out = tmp_path / "sw"
    rc = run_cli("sweep", "--axis", "gamma", "--seeds", "3",
                 "--config", tiny_config_file, "--out", out)
    assert rc == 0
    stdout = capsys.readouterr().out
    assert (out / "comparison.csv").is_file()
    assert (out / "summary.csv").is_file()
    for rank in (1, 2, 3, 4):
        assert f"rank {rank}:" in stdout
    assert "[claimed_best]" in stdout


def test_sweep_bad_seed_list_exits_1(tiny_config_file, tmp_path, capsys):
    rc = run_cli("sweep", "--axis", "gamma", "--seeds", "7,boom",
                 "--config", tiny_config_file, "--out", tmp_path / "sw")
    assert rc == 1
    assert "bad seed list" in capsys.readouterr().err


def test_console_script_help():
    proc = subprocess.run(["flowctl", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "run" in proc.stdout
    assert "sweep" in proc.stdout
    assert "summarize" in proc.stdout


def test_module_invocation_help():
    proc = subprocess.run([sys.executable, "-m", "flowctl.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "flowctl" in proc.stdout


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_cli_pins_blas_threads_unless_already_set():
    code = ("import os, flowctl.cli; "
            f"print(*(os.environ[k] for k in {BLAS_VARS!r}))")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    for preset, expected in (({}, ["1", "1", "1"]),
                             ({"OMP_NUM_THREADS": "2"}, ["1", "2", "1"])):
        proc = subprocess.run([sys.executable, "-c", code], env={**env, **preset},
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == expected
