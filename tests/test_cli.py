"""Command line interface wiring and exit codes."""

import os
import subprocess
import sys

import pytest

import cavsta

from cavsta.cli import main


def write_config(tmp_path, out_dir, extra=""):
    ini = tmp_path / "cfg.ini"
    ini.write_text(
        "[geometry]\n"
        "family = contraction\nL0 = 0.0\nLf = 0.3\nR0 = 1.0\neps = 0.3\ntau = 1.2\n"
        "[numerics]\n"
        "temperatures = 0\n"
        "time_step = 0.25\n"
        "spatial_points = 301\n"
        "effective_step = 0.0125\n"
        "window = -1.5 2.2\n"
        "[outputs]\n"
        f"dir = {out_dir}\n"
        + extra
    )
    return str(ini)


def test_run_success_prints_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, tmp_path / "out")
    code = main(["run", cfg])
    out = capsys.readouterr()
    assert code == 0
    assert "trajectories.csv" in out.out
    assert "summary.txt" in out.out
    assert out.err == ""


def test_output_directory_override(tmp_path, capsys):
    cfg = write_config(tmp_path, tmp_path / "ignored")
    code = main(["run", cfg, "--out", str(tmp_path / "moved")])
    out = capsys.readouterr()
    assert code == 0
    assert str(tmp_path / "moved") in out.out
    assert not (tmp_path / "ignored").exists()


def test_missing_config_is_an_error(tmp_path, capsys):
    code = main(["run", str(tmp_path / "absent.ini")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")


def test_unconverged_effective_build_is_an_error(tmp_path, capsys):
    """effective_step = tau leaves the interpolant off its midpoint solves
    after every refinement round: one error line, exit 1, also in strict."""
    cfg = write_config(tmp_path, tmp_path / "out")
    ini = tmp_path / "cfg.ini"
    ini.write_text(ini.read_text().replace("effective_step = 0.0125", "effective_step = 1.2"))
    code = main(["run", cfg, "--strict"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: effective left trajectory misses")


def test_superluminal_warns_without_strict(tmp_path, capsys):
    ini = tmp_path / "fast.ini"
    ini.write_text(
        "[geometry]\n"
        "family = rigid\nLf = 0.4\neps = -0.4\ntau = 0.4\n"
        "[numerics]\n"
        "temperatures = 0\ntime_step = 0.25\nspatial_points = 301\n"
        "effective_step = 0.005\nwindow = -1.2 2.4\n"
        "[outputs]\n"
        f"dir = {tmp_path / 'out'}\n"
    )
    code = main(["run", str(ini)])
    err = capsys.readouterr().err
    assert code == 0
    assert "warning:" in err

    code = main(["run", str(ini), "--strict", "--out", str(tmp_path / "out2")])
    err = capsys.readouterr().err
    assert code == 2
    assert "FAIL:" in err


def test_sweep_subcommand(tmp_path, capsys):
    cfg = write_config(
        tmp_path, tmp_path / "out",
        extra="[sweep]\ntau_list = 2.0 4.0 8.0\n",
    )
    # sweep builds its own windows and steps per tau
    code = main(["sweep", cfg])
    out = capsys.readouterr()
    assert code == 0
    assert "sweep.csv" in out.out


def test_config_typo_is_one_error_line(tmp_path):
    """A slip in the config stops the run with exit code 1 and one line on
    stderr, not a traceback."""
    cfg = write_config(tmp_path, tmp_path / "out", extra="[sweep]\ncritcal = yes\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cavsta.__file__))}
    out = subprocess.run(
        [sys.executable, "-m", "cavsta.cli", "run", cfg], env=env, capture_output=True, text=True
    )
    assert out.returncode == 1
    assert out.stderr.splitlines() == ["error: unknown [sweep] keys: critcal"]
    assert "Traceback" not in out.stdout + out.stderr
    assert not (tmp_path / "out").exists()


def test_reversed_critical_window_is_one_error_line(tmp_path):
    """The critical search window is checked before any sweep row is built."""
    cfg = write_config(
        tmp_path, tmp_path / "out",
        extra="[sweep]\ntau_list = 2.0 4.0 8.0\ncritical = yes\ntau_min = 1.2\ntau_max = 0.2\n",
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cavsta.__file__))}
    for command in ("run", "sweep"):
        out = subprocess.run(
            [sys.executable, "-m", "cavsta.cli", command, cfg],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode == 1
        assert out.stderr.splitlines() == [
            "error: [sweep] tau_min and tau_max: need 0 < tau_min < tau_max, got 1.2 and 0.2"
        ]
        assert "Traceback" not in out.stdout + out.stderr
        assert not (tmp_path / "out").exists()


def test_subcommand_required():
    with pytest.raises(SystemExit):
        main([])


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency: importing the CLI must not pull
    in scipy (which would add most of the start-up time), nor the
    concurrent.futures pools (the program runs serially)."""
    src = os.path.dirname(os.path.dirname(cavsta.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        "import cavsta.cli, sys; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m.startswith('concurrent.futures')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
