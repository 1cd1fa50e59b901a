"""Command line interface wiring and exit codes."""

import math
import os
import subprocess
import sys

import pytest

import cavsta

from cavsta import cli, runner
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


def test_high_temperature_run_succeeds(tmp_path, capsys):
    """T d0 = 2e4 lies past where the direct thermal sum stopped converging
    (about 1.07e4): the run exits 0 with a finite final Q at that T."""
    cfg = write_config(tmp_path, tmp_path / "out")
    ini = tmp_path / "cfg.ini"
    ini.write_text(ini.read_text().replace("temperatures = 0", "temperatures = 0 20000"))
    code = main(["run", cfg])
    assert code == 0 and capsys.readouterr().err == ""
    summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    (q,) = [line.split(" = ")[1] for line in summary if line.startswith("q_eff_final_T20000 ")]
    assert math.isfinite(float(q))


@pytest.mark.parametrize("T, warns", [("0.9550702482491354", True), ("0", False), ("1", False)])
def test_vanishing_kinetic_weight_warns(tmp_path, capsys, T, warns):
    """At T d0 = 0.95507 the kinetic weight, and with it E_ad, is -2.8e-17,
    so Q = E/E_ad is noise: the run warns, and exits 2 under --strict."""
    cfg = write_config(tmp_path, tmp_path / "out")
    ini = tmp_path / "cfg.ini"
    ini.write_text(ini.read_text().replace("temperatures = 0", f"temperatures = {T}"))
    assert main(["run", cfg]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ([f"warning: kinetic weight -2.78e-17 at T={float(T):g} is near zero: "
                    "Q = E/E_ad is ill-conditioned"] if warns else [])
    assert main(["run", cfg, "--strict"]) == (2 if warns else 0)


def test_missing_config_is_an_error(tmp_path, capsys):
    code = main(["run", str(tmp_path / "absent.ini")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")


def test_config_that_is_not_utf8_is_one_error_line(tmp_path, capsys):
    """A config byte that is not UTF-8 text is a parse error, whatever the
    locale: one error line and exit 1, no traceback."""
    ini = tmp_path / "bad.ini"
    ini.write_bytes(b"[geometry]\n# \xff\xfe\ntau = 1.2\n")
    code = main(["run", str(ini)])
    out = capsys.readouterr()
    assert code == 1
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot parse {ini}: ")
    assert "Traceback" not in out.err


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    """A grid too large to allocate (time_step = 1e-9 on this geometry asks
    for 34.3 GiB) is one error line and exit 1, not a traceback.  The
    allocation is stood in for: no large array is made here."""
    message = "Unable to allocate 34.3 GiB for an array with shape (4600000001,)"

    def too_large(*args, **kw):
        raise MemoryError(message)

    monkeypatch.setattr(runner, "_time_grid", too_large)
    code = main(["run", write_config(tmp_path, tmp_path / "out")])
    out = capsys.readouterr()
    assert code == 1
    assert out.err.splitlines() == [f"error: out of memory: {message}"]
    assert "Traceback" not in out.out + out.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "old, new",
    [
        ("time_step = 0.25", "time_step = 1e-300"),
        ("effective_step = 0.0125", "effective_step = 1e-300"),
        ("spatial_points = 301", "spatial_points = 100000000000000000000"),
        ("spatial_points = 301", "spatial_points = 301\nmoore_panels = 100000000000000000000"),
        ("window = -1.5 2.2", "window = -1e300 1e300"),
        ("Lf = 0.3\nR0 = 1.0", "Lf = 3e299\nR0 = 1e300"),
    ],
    ids=["time_step", "effective_step", "spatial_points", "moore_panels", "window", "R0"],
)
def test_grid_past_the_index_limit_is_one_error_line(tmp_path, capsys, old, new):
    """A grid past numpy's index limit raises ValueError, not MemoryError,
    and is the same one error line and exit 1 as a grid too large to
    allocate, and leaves no output directory behind.  The R0 case scales
    the cavity's lengths by 1e300: each effective mirror's null grid spans
    its own motion, so the left one's is past the limit too."""
    cfg = write_config(tmp_path, tmp_path / "out")
    ini = tmp_path / "cfg.ini"
    ini.write_text(ini.read_text().replace(old, new))
    code = main(["run", cfg])
    out = capsys.readouterr()
    assert code == 1
    assert out.err.splitlines() == ["error: out of memory: Maximum allowed size exceeded"]
    assert not (tmp_path / "out").exists()


def test_adiabatic_maps_flat_to_rounding_are_one_error_line(tmp_path, capsys):
    """R0 = 1e300 with the left mirror moving by 0.3: the left mirror's
    share of the adiabatic maps, 2L/(R - L), is below their rounding, so
    neither map rises across its table.  The left build refuses, as one
    error line naming the side and exit 1, instead of solving noise."""
    cfg = write_config(tmp_path, tmp_path / "out")
    ini = tmp_path / "cfg.ini"
    ini.write_text(ini.read_text().replace("R0 = 1.0", "R0 = 1e300"))
    code = main(["run", cfg])
    out = capsys.readouterr()
    assert code == 1
    assert out.err.splitlines() == [
        "error: effective left trajectory: neither F_ad nor G_ad rises across its table"
    ]
    assert "Traceback" not in out.out + out.err
    assert not (tmp_path / "out").exists()


def test_temperature_past_the_float_range_is_one_error_line(tmp_path, capsys):
    """At T d0 = 1e200 the thermal sum Z overflows: one error line naming
    the temperature and exit 1, where the run once wrote NaN Q values."""
    cfg = write_config(tmp_path, tmp_path / "out")
    ini = tmp_path / "cfg.ini"
    ini.write_text(ini.read_text().replace("temperatures = 0", "temperatures = 0 1e200"))
    code = main(["run", cfg])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err.splitlines() == [
        "error: [numerics] temperatures: T=1e+200: "
        "thermal sum overflows the float range at argument 1e+200"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_refused_work_removes_only_the_directories_it_made(tmp_path, capsys, command):
    """A run or sweep that stops inside its work (here the table of
    moore_panels = 1e20) removes the output directories it made, parents
    too, and leaves one that existed before the run."""
    extra = "[sweep]\ntau_list = 1.0 1.2 1.4\n"
    for out_dir, made in ((tmp_path / "new" / "out", tmp_path / "new"), (tmp_path / "old", None)):
        if made is None:
            out_dir.mkdir()
        cfg = write_config(tmp_path, out_dir, extra)
        ini = tmp_path / "cfg.ini"
        ini.write_text(ini.read_text().replace(
            "spatial_points = 301", "spatial_points = 301\nmoore_panels = 100000000000000000000"
        ))
        assert main([command, cfg]) == 1
        assert capsys.readouterr().err.startswith("error: out of memory")
        assert out_dir.is_dir() if made is None else not made.exists()


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


def test_temperatures_sharing_a_label_are_an_error(tmp_path, capsys):
    """1 and 1.0000001 would both label their energy.csv columns and summary
    keys T1: one error line and exit 1, before any artifact is written."""
    cfg = write_config(tmp_path, tmp_path / "out")
    ini = tmp_path / "cfg.ini"
    ini.write_text(ini.read_text().replace("temperatures = 0", "temperatures = 1 1.0000001"))
    code = main(["run", cfg])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == "" and not (tmp_path / "out").exists()
    assert out.err.splitlines() == [
        "error: [numerics] temperatures: must differ in their first 6 significant digits, "
        "got (1.0, 1.0000001)"
    ]


def test_hard_failures_exit_1_and_still_list_artifacts(tmp_path, capsys, monkeypatch):
    """A residual above a hard bound fails the run with exit code 1, one
    FAIL line per check, and the artifacts written all the same."""
    monkeypatch.setattr(runner, "_EXACT_RESIDUAL_MAX", 0.0)
    monkeypatch.setattr(runner, "_EFFECTIVE_RESIDUAL_MAX", 0.0)
    code = main(["run", write_config(tmp_path, tmp_path / "out")])
    out = capsys.readouterr()
    assert code == 1
    fails = out.err.splitlines()
    assert len(fails) == 3
    assert all(line.startswith("FAIL: ") and line.endswith(" above 0.0") for line in fails)
    assert fails[0].startswith("FAIL: exact Moore residual ")
    names = ["trajectories.csv", "moore.csv", "energy.csv", "summary.txt"]
    assert out.out.splitlines() == [str(tmp_path / "out" / name) for name in names]


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


def test_infinite_temperature_is_one_error_line(tmp_path):
    """An infinite temperature stops the run before any work, with one
    error line instead of a traceback from the thermal state."""
    cfg = write_config(tmp_path, tmp_path / "out")
    ini = tmp_path / "cfg.ini"
    ini.write_text(ini.read_text().replace("temperatures = 0\n", "temperatures = 0 inf\n"))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cavsta.__file__))}
    out = subprocess.run(
        [sys.executable, "-m", "cavsta.cli", "run", cfg], env=env, capture_output=True, text=True
    )
    assert out.returncode == 1
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not (tmp_path / "out").exists()


def test_subcommand_required():
    with pytest.raises(SystemExit):
        main([])


def test_options_parse_anywhere_with_unique_prefixes(tmp_path, monkeypatch):
    """--out=DIR, a cut-down --str and --threads N parse before, between and
    after the command and the config."""
    seen = []

    def record(cfg):
        seen.append(cfg)
        return runner.RunResult(config=cfg)

    monkeypatch.setitem(cli._COMMANDS, "run", record)
    cfg = write_config(tmp_path, tmp_path / "out")
    moved = str(tmp_path / "moved")
    assert main(["--str", "run", f"--out={moved}", cfg, "--threads", "3"]) == 0
    assert main(["run", cfg]) == 0
    assert [(c.strict, c.out_dir) for c in seen] == [(True, moved), (False, str(tmp_path / "out"))]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "CFG", "--bogus"], "error: option --bogus not recognized"),
        (["run", "CFG", "--out"], "error: option --out requires argument"),
        (["run", "CFG", "--threads", "two"], "error: --threads takes an integer, got 'two'"),
        (["walk", "CFG"], "error: a command is required: run or sweep, got 'walk'"),
        (["sweep"], "error: the config file is required"),
        (["run", "CFG", "CFG"], "error: unexpected arguments: CFG"),
    ],
)
def test_command_line_that_does_not_parse_exits_2(tmp_path, capsys, argv, message):
    """A command line that does not parse prints the usage line and one
    error line, and exits 2 before reading the config."""
    with pytest.raises(SystemExit) as exc:
        main([str(tmp_path / "absent.ini") if a == "CFG" else a for a in argv])
    assert exc.value.code == 2
    out = capsys.readouterr()
    message = message.replace("CFG", str(tmp_path / "absent.ini"))
    assert out.out == ""
    assert out.err.splitlines() == [cli._USAGE, message]


@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
def test_help_prints_the_module_docstring(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["run", flag])
    assert exc.value.code == 0
    out = capsys.readouterr()
    assert out.out == cli.__doc__.strip() + "\n" and out.err == ""


def test_run_and_sweep_import_no_argparse(tmp_path):
    """`python -m cavsta.cli run|sweep` parses its line without argparse,
    whose import and parser cost a call about 0.5 MB of peak memory."""
    src = os.path.dirname(os.path.dirname(cavsta.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    cfg = write_config(tmp_path, tmp_path / "out", extra="[sweep]\ntau_list = 2.0 4.0 8.0\n")
    for command in ("run", "sweep"):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "cavsta.cli", command, cfg],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        imported = [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()]
        assert "cavsta.runner" in imported
        assert "argparse" not in imported


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


def test_run_and_sweep_load_no_masked_or_polynomial_numpy(tmp_path):
    """A run and a critical sweep compute with numpy's core only: neither
    `numpy.ma` (which `np.unique` imports on first use) nor
    `numpy.polynomial` is loaded.  Whole package names are matched, since
    `numpy.matrixlib`, loaded by `import numpy`, starts with "numpy.ma"."""
    src = os.path.dirname(os.path.dirname(cavsta.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    banned = ("numpy.ma", "numpy.polynomial")
    listing = (
        "import sys; print(sorted(m for m in sys.modules "
        f"if any(m == b or m.startswith(b + '.') for b in {banned!r})))"
    )
    bare = subprocess.run(
        [sys.executable, "-c", "import numpy; " + listing],
        env=env, capture_output=True, text=True, check=True,
    )
    if bare.stdout.strip() != "[]":
        pytest.skip(f"import numpy alone loads {bare.stdout.strip()}")
    cfg = write_config(
        tmp_path, tmp_path / "out",
        extra="[sweep]\ntau_list = 2.0 4.0 8.0\ncritical = yes\n",
    )
    probe = (
        "from cavsta import runner; "
        f"cfg = runner.load_config({cfg!r}); "
        "runner.run(cfg); runner.sweep_tau(cfg); " + listing
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_output_path_that_is_a_file_fails_before_any_work(tmp_path, capsys, monkeypatch, command):
    """An output directory that cannot be made (here an existing file) is
    one error line naming it and exit 1, before any scenario is built, not
    a traceback after the whole computation."""
    cfg = write_config(tmp_path, tmp_path / "out", extra="[sweep]\ntau_list = 2.0 4.0 8.0\n")
    target = tmp_path / "taken"
    target.write_text("")

    def refuse(*args, **kw):
        raise AssertionError("a scenario was built")

    monkeypatch.setattr(runner, "_scenario", refuse)
    code = main([command, cfg, "--out", str(target)])
    out = capsys.readouterr()
    assert code == 1
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and str(target) in lines[0]
    assert "Traceback" not in out.out + out.err
