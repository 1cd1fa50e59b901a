"""Scenario runner: config parsing, artifacts, reproducibility, exit codes."""

import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from cavsta import sta
from cavsta.errors import CavstaError
from cavsta.moore_adiabatic import AdiabaticMoore
from cavsta.moore_exact import ExactMoore
from cavsta.runner import _FINITE, _KEYS, RunConfig, load_config, run, sweep_tau
from cavsta.trajectory import _reference_path, make_reference, piecewise_extremes

from test_tables import flat_c3_tables
from util import poly_derivative, whole_cavity_root

# coarse numerics keep these tests fast; physics accuracy is covered elsewhere
FAST = dict(
    time_step=0.25,
    spatial_points=301,
    effective_step=1.2 / 96,
    window=(-1.5, 2.2),
    temperatures=(0.0, 1.0),
)


def contraction_cfg(out_dir, **kw):
    base = dict(family="contraction", L0=0.0, Lf=0.3, R0=1.0, eps=0.3, tau=1.2)
    base.update(FAST)
    base.update(kw)
    return RunConfig(out_dir=str(out_dir), **base)


def read_csv(path):
    with open(path) as f:
        header = f.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return header, np.atleast_2d(data)


def test_run_writes_all_artifacts(tmp_path):
    res = run(contraction_cfg(tmp_path))
    assert res.exit_code == 0
    names = sorted(os.path.basename(p) for p in res.files)
    assert names == ["energy.csv", "moore.csv", "summary.txt", "trajectories.csv"]
    for p in res.files:
        assert os.path.exists(p)


def test_trajectory_columns(tmp_path):
    res = run(contraction_cfg(tmp_path))
    header, data = read_csv(os.path.join(str(tmp_path), "trajectories.csv"))
    assert header == ["t", "L_ref", "R_ref", "L_eff", "R_eff", "L_lim", "R_lim"]
    t = data[:, 0]
    assert t[0] == -1.5 and t[-1] == pytest.approx(2.2)
    # reference endpoints from the geometry
    assert data[0, 1] == 0.0 and data[0, 2] == 1.0
    assert data[-1, 1] == pytest.approx(0.3) and data[-1, 2] == pytest.approx(0.7)


def test_energy_columns_per_temperature(tmp_path):
    res = run(contraction_cfg(tmp_path))
    header, data = read_csv(os.path.join(str(tmp_path), "energy.csv"))
    assert header[0] == "t"
    assert "E_ref_T0" in header and "Q_eff_T1" in header
    assert len(header) == 1 + 5 * 2
    qeff = data[:, header.index("Q_eff_T0")]
    assert np.all(np.isfinite(qeff))
    assert qeff[0] == pytest.approx(1.0, abs=1e-6)


def test_summary_sections(tmp_path):
    res = run(contraction_cfg(tmp_path))
    text = open(os.path.join(str(tmp_path), "summary.txt")).read()
    for section in ("[geometry]", "[numerics]", "[outputs]", "[results]"):
        assert section in text
    assert "continuity_check = no" in text
    assert "realizable_left = yes" in text
    assert res.summary["results"]["exact_reference_available"] is True


def test_summary_reports_kinetic_weight(tmp_path):
    """The thermal weight that scales E_ad is reported per temperature; at
    T = 1, d0 = 1 it sits near its zero, where Q is ill-conditioned."""
    res = run(contraction_cfg(tmp_path))
    results = res.summary["results"]
    assert results["kinetic_weight_T0"] == pytest.approx(-np.pi / 24.0, rel=1e-15)
    assert results["kinetic_weight_T1"] == pytest.approx(0.0235549519, abs=1e-9)
    text = open(os.path.join(str(tmp_path), "summary.txt")).read()
    assert "kinetic_weight_T1 = 0.0235549519" in text
    assert not any(key.startswith("note_") for key in results)


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(contraction_cfg(a))
    run(contraction_cfg(b))
    for name in ("trajectories.csv", "moore.csv", "energy.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_csv_selection(tmp_path):
    """Each CSV a subset run writes is the full run's file byte for byte,
    its summary differs only in the [outputs] csv line, and an empty
    selection writes the summary alone."""
    assert run(contraction_cfg(tmp_path / "all")).exit_code == 0
    summary = (tmp_path / "all" / "summary.txt").read_text().splitlines()
    for name in ("trajectories", "moore", "energy", None):
        csv = (name,) if name else ()
        out = tmp_path / (name or "none")
        res = run(contraction_cfg(out, csv=csv))
        files = [f"{n}.csv" for n in csv] + ["summary.txt"]
        assert [os.path.basename(p) for p in res.files] == files
        for f in files[:-1]:
            assert (out / f).read_bytes() == (tmp_path / "all" / f).read_bytes()
        lines = (out / "summary.txt").read_text().splitlines()
        differ = [(a, b) for a, b in zip(lines, summary) if a != b]
        assert len(lines) == len(summary)
        assert differ == [(f"csv = {name or ''}", "csv = trajectories, moore, energy")]


def test_one_trace_per_moore_map(tmp_path, monkeypatch):
    """A run traces each map of each pair once: the energy batch carries
    the moore.csv samples and the mirror residual arguments too."""
    traces = {}
    trace = ExactMoore._trace

    def counting(self, args, which, order=3):
        traces[id(self), which] = traces.get((id(self), which), 0) + 1
        return trace(self, args, which, order)

    monkeypatch.setattr(ExactMoore, "_trace", counting)
    res = run(contraction_cfg(tmp_path))
    assert res.exit_code == 0
    assert sorted(which for _, which in traces) == ["F", "F", "G", "G"]
    assert list(traces.values()) == [1, 1, 1, 1]


def test_run_moore_values_are_the_standalone_solve(tmp_path):
    """moore.csv's exact columns and the summary's exact residuals, read off
    the energy traces, equal a fresh solver's own solve and residuals."""
    cfg = contraction_cfg(tmp_path)
    res = run(cfg)
    header, data = read_csv(os.path.join(str(tmp_path), "moore.csv"))
    times = data[:, header.index("z")]
    moore = ExactMoore(make_reference(
        cfg.family, L0=cfg.L0, Lf=cfg.Lf, R0=cfg.R0, eps=cfg.eps, tau=cfg.tau
    ))
    assert np.array_equal(data[:, header.index("F_exact")], moore.solve_F(times)[0])
    assert np.array_equal(data[:, header.index("G_exact")], moore.solve_G(times)[0])
    results = res.summary["results"]
    residuals = (results["exact_residual_L"], results["exact_residual_R"])
    assert residuals == moore.residuals(times)


def test_superluminal_scenario_reported_not_fatal(tmp_path):
    cfg = RunConfig(
        family="rigid", L0=0.0, Lf=0.4, R0=1.0, eps=-0.4, tau=0.4,
        time_step=0.25, spatial_points=301, effective_step=0.4 / 96,
        window=(-1.2, 2.4), temperatures=(0.0,), out_dir=str(tmp_path),
    )
    res = run(cfg)
    assert res.exit_code == 0
    assert res.strict_failures
    assert res.summary["results"]["exact_reference_available"] is False
    header, data = read_csv(os.path.join(str(tmp_path), "energy.csv"))
    assert np.all(np.isnan(data[:, header.index("Q_ref_T0")]))
    header, data = read_csv(os.path.join(str(tmp_path), "moore.csv"))
    assert np.all(np.isnan(data[:, header.index("F_exact")]))
    assert np.all(np.isnan(data[:, header.index("G_exact")]))
    assert np.isnan(res.summary["results"]["exact_residual_L"])
    assert np.isnan(res.summary["results"]["exact_residual_R"])

    strict = run(
        RunConfig(**{**cfg.__dict__, "strict": True, "out_dir": str(tmp_path / "s")})
    )
    assert strict.exit_code == 2


def _assert_exact_effective_energy(res, out_dir):
    assert res.exit_code == 0, res.hard_failures
    assert res.summary["results"]["exact_effective_available"] is True
    header, data = read_csv(os.path.join(str(out_dir), "energy.csv"))
    for T in ("0", "1"):
        assert np.all(np.isfinite(data[:, header.index(f"E_eff_T{T}")]))


@pytest.mark.parametrize("window", [(-0.5, 0.8), (-10.0, -5.0)])
def test_window_that_cuts_the_effective_motion(tmp_path, window):
    """A window that ends while the effective mirrors move, or before they
    start, still gets their whole motion: no jump to the final edge value
    at the window end, so the exact effective solve runs."""
    cfg = RunConfig(
        family="contraction", L0=0.0, Lf=0.3, R0=1.0, eps=0.3, tau=1.2,
        window=window, temperatures=(0.0, 1.0), out_dir=str(tmp_path),
    )
    _assert_exact_effective_energy(run(cfg), tmp_path)


def test_default_window_ending_before_the_effective_motion(tmp_path):
    """Lf = 0.8, eps = 0, tau = 4: tau + 3 df = 4.6, but the right effective
    mirror moves until about tau + Rf = 5.  A window cut there still runs;
    the default window ends one light-crossing later, at 5.2."""
    geometry = dict(family="contraction", L0=0.0, Lf=0.8, R0=1.0, eps=0.0, tau=4.0)
    cut = tmp_path / "cut"
    res = run(
        RunConfig(window=(-5.0, 4.6), temperatures=(0.0, 1.0), out_dir=str(cut), **geometry)
    )
    _assert_exact_effective_energy(res, cut)
    # the right mirror at the window end is its solved position, still moving
    header, data = read_csv(str(cut / "trajectories.csv"))
    t_end, r_end = data[-1, 0], data[-1, header.index("R_eff")]
    am = AdiabaticMoore.build(make_reference(**geometry))
    assert r_end == pytest.approx(whole_cavity_root(am, "right", t_end), abs=1e-9)
    assert r_end < 0.999
    # the default window runs past the effective motion, where Q_eff settles to 1
    window = sta.default_window(make_reference(**geometry))
    assert window == pytest.approx((-5.0, 5.2), abs=1e-12)
    whole = tmp_path / "whole"
    res = run(RunConfig(temperatures=(0.0, 1.0), out_dir=str(whole), **geometry))
    _assert_exact_effective_energy(res, whole)
    for T in ("0", "1"):
        assert abs(res.summary["results"][f"q_eff_final_T{T}"] - 1.0) <= 1e-9


def test_config_file_round_trip(tmp_path):
    ini = tmp_path / "case.ini"
    ini.write_text(
        "[geometry]\n"
        "family = contraction\n"
        "L0 = 0.0\nLf = 0.3\nR0 = 1.0\neps = 0.3\ntau = 1.2\n"
        "[numerics]\n"
        "temperatures = 0 1 5\n"
        "time_step = 0.25\n"
        "spatial_points = 301\n"
        "window = -1.5 2.2\n"
        "[outputs]\n"
        f"dir = {tmp_path / 'out'}\n"
        "csv = trajectories\n"
    )
    cfg = load_config(str(ini))
    assert cfg.family == "contraction"
    assert cfg.temperatures == (0.0, 1.0, 5.0)
    assert cfg.time_step == 0.25
    assert cfg.window == (-1.5, 2.2)
    assert cfg.csv == ("trajectories",)


def test_config_auto_markers(tmp_path):
    ini = tmp_path / "auto.ini"
    ini.write_text(
        "[geometry]\nfamily = contraction\nLf = 0.3\neps = 0.3\ntau = 1.2\n"
        "[numerics]\ntime_step = auto\nwindow = auto\n"
    )
    cfg = load_config(str(ini))
    assert cfg.time_step is None
    assert cfg.window is None


_GEOMETRY = "[geometry]\nfamily = contraction\nLf = 0.3\neps = 0.3\n"


def _custom_left(breaks, coeffs):
    """A custom config whose right mirror rests at 1, with the given left table."""
    return (
        f"[geometry]\nfamily = custom\nleft_breaks = {breaks}\nleft_coeffs = {coeffs}\n"
        "right_breaks = 0 1\nright_coeffs = [[1]]\n"
    )


# (config text, what the error must name); each is one slip in an otherwise
# valid config, but for the one that pins which of two slips is reported
_BAD_CONFIGS = {
    "old_numerics_keys": (
        _GEOMETRY + "tau = 1.2\n"
        "[numerics]\nquad_rtol = 1e-8\nspatial_point = 301\ntime_step = auto\n",
        "quad_rtol, spatial_point",
    ),
    "geometry_key_typo": (_GEOMETRY + "tau = 1.2\nesp = 0.3\n", r"\[geometry\] keys: esp"),
    "section_typo": (_GEOMETRY + "tau = 1.2\n[numeric]\ntime_step = 0.1\n", r"\[numeric\]"),
    "outputs_key_typo": (_GEOMETRY + "tau = 1.2\n[outputs]\ncsvs = energy\n", r"\[outputs\] keys: csvs"),
    "unknown_csv_name": (
        _GEOMETRY + "tau = 1.2\n[outputs]\ncsv = energy, trajectory\n",
        r"\[outputs\] csv: cannot parse 'energy, trajectory'",
    ),
    "sweep_key_typo": (_GEOMETRY + "tau = 1.2\n[sweep]\ncritcal = yes\n", r"\[sweep\] keys: critcal"),
    "deleted_root_tol": (
        _GEOMETRY + "tau = 1.2\n[numerics]\nroot_tol = 1e-13\n", r"\[numerics\] keys: root_tol"
    ),
    "half_custom_table": (
        "[geometry]\nfamily = custom\nleft_breaks = 0 1\n"
        "right_breaks = 0 1\nright_coeffs = [[1,0,0,0,0,0,0,0]]\n",
        r"\[geometry\] left_breaks and left_coeffs",
    ),
    "default_section": (_GEOMETRY + "[DEFAULT]\ntau = 1.2\n", r"\[DEFAULT\]"),
    "unparsable_value": (_GEOMETRY + "tau = 1,2\n", r"\[geometry\] tau: cannot parse '1,2'"),
    "zero_time_step": (
        _GEOMETRY + "tau = 1.2\n[numerics]\ntime_step = 0\n", r"\[numerics\] time_step: must be > 0"
    ),
    "zero_moore_panels": (
        _GEOMETRY + "tau = 1.2\n[numerics]\nmoore_panels = 0\n",
        r"\[numerics\] moore_panels: must be >= 1",
    ),
    "negative_effective_refine_tol": (
        _GEOMETRY + "tau = 1.2\n[numerics]\neffective_refine_tol = -1\n",
        r"\[numerics\] effective_refine_tol: must be > 0",
    ),
    "zero_effective_refine_tol": (
        _GEOMETRY + "tau = 1.2\n[numerics]\neffective_refine_tol = 0\n",
        r"\[numerics\] effective_refine_tol: must be > 0",
    ),
    "nan_effective_refine_tol": (
        _GEOMETRY + "tau = 1.2\n[numerics]\neffective_refine_tol = nan\n",
        r"\[numerics\] effective_refine_tol: must be > 0",
    ),
    "negative_effective_step": (
        _GEOMETRY + "tau = 1.2\n[numerics]\neffective_step = -1\n",
        r"\[numerics\] effective_step: must be > 0",
    ),
    "zero_spatial_points": (
        _GEOMETRY + "tau = 1.2\n[numerics]\nspatial_points = 0\n",
        r"\[numerics\] spatial_points: must be >= 1",
    ),
    "negative_temperature": (
        _GEOMETRY + "tau = 1.2\n[numerics]\ntemperatures = 0 -1\n",
        r"\[numerics\] temperatures: must be one or more values >= 0",
    ),
    "empty_temperatures": (
        _GEOMETRY + "tau = 1.2\n[numerics]\ntemperatures =\n",
        r"\[numerics\] temperatures: must be one or more values >= 0, got \(\)",
    ),
    "zero_tau": (_GEOMETRY + "tau = 0\n", r"\[geometry\] tau: must be > 0, got 0\.0"),
    "nan_tau": (_GEOMETRY + "tau = nan\n", r"\[geometry\] tau: must be > 0, got nan"),
    "inf_tau": (_GEOMETRY + "tau = inf\n", r"\[geometry\] tau: must be finite, got inf"),
    "inf_temperature": (
        _GEOMETRY + "tau = 1.2\n[numerics]\ntemperatures = 0 inf\n",
        r"\[numerics\] temperatures: must be finite, got \(0\.0, inf\)",
    ),
    "inf_time_step": (
        _GEOMETRY + "tau = 1.2\n[numerics]\ntime_step = inf\n",
        r"\[numerics\] time_step: must be finite, got inf",
    ),
    "inf_window": (
        _GEOMETRY + "tau = 1.2\n[numerics]\nwindow = 0 inf\n",
        r"\[numerics\] window: must be finite, got \(0\.0, inf\)",
    ),
    "nonpositive_tau_list": (
        _GEOMETRY + "tau = 1.2\n[sweep]\ntau_list = -1 0.5 1\n",
        r"\[sweep\] tau_list: must be ascending values > 0, got \(-1\.0, 0\.5, 1\.0\)",
    ),
    "repeated_tau_list": (
        _GEOMETRY + "tau = 1.2\n[sweep]\ntau_list = 0.5 1 1\n",
        r"\[sweep\] tau_list: must be ascending values > 0",
    ),
    "reversed_window": (
        _GEOMETRY + "tau = 1.2\n[numerics]\nwindow = 2.2 -1.5\n",
        r"\[numerics\] window: must have start < end",
    ),
    "reversed_critical_window": (
        _GEOMETRY + "tau = 1.2\n[sweep]\ncritical = yes\ntau_min = 1.2\ntau_max = 0.2\n",
        r"\[sweep\] tau_min and tau_max: need 0 < tau_min < tau_max",
    ),
    "repeated_temperature": (
        _GEOMETRY + "tau = 1.2\n[numerics]\ntemperatures = 0 0\n",
        r"\[numerics\] temperatures: must differ in their first 6 significant digits, got \(0\.0, 0\.0\)",
    ),
    "temperatures_sharing_a_label": (
        _GEOMETRY + "tau = 1.2\n[numerics]\ntemperatures = 1 1.0000001\n",
        r"\[numerics\] temperatures: must differ in their first 6 significant digits, "
        r"got \(1\.0, 1\.0000001\)",
    ),
    # two faulty keys: the first in _KEYS order is reported, whatever its rule
    "inf_tau_and_zero_spatial_points": (
        _GEOMETRY + "tau = inf\n[numerics]\nspatial_points = 0\n",
        r"\[geometry\] tau: must be finite, got inf",
    ),
    "custom_table_without_custom_family": (
        _GEOMETRY + "tau = 1.2\nleft_breaks = 0 1\nleft_coeffs = [[0,0,0,0,0,0,0,0]]\n",
        r"\[geometry\] left_breaks and left_coeffs: need family = custom",
    ),
    "custom_family_without_tables": (
        "[geometry]\nfamily = custom\n",
        r"\[geometry\] left_breaks and left_coeffs: family = custom needs both mirrors' tables",
    ),
    "custom_family_with_one_table": (
        "[geometry]\nfamily = custom\nleft_breaks = 0 1\nleft_coeffs = [[0,0,0,0,0,0,0,0]]\n",
        r"\[geometry\] right_breaks and right_coeffs: family = custom needs both mirrors' tables",
    ),
    "critical_search_on_custom_family": (
        "[geometry]\nfamily = custom\nleft_breaks = 0 1\nleft_coeffs = [[0,0,0,0,0,0,0,0]]\n"
        "right_breaks = 0 1\nright_coeffs = [[1,0,0,0,0,0,0,0]]\n[sweep]\ncritical = yes\n",
        r"\[sweep\] critical: sweep and critical search rescale tau; custom tables cannot",
    ),
    "three_value_window": (
        _GEOMETRY + "tau = 1.2\n[numerics]\nwindow = 1 2 3\n",
        r"\[numerics\] window: must be two values, got \(1\.0, 2\.0, 3\.0\)",
    ),
    "ragged_custom_rows": (
        _custom_left("0 1", "[[0,0],[0]]"), r"\[geometry\] left_coeffs: cannot parse '\[\[0,0\],\[0\]\]'"
    ),
    "text_in_custom_rows": (
        _custom_left("0 1", '[["a"]]'), r"\[geometry\] left_coeffs: cannot parse '\[\[\"a\"\]\]'"
    ),
    "custom_rows_not_a_list": (
        _custom_left("0 1", '{"a": 1}'), r"\[geometry\] left_coeffs: cannot parse '\{\"a\": 1\}'"
    ),
    "custom_rows_too_few": (
        _custom_left("0 1 2", "[[0]]"),
        r"\[geometry\] left_breaks and left_coeffs: 1 coefficient rows for 2 segments$",
    ),
    "custom_row_too_wide": (
        _custom_left("0 1", "[[0,0,0,0,0,0,0,0,0]]"),
        r"\[geometry\] left_breaks and left_coeffs: need 1 to 8 coefficients per row, got 9$",
    ),
    "custom_row_not_flat": (
        _custom_left("0 1", "[[0,1]]"),
        r"\[geometry\] left_breaks and left_coeffs: derivative 1 does not vanish "
        r"at the motion window edge$",
    ),
    "custom_rows_flat": (
        _custom_left("0 1", "[0, 0]"), r"^\[geometry\] left_coeffs: cannot parse '\[0, 0\]'$"
    ),
    "custom_row_not_finite": (
        _custom_left("0 1", "[[1e999]]"),
        r"\[geometry\] left_breaks and left_coeffs: non-finite path data$",
    ),
    "repeated_key": (
        _GEOMETRY + "tau = 1.2\n[numerics]\ntemperatures = 0\ntemperatures = 1\n",
        r"cannot parse .*'temperatures' in section 'numerics' already exists",
    ),
}


@pytest.mark.parametrize("text, culprit", _BAD_CONFIGS.values(), ids=list(_BAD_CONFIGS))
def test_unknown_numerics_keys_rejected(tmp_path, text, culprit):
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    with pytest.raises(CavstaError, match=culprit):
        load_config(str(ini))


def test_config_keys_match_run_config_and_readme():
    """The key table, RunConfig and the README config reference agree."""
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    keys_of, finite = {}, set()
    for section in _KEYS.values():
        for key, (name, _, *rules) in section.items():
            assert name in fields, key
            keys_of.setdefault(name, []).append(key)
            if _FINITE in rules:
                finite.add(name)
    assert set(keys_of) == fields - {"strict"}
    # every float-valued field set by one key must be finite; the
    # critical-search bracket may be open above (tau_max = inf)
    floats = {f.name for f in dataclasses.fields(RunConfig) if "float" in f.type}
    assert finite == floats - {"tau_min", "tau_max"}
    for name, keys in keys_of.items():
        if name.startswith("custom_"):
            # a custom mirror table is one field given by two keys
            side = name[len("custom_"):]
            assert keys == [f"{side}_breaks", f"{side}_coeffs"]
        else:
            assert len(keys) == 1, (name, keys)
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    reference = readme[readme.index("### Config reference"):].lower()
    for section, keys in _KEYS.items():
        assert f"`[{section}]`" in reference
        for key in keys:
            assert f"`{key}`" in reference, key


def test_missing_config_rejected(tmp_path):
    with pytest.raises(CavstaError):
        load_config(str(tmp_path / "nope.ini"))


def test_custom_family_from_tables(tmp_path):
    ini = tmp_path / "custom.ini"
    ini.write_text(
        "[geometry]\n"
        "family = custom\n"
        "tau = 1.0\n"
        "left_breaks = 0 1\n"
        "left_coeffs = [[0,0,0,0,0,0,0,0]]\n"
        "right_breaks = 0 1\n"
        "right_coeffs = [[1,0,0,0,0,0,0,0]]\n"
        "[numerics]\n"
        "temperatures = 0\n"
        "time_step = 0.5\n"
        "window = -1 2\n"
        "spatial_points = 201\n"
        "[outputs]\n"
        f"dir = {tmp_path / 'out'}\n"
    )
    cfg = load_config(str(ini))
    res = run(cfg)
    assert res.exit_code == 0
    header, data = read_csv(str(tmp_path / "out" / "energy.csv"))
    # motionless custom cavity stays exactly adiabatic
    q = data[:, header.index("Q_ref_T0")]
    assert np.allclose(q, 1.0, atol=1e-9)


def test_custom_rows_run_as_given(tmp_path):
    """A static mirror given as [[0]] next to a moving mirror of full width
    writes the bytes of its twin with the row zero-padded to 8 columns."""
    moving = _reference_path(1.0, 0.8, 1.2).table()[1].tolist()
    artifacts = []
    for static in ("[[0]]", "[[0,0,0,0,0,0,0,0]]"):
        ini = tmp_path / "custom.ini"
        ini.write_text(
            f"[geometry]\nfamily = custom\ntau = 1.2\nleft_breaks = 0 1.2\nleft_coeffs = {static}\n"
            f"right_breaks = 0 1.2\nright_coeffs = {moving}\n"
            "[numerics]\ntemperatures = 0 1\ntime_step = 0.25\nwindow = -1.5 2.2\n"
            f"spatial_points = 301\neffective_step = 0.0125\n[outputs]\ndir = {tmp_path / 'out'}\n"
        )
        res = run(load_config(str(ini)))
        assert res.exit_code == 0, res.hard_failures
        assert len(res.files) == 4
        artifacts.append([Path(f).read_bytes() for f in res.files])
    assert artifacts[0] == artifacts[1]


def test_custom_summary_reports_the_tables_geometry(tmp_path):
    """A custom run's [geometry] takes L0, Lf, R0 and Rf from its tables and
    writes no eps, which a custom pair does not read."""
    tables = [_reference_path(x0, xf, 1.2).table() for x0, xf in ((-0.5, -0.3), (1.0, 0.7))]
    left, right = ((tuple(knots), tuple(map(tuple, rows))) for knots, rows, *_ in tables)
    fast = {**FAST, "window": None, "temperatures": (0.0,)}
    cfg = RunConfig(family="custom", custom_left=left, custom_right=right, csv=(),
                    out_dir=str(tmp_path), **fast)
    assert run(cfg).exit_code == 0
    text = (tmp_path / "summary.txt").read_text()
    geometry = text.split("[geometry]\n")[1].split("\n\n")[0].splitlines()
    assert "L0 = -0.5" in geometry and "R0 = 1" in geometry
    assert not any(line.startswith("eps") for line in geometry)


def custom_cfg(out_dir, **kw):
    """Motionless unit cavity given as explicit tables."""
    return RunConfig(
        family="custom",
        custom_left=((0.0, 1.0), ((0.0,) * 8,)),
        custom_right=((0.0, 1.0), ((1.0,) + (0.0,) * 7,)),
        out_dir=str(out_dir),
        **kw,
    )


def test_sweep_rejects_custom_family(tmp_path):
    cfg = custom_cfg(tmp_path / "out", tau_list=(1.0, 2.0, 4.0))
    with pytest.raises(CavstaError, match="custom"):
        sweep_tau(cfg)
    assert not (tmp_path / "out").exists()


def test_critical_search_rejects_custom_family(tmp_path):
    with pytest.raises(CavstaError, match=r"\[sweep\] critical: .*custom"):
        run(custom_cfg(tmp_path / "out", critical=True))
    assert not (tmp_path / "out").exists()


def test_critical_search_uses_configured_numerics(tmp_path, monkeypatch):
    """The critical timescale is closed-form: a run with the search builds
    only its own scenario, one adiabatic Moore pair and two effective
    trajectories, and passes them the configured numerics."""
    builds, moores = [], []
    build, moore = sta.build_effective, AdiabaticMoore.build

    def recording(am, side, lo, hi, **kw):
        builds.append(kw)
        return build(am, side, lo, hi, **kw)

    def recording_moore(pair, panels=4096):
        moores.append(panels)
        return moore(pair, panels)

    monkeypatch.setattr(sta, "build_effective", recording)
    monkeypatch.setattr(AdiabaticMoore, "build", recording_moore)
    cfg = contraction_cfg(
        tmp_path, csv=(), critical=True, tau_min=0.8, tau_max=1.2,
        moore_panels=6000, effective_refine_tol=1e-7,
    )
    res = run(cfg)
    assert res.summary["results"]["critical_tau"] == sta.critical_tau(
        "contraction", 0.0, 0.3, 1.0, 0.3, 0.8, 1.2
    )
    assert moores == [6000]
    assert builds == 2 * [{"step": cfg.effective_step, "refine_tol": 1e-7}]


def test_sweep_needs_three_ascending_taus(tmp_path):
    cfg = contraction_cfg(tmp_path, tau_list=(1.0, 1.2))
    with pytest.raises(CavstaError):
        sweep_tau(cfg)
    # the order is a config range, checked before any sweep starts
    with pytest.raises(CavstaError, match=r"\[sweep\] tau_list: must be ascending values > 0"):
        contraction_cfg(tmp_path, tau_list=(1.2, 1.0, 1.4))


def test_sweep_artifacts_and_slope(tmp_path):
    cfg = contraction_cfg(
        tmp_path, tau_list=(2.0, 4.0, 8.0), window=None, time_step=None,
        effective_step=None,
    )
    res = sweep_tau(cfg)
    assert res.exit_code == 0
    assert len(res.rows) == 3
    slope = res.summary["results"]["residual_loglog_slope"]
    assert -2.5 < slope < -1.2
    assert res.summary["results"]["speeds_decrease_with_tau"] is True
    header, data = read_csv(str(tmp_path / "sweep.csv"))
    assert header[0] == "tau"
    assert data.shape[0] == 3


def test_motionless_sweep_fits_no_slope(tmp_path):
    """A cavity that never moves has a zero adiabatic residual at every tau:
    no log of 0 (a RuntimeWarning, an error under this suite), and the
    summary says why there is no slope."""
    cfg = contraction_cfg(
        tmp_path, Lf=0.0, eps=0.0, tau_list=(0.5, 1.0, 2.0), window=None, time_step=None,
        effective_step=None,
    )
    res = sweep_tau(cfg)
    assert res.exit_code == 0
    assert [r["res_ad_max"] for r in res.rows] == [0.0, 0.0, 0.0]
    slope = res.summary["results"]["residual_loglog_slope"]
    assert slope.startswith("not fitted: fewer than two taus")
    assert f"residual_loglog_slope = {slope}\n" in (tmp_path / "sweep_summary.txt").read_text()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_continuous_limit_curves_have_no_critical_tau(tmp_path, command):
    """With L0 = Lf = 0 the limit curves are continuous and every tau is
    physical: both commands report why no critical tau was found."""
    cfg = contraction_cfg(
        tmp_path, Lf=0.0, csv=(), critical=True, tau_list=(1.2, 2.4, 4.8), window=None,
        time_step=None, effective_step=None,
    )
    res = run(cfg) if command == "run" else sweep_tau(cfg)
    found = res.summary["results"]["critical_tau"]
    assert found.startswith("not found: all candidate tau physical")
    summary = Path(res.files[-1]).read_text()
    assert f"critical_tau = {found}\n" in summary


def _mirror_table(table, x0, reach=0.2, speed=0.15):
    """(breaks, rows) of x0 + b (p(t) - p(start)) for a flat-ended C^3
    table p, with b <= 1 as large as keeps the path within `reach` of x0 and
    no faster than `speed`."""
    breaks, rows = table
    rows = rows.copy()
    rows[:, 0] -= rows[0, 0]
    _, values = piecewise_extremes(breaks, rows)
    _, speeds = piecewise_extremes(breaks, poly_derivative(rows, 1))
    b = 1.0
    for bound, size in ((reach, np.max(np.abs(values))), (speed, np.max(np.abs(speeds)))):
        if size > bound:
            b = min(b, bound / size)
    rows *= b
    rows[:, 0] += x0
    return tuple(breaks), tuple(map(tuple, rows))


@settings(max_examples=25, deadline=None)
@given(flat_c3_tables(), flat_c3_tables())
def test_custom_subluminal_protocols_have_exact_moore_residuals(tmp_path_factory, left, right):
    """Random smooth, slow custom protocols run end to end, and their exact
    Moore functions solve the boundary conditions to roundoff."""
    custom_left, custom_right = _mirror_table(left, 0.0), _mirror_table(right, 1.0)
    start = min(custom_left[0][0], custom_right[0][0])
    end = max(custom_left[0][-1], custom_right[0][-1])
    cfg = RunConfig(
        family="custom", custom_left=custom_left, custom_right=custom_right,
        window=(start - 1.5, end + 1.5), time_step=0.25, spatial_points=301,
        effective_step=0.05, temperatures=(0.0,), csv=(),
        out_dir=str(tmp_path_factory.mktemp("custom")),
    )
    res = run(cfg)
    assert res.exit_code == 0, res.hard_failures
    results = res.summary["results"]
    assert results["exact_reference_available"] is True
    assert results["exact_residual_L"] <= 1e-10
    assert results["exact_residual_R"] <= 1e-10


def test_custom_twin_of_a_family_run_takes_its_timescale_from_its_tables(tmp_path):
    """A custom pair given the tables of the tau = 3 contraction, and no
    tau, gets the family run's default window, time step and effective
    step from its motion window, so it ends as adiabatic as the family
    run.  Its edge values are not pinned, so compare values, not bytes."""
    paths = (_reference_path(0.0, 0.3, 3.0), _reference_path(1.0, 0.7, 3.0))
    tables = [(tuple(p.breaks), tuple(map(tuple, p.table()[1]))) for p in paths]
    numerics = dict(temperatures=(0.0, 1.0), spatial_points=301, csv=())
    family = run(RunConfig(family="contraction", Lf=0.3, eps=0.3, tau=3.0,
                           out_dir=str(tmp_path / "family"), **numerics))
    twin = run(RunConfig(family="custom", custom_left=tables[0], custom_right=tables[1],
                         out_dir=str(tmp_path / "custom"), **numerics))
    assert family.exit_code == twin.exit_code == 0
    want, got = family.summary["results"], twin.summary["results"]
    assert (got["window_start"], got["window_end"]) == pytest.approx((-4.0, 4.2), abs=1e-12)
    assert got["window_start"] == want["window_start"]
    step = family.summary["numerics"]["time_step"]
    assert twin.summary["numerics"]["time_step"] == pytest.approx(step, rel=1e-12)
    for T in ("0", "1"):
        assert abs(want[f"q_eff_final_T{T}"] - 1.0) <= 1e-9
        assert got[f"q_eff_final_T{T}"] == pytest.approx(want[f"q_eff_final_T{T}"], abs=1e-9)


def test_custom_rigid_shift_toward_minus_x_runs(tmp_path):
    """Both mirrors shifted by -0.2 together: the limit curves exist, and
    the run ends like any other."""
    left, right = (_reference_path(x0, x0 - 0.2, 1.2) for x0 in (0.0, 1.0))
    tables = [(tuple(p.breaks), tuple(map(tuple, p.table()[1]))) for p in (left, right)]
    cfg = RunConfig(
        family="custom", custom_left=tables[0], custom_right=tables[1],
        out_dir=str(tmp_path), csv=(), **FAST,
    )
    res = run(cfg)
    assert res.exit_code == 0, res.hard_failures
    assert res.summary["results"]["exact_residual_L"] <= 1e-10
