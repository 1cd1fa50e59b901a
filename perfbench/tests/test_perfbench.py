"""Tests of the benchmark itself: tracer arithmetic, correctness checks,
workload generation, count determinism, and BENCHMARK.json consistency."""

import json
import os
import shutil
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


# -- tracer ---------------------------------------------------------------------


def test_self_time_on_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: union [1, 6]
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("c", 8.0, 12.0, 0, 0),  # runs past the root: clipped to [8, 10]
        Span("leaf", 5.0, 5.5, 2, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 2.5, 1.0, 4.0, 0.5])


def test_tracer_links_parents_and_skips_reentry():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    inner_t = tracer.wrap(inner, "inner", count=lambda a, k: a[0])
    outer_t = tracer.wrap(lambda x: inner_t(x) + inner_t(x), "outer")
    again = tracer.wrap(lambda x: inner_t(x), "inner")  # same name, nested
    assert outer_t(3) == 8
    assert again(5) == 6
    names = [(s.name, s.parent, s.count) for s in tracer.spans]
    assert names == [("outer", -1, 0), ("inner", 0, 3), ("inner", 0, 3), ("inner", -1, 0)]
    assert all(s.end > s.start for s in tracer.spans)


def test_patch_and_restore_classmethod():
    class Thing:
        @classmethod
        def make(cls, n):
            return cls, n

    original = Thing.__dict__["make"]
    tracer = Tracer()
    tracer.patch(Thing, "make", "thing.make", count=lambda a, k: a[1])
    assert Thing.make(4) == (Thing, 4)
    assert tracer.spans[0].count == 4
    tracer.restore()
    assert Thing.__dict__["make"] is original


# -- correctness checks -----------------------------------------------------------


def _reference_copy(tmp_path, name):
    wl = workloads.make(name, 0, str(tmp_path))
    for artifact in wl.artifacts:
        shutil.copy(os.path.join(checks.REFERENCE_DIR, name, artifact), tmp_path)
    listed = [str(tmp_path / a) for a in wl.artifacts]
    return wl, listed


@pytest.mark.parametrize("name", sorted(workloads.WHY))
def test_reference_artifacts_pass(tmp_path, name):
    wl, listed = _reference_copy(tmp_path, name)
    assert checks.check_run(wl, str(tmp_path), listed, 0, reference=True) == []


def test_corrupted_artifact_fails(tmp_path):
    wl, listed = _reference_copy(tmp_path, "run_slow")
    path = tmp_path / "energy.csv"
    lines = path.read_text().splitlines()
    lines[5] = lines[5].replace(",", ",x", 1)
    path.write_text("\n".join(lines) + "\n")
    fails = checks.check_run(wl, str(tmp_path), listed, 0, reference=False)
    assert fails and "unreadable" in fails[0]


def test_truncated_row_fails(tmp_path):
    wl, listed = _reference_copy(tmp_path, "sweep_critical")
    path = tmp_path / "sweep.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1] + [lines[-1].rsplit(",", 1)[0]]) + "\n")
    assert checks.check_run(wl, str(tmp_path), listed, 0, reference=False)


def test_energy_off_reference_fails(tmp_path):
    wl, listed = _reference_copy(tmp_path, "run_slow")
    path = tmp_path / "energy.csv"
    header, *rows = path.read_text().splitlines()
    col = header.split(",").index("Q_eff_T0")
    cells = rows[10].split(",")
    cells[col] = repr(float(cells[col]) + 2e-3)
    rows[10] = ",".join(cells)
    path.write_text("\n".join([header] + rows) + "\n")
    assert checks.check_run(wl, str(tmp_path), listed, 0, reference=False) == []
    fails = checks.check_run(wl, str(tmp_path), listed, 0, reference=True)
    assert fails and "Q_eff_T0[10]" in fails[0]


def test_residual_above_tolerance_fails(tmp_path):
    wl, listed = _reference_copy(tmp_path, "run_slow")
    path = tmp_path / "summary.txt"
    text = path.read_text()
    start = text.index("exact_residual_L = ")
    end = text.index("\n", start)
    path.write_text(text[:start] + "exact_residual_L = 2e-06" + text[end:])
    fails = checks.check_run(wl, str(tmp_path), listed, 0, reference=False)
    assert any("exact_residual_L" in f for f in fails)


def test_missing_artifact_fails(tmp_path):
    wl, listed = _reference_copy(tmp_path, "run_slow")
    os.remove(tmp_path / "moore.csv")
    assert checks.check_run(wl, str(tmp_path), listed, 0, reference=False)
    assert checks.check_run(wl, str(tmp_path), listed[:-1], 0, reference=False)


def test_nonzero_exit_is_a_failed_run(tmp_path):
    cmd = [sys.executable, "-c", "import sys; print('x'); sys.exit(3)"]
    wall, peak, code = run.spawn(cmd, os.environ.copy(), str(tmp_path / "child"), 30.0)
    assert code == 3 and wall > 0 and peak > 0
    wl = workloads.make("run_slow", 0, str(tmp_path))
    assert checks.check_run(wl, str(tmp_path), ["x"], code, reference=False) == ["exit code 3"]


# -- workload generator -------------------------------------------------------------


def test_seed_zero_gives_the_canonical_configs(tmp_path):
    from cavsta.runner import load_config

    cfgs = {}
    for name in workloads.WHY:
        wl = workloads.make(name, 0, str(tmp_path / name))
        ini = tmp_path / f"{name}.ini"
        ini.write_text(wl.ini)
        cfgs[name] = load_config(str(ini))
    base = dict(family="contraction", L0=0.0, Lf=0.3, R0=1.0, eps=0.3, temperatures=(0.0, 1.0))
    for cfg in cfgs.values():
        assert {k: getattr(cfg, k) for k in base} == base
    assert (cfgs["run_contraction"].tau, cfgs["run_contraction"].time_step) == (1.2, None)
    assert (cfgs["run_slow"].tau, cfgs["run_slow"].time_step) == (40.0, 2.0)
    sweep = cfgs["sweep_critical"]
    assert sweep.tau_list == (0.3, 0.6, 1.2, 2.4, 4.8) and sweep.critical
    assert (sweep.tau_min, sweep.tau_max) == (0.2, 1.2)


@pytest.mark.parametrize("name", sorted(workloads.WHY))
def test_generator_is_deterministic_and_bounded(name):
    seen = set()
    for seed in range(1, 40):
        a, b = workloads.make(name, seed, "out"), workloads.make(name, seed, "out")
        assert a == b
        assert abs(a.Lf - 0.3) <= workloads.GEOMETRY_JITTER
        assert abs(a.eps - 0.3) <= workloads.GEOMETRY_JITTER
        if name == "sweep_critical":
            assert a.time_step == "auto"
        else:
            assert (a.Lf, a.eps) == (0.3, 0.3)
            base = workloads.make(name, 0, "out")
            step0 = 1.2 / 64 if base.time_step == "auto" else float(base.time_step)
            assert abs(float(a.time_step) / step0 - 1.0) <= workloads.STEP_JITTER
        seen.add(a.ini)
    assert len(seen) == 39


# -- traced counts --------------------------------------------------------------------

COUNTS = [name for name, unit in layers.METRICS if unit == "count"]


def test_counts_repeat_across_traced_runs(tmp_path):
    from cavsta.runner import RunConfig, run as cavsta_run

    cfg = RunConfig(
        Lf=0.3, eps=0.3, tau=1.2, temperatures=(0.0,), time_step=0.3,
        spatial_points=33, window=(-1.5, 2.0), out_dir=str(tmp_path / "a"),
    )
    metrics = []
    for out in ("a", "b"):
        tracer = Tracer()
        result, code, seconds, seen = layers.timed_run(
            cavsta_run, replace(cfg, out_dir=str(tmp_path / out)), tracer)
        assert code == 0
        metrics.append(layers.layer_metrics(tracer.spans, seen, result, seconds, seconds))
    first, second = ({k: m[k] for k in COUNTS} for m in metrics)
    assert first == second
    for key in ("moore_exact.args_traced", "trajectory.path_points", "sta.effective_nodes",
                "moore_adiabatic.panels", "sta.build_effective_calls"):
        assert first[key] > 0
    assert set(metrics[0]) == {name for name, _ in layers.METRICS}


# -- BENCHMARK.json ----------------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.METRICS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
