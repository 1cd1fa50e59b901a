"""Traced in-process run of one workload: per-layer spans, counts and accuracy.

    python3 perfbench/layers.py --workload NAME --seed N --dir WORKDIR

runs the workload's config three times in this interpreter: untraced, with
every layer entry point wrapped, and untraced again.  When the run ends it
writes WORKDIR/trace.json: the traced and the median untraced wall time,
every span (name, start and end in seconds from the first span, parent
index, work count), the per-layer metrics, and what the checks need.
Needs ``cavsta`` importable (the benchmark puts the checkout's ``src`` on
PYTHONPATH).

Layers are the cavsta modules.  Each name is patched where the pipeline looks
it up: ``runner`` imports ``energy_record`` by name, ``ExactMoore`` and
``AdiabaticMoore`` are wrapped on the class, ``sta.critical_tau`` and the
runner reach ``build_effective`` through the ``sta`` module global, and the
``jets`` functions are called through their module.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy

import workloads
from tracer import Tracer, has_ancestor, self_times

# (name, unit) of every per-layer metric, in report order
METRICS = (
    ("energy.record_s", "s"),
    ("energy.self_s", "s"),
    ("energy.density_points", "count"),
    ("energy.points_per_sample", "count"),
    ("energy.q_eff_err", "1"),
    ("energy.q_ref_err", "1"),
    ("moore_exact.init_s", "s"),
    ("moore_exact.solve_s", "s"),
    ("moore_exact.self_s", "s"),
    ("moore_exact.kink_s", "s"),
    ("moore_exact.args_traced", "count"),
    ("moore_exact.path_points_per_arg", "count"),
    ("moore_exact.max_bounces", "count"),
    ("moore_exact.residual_max", "1"),
    ("trajectory.path_points", "count"),
    ("trajectory.path_s", "s"),
    ("sta.build_effective_s", "s"),
    ("sta.build_effective_calls", "count"),
    ("sta.critical_tau_s", "s"),
    ("sta.self_s", "s"),
    ("sta.effective_nodes", "count"),
    ("sta.path_points", "count"),
    ("sta.path_s", "s"),
    ("sta.residual_max", "1"),
    ("sta.max_speed", "1"),
    ("moore_adiabatic.build_s", "s"),
    ("moore_adiabatic.build_calls", "count"),
    ("moore_adiabatic.panels", "count"),
    ("moore_adiabatic.eval_points", "count"),
    ("moore_adiabatic.eval_s", "s"),
    ("moore_adiabatic.residual_max", "1"),
    ("jets.calls", "count"),
    ("jets.s", "s"),
    ("runner.self_s", "s"),
    ("runner.bytes_written", "B"),
    ("trace.overhead", "1"),
)

PATH_SPANS = ("trajectory.path", "sta.path")


@dataclass
class Seen:
    """Objects the wrapped entry points returned or received, kept for the
    figures computed after the traced run (outside every span)."""

    exact: list = field(default_factory=list)
    max_arg: dict = field(default_factory=dict)  # (id(ExactMoore), "G"|"F") -> max
    effective: list = field(default_factory=list)
    adiabatic: list = field(default_factory=list)
    times: list = field(default_factory=list)


def _size(position: int):
    return lambda args, kwargs: int(np.size(args[position]))


def install(tracer: Tracer) -> Seen:
    """Wrap every layer entry point; `tracer.restore()` undoes it."""
    from cavsta import jets, moore_adiabatic, moore_exact, runner, sta, trajectory

    seen = Seen()

    def solve_observer(which):
        def observe(args, kwargs, result):
            key = (id(args[0]), which)
            top = float(np.max(args[1])) if np.size(args[1]) else -np.inf
            seen.max_arg[key] = max(seen.max_arg.get(key, -np.inf), top)

        return observe

    tracer.patch(runner, "energy_record", "energy.record",
                 observe=lambda a, k, r: seen.times.append(np.asarray(a[0])))
    em = moore_exact.ExactMoore
    tracer.patch(em, "__init__", "moore_exact.init",
                 observe=lambda a, k, r: seen.exact.append(a[0]))
    for attr, which in (("solve_G", "G"), ("G_jet", "G"), ("solve_F", "F"), ("F_jet", "F")):
        tracer.patch(em, attr, "moore_exact.solve", count=_size(1),
                     observe=solve_observer(which))
    tracer.patch(em, "kink_args", "moore_exact.kink")
    for attr in ("__call__", "jet"):
        tracer.patch(trajectory.MirrorPath, attr, "trajectory.path", count=_size(1))
        tracer.patch(sta.EffectiveTrajectory, attr, "sta.path", count=_size(1))
    tracer.patch(sta, "build_effective", "sta.build_effective",
                 observe=lambda a, k, r: seen.effective.append(r))
    tracer.patch(sta, "critical_tau", "sta.critical_tau")
    am = moore_adiabatic.AdiabaticMoore
    tracer.patch(am, "build", "moore_adiabatic.build",
                 observe=lambda a, k, r: seen.adiabatic.append(r))
    tracer.patch(am, "jet", "moore_adiabatic.eval", count=_size(2))
    for attr in jets.__all__:
        tracer.patch(jets, attr, "jets")
    return seen


def _q_err(summary: dict, prefix: str) -> float:
    errs = [abs(v - 1.0) for k, v in summary["results"].items() if k.startswith(prefix)]
    return max(errs, default=0.0)


def layer_metrics(spans, seen: Seen, result, untraced_s: float, traced_s: float) -> dict:
    """Every METRICS entry from the spans, the seen objects and the result.

    Figures that re-run numerics (bounce depth, exact residuals) are computed
    here, after the traced run, with the tracer removed."""
    own = self_times(spans)
    total, selft, calls, work = {}, {}, {}, {}
    solve_path_points = density_points = 0
    for i, (s, st) in enumerate(zip(spans, own)):
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        selft[s.name] = selft.get(s.name, 0.0) + st
        calls[s.name] = calls.get(s.name, 0) + 1
        work[s.name] = work.get(s.name, 0) + s.count
        if s.name in PATH_SPANS and has_ancestor(spans, i, "moore_exact.solve"):
            solve_path_points += s.count
        if s.name == "moore_exact.solve" and has_ancestor(spans, i, "energy.record"):
            density_points += s.count

    n_samples = sum(len(t) for t in seen.times)
    args = work.get("moore_exact.solve", 0)
    max_bounces, residual = 0, 0.0
    for em in seen.exact:
        for which in ("G", "F"):
            top = seen.max_arg.get((id(em), which))
            if top is not None and np.isfinite(top):
                max_bounces = max(max_bounces, em.trace_depth(top, which)[0])
        for times in seen.times:
            residual = max(residual, *em.residuals(times))

    if result is None:
        q_eff = q_ref = ad_res = 0.0
        written = 0
    else:
        q_eff = _q_err(result.summary, "q_eff_final_")
        q_ref = _q_err(result.summary, "q_ref_final_")
        if hasattr(result, "rows"):
            ad_res = max(r["res_ad_max"] for r in result.rows)
        else:
            res = result.summary["results"]
            ad_res = max(res["adiabatic_residual_L"], res["adiabatic_residual_R"])
        written = sum(os.path.getsize(p) for p in result.files)

    def t(name):
        return total.get(name, 0.0)

    def s(*names):
        return sum(selft.get(n, 0.0) for n in names)

    out = {
        "energy.record_s": t("energy.record"),
        "energy.self_s": s("energy.record"),
        "energy.density_points": density_points,
        "energy.points_per_sample": density_points / n_samples if n_samples else 0.0,
        "energy.q_eff_err": q_eff,
        "energy.q_ref_err": q_ref,
        "moore_exact.init_s": t("moore_exact.init"),
        "moore_exact.solve_s": t("moore_exact.solve"),
        "moore_exact.self_s": s("moore_exact.init", "moore_exact.solve", "moore_exact.kink"),
        "moore_exact.kink_s": t("moore_exact.kink"),
        "moore_exact.args_traced": args,
        "moore_exact.path_points_per_arg": solve_path_points / args if args else 0.0,
        "moore_exact.max_bounces": int(max_bounces),
        "moore_exact.residual_max": residual,
        "trajectory.path_points": work.get("trajectory.path", 0),
        "trajectory.path_s": t("trajectory.path"),
        "sta.build_effective_s": t("sta.build_effective"),
        "sta.build_effective_calls": calls.get("sta.build_effective", 0),
        "sta.critical_tau_s": t("sta.critical_tau"),
        "sta.self_s": s("sta.build_effective", "sta.critical_tau"),
        "sta.effective_nodes": sum(len(e.times) for e in seen.effective),
        "sta.path_points": work.get("sta.path", 0),
        "sta.path_s": t("sta.path"),
        "sta.residual_max": max((e.residual_sup for e in seen.effective), default=0.0),
        "sta.max_speed": max((e.max_speed_sampled for e in seen.effective), default=0.0),
        "moore_adiabatic.build_s": t("moore_adiabatic.build"),
        "moore_adiabatic.build_calls": calls.get("moore_adiabatic.build", 0),
        "moore_adiabatic.panels": sum(a.panels for a in seen.adiabatic),
        "moore_adiabatic.eval_points": work.get("moore_adiabatic.eval", 0),
        "moore_adiabatic.eval_s": t("moore_adiabatic.eval"),
        "moore_adiabatic.residual_max": ad_res,
        "jets.calls": calls.get("jets", 0),
        "jets.s": t("jets"),
        "runner.self_s": s("runner"),
        "runner.bytes_written": written,
        "trace.overhead": traced_s / untraced_s - 1.0,
    }
    return {k: float(v) if isinstance(v, (float, np.floating)) else int(v) for k, v in out.items()}


def _run(go, cfg):
    """(result, exit code) of one in-process run, as the CLI would exit."""
    from cavsta import CavstaError

    try:
        result = go(cfg)
    except CavstaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 1
    return result, result.exit_code


def timed_run(go, cfg, tracer: Tracer | None = None):
    """(result, exit code, seconds, seen) of one in-process run, traced when
    `tracer` is given (its patches are removed again before returning)."""
    seen = None
    if tracer is not None:
        seen = install(tracer)
        go = tracer.wrap(go, "runner")
    start = time.perf_counter()
    try:
        result, code = _run(go, cfg)
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    return result, code, seconds, seen


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True, help="work directory for configs and artifacts")
    args = p.parse_args(argv)

    from cavsta import runner

    wl = workloads.make(args.workload, args.seed, os.path.join(args.dir, "untraced"))
    ini = os.path.join(args.dir, "config.ini")
    with open(ini, "w", encoding="utf-8") as f:
        f.write(wl.ini)
    cfg = runner.load_config(ini)
    go = runner.run if wl.command == "run" else runner.sweep_tau
    # untraced runs on both sides of the traced one, so warm-up and drift
    # bias the overhead less than a single run before it would
    runs, untraced = {}, []
    for name in ("untraced", "traced", "untraced_again"):
        run_cfg = replace(cfg, out_dir=os.path.join(args.dir, name))
        if name == "traced":
            tracer = Tracer()
            result, code, traced_s, seen = timed_run(go, run_cfg, tracer)
            traced_result = result
        else:
            result, code, seconds, _ = timed_run(go, run_cfg)
            untraced.append(seconds)
        runs[name] = (run_cfg.out_dir, result, code)
    untraced_s = statistics.median(untraced)

    t0 = tracer.spans[0].start if tracer.spans else 0.0
    report = {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": [[sp.name, sp.start - t0, sp.end - t0, sp.parent, sp.count]
                  for sp in tracer.spans],
        "metrics": layer_metrics(tracer.spans, seen, traced_result, untraced_s, traced_s),
        "runs": {
            name: {"dir": d, "files": r.files if r is not None else [], "exit_code": c}
            for name, (d, r, c) in runs.items()
        },
    }
    with open(os.path.join(args.dir, "trace.json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
