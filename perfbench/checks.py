"""Correctness checks on one cavsta run's artifacts.

Every check returns a list of failure messages; an empty list means the run
passed.  The tolerances are the program's acceptance tolerances, so a
numerical method may move results inside them without failing the
benchmark.  Seed-0 outputs are also compared with reference artifacts made
at the commit that defined the benchmark (see make_reference.py).
"""

from __future__ import annotations

import configparser
import csv
import math
import os

from workloads import TAU_LIST, TAU_WINDOW

EXACT_RESIDUAL_MAX = 1e-6
EFFECTIVE_RESIDUAL_MAX = 1e-9
Q_TOL = 1e-3
TAU_C_TOL = 1e-3  # bisection tolerance of sta.critical_tau
SWEEP_TOL = 1e-3
ADIABATIC_RESIDUAL_TOL = 1e-6

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def read_csv(path: str):
    """(header, columns) of a numeric CSV; raises ValueError when malformed."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if len(rows) < 2:
        raise ValueError(f"{path}: no data rows")
    header, body = rows[0], rows[1:]
    if len(set(header)) != len(header):
        raise ValueError(f"{path}: duplicate column names")
    for i, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}:{i}: {len(row)} fields, header has {len(header)}")
    cols = {name: [float(row[j]) for row in body] for j, name in enumerate(header)}
    return header, cols


def read_summary(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    with open(path, encoding="utf-8") as f:
        cp.read_file(f)
    if not cp.has_section("results"):
        raise ValueError(f"{path}: no [results] section")
    return cp


def _number(section, key: str) -> float:
    """A float entry of a summary section; raises ValueError if not numeric."""
    if key not in section:
        raise ValueError(f"summary lacks {key}")
    return float(section[key])


def check_run(workload, out_dir: str, listed, exit_code: int, reference: bool) -> list:
    """All per-run checks for one finished run of `workload`.

    `listed` is the artifact paths the program reported, `reference` asks
    for the seed-0 comparison against stored artifacts.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    expected = sorted(os.path.abspath(os.path.join(out_dir, a)) for a in workload.artifacts)
    if sorted(os.path.abspath(p) for p in listed) != expected:
        return [f"listed artifacts {sorted(listed)} differ from {workload.artifacts}"]
    try:
        if workload.command == "run":
            fails = _check_run_artifacts(out_dir)
        else:
            fails = _check_sweep_artifacts(out_dir)
        if reference and not fails:
            fails = compare_reference(workload, out_dir)
    except (OSError, ValueError, KeyError, configparser.Error) as exc:
        return [f"unreadable artifact: {exc}"]
    return fails


def _check_run_artifacts(out_dir: str) -> list:
    fails = []
    for name in ("trajectories.csv", "moore.csv"):
        _, cols = read_csv(os.path.join(out_dir, name))
        if not all(math.isfinite(v) for col in cols.values() for v in col):
            fails.append(f"{name}: non-finite values")
    header, cols = read_csv(os.path.join(out_dir, "energy.csv"))
    if not all(math.isfinite(v) for col in cols.values() for v in col):
        fails.append("energy.csv: non-finite values")
    res = read_summary(os.path.join(out_dir, "summary.txt"))["results"]
    for key in ("exact_residual_L", "exact_residual_R"):
        if not _number(res, key) <= EXACT_RESIDUAL_MAX:
            fails.append(f"{key} = {res[key]} above {EXACT_RESIDUAL_MAX}")
    for key in ("eff_residual_left", "eff_residual_right"):
        if not _number(res, key) <= EFFECTIVE_RESIDUAL_MAX:
            fails.append(f"{key} = {res[key]} above {EFFECTIVE_RESIDUAL_MAX}")
    q_cols = [h for h in header if h.startswith("Q_eff_T")]
    if not q_cols:
        fails.append("energy.csv: no Q_eff column")
    for h in q_cols:
        q_end = cols[h][-1]
        if not abs(q_end - 1.0) <= Q_TOL:
            fails.append(f"{h}(t_end) = {q_end!r}, |Q-1| above {Q_TOL}")
        if not math.isclose(q_end, _number(res, "q_eff_final_" + h[len("Q_eff_"):]), rel_tol=1e-12):
            fails.append(f"{h}(t_end) disagrees with summary.txt")
    return fails


def critical_tau(out_dir: str) -> float:
    res = read_summary(os.path.join(out_dir, "sweep_summary.txt"))["results"]
    return _number(res, "critical_tau")


def _check_sweep_artifacts(out_dir: str) -> list:
    fails = []
    _, cols = read_csv(os.path.join(out_dir, "sweep.csv"))
    if cols["tau"] != list(TAU_LIST):
        fails.append(f"sweep.csv taus {cols['tau']} differ from {list(TAU_LIST)}")
    tau_c = critical_tau(out_dir)
    if not TAU_WINDOW[0] <= tau_c <= TAU_WINDOW[1]:
        fails.append(f"critical_tau {tau_c} outside {TAU_WINDOW}")
    return fails


def _far(a: float, b: float, tol: float) -> bool:
    return not (abs(a - b) <= tol or (math.isnan(a) and math.isnan(b)))


def compare_reference(workload, out_dir: str) -> list:
    """Seed-0 comparison with the stored reference artifacts."""
    ref_dir = os.path.join(REFERENCE_DIR, workload.name)
    if workload.command == "run":
        return _compare_energy(
            os.path.join(out_dir, "energy.csv"), os.path.join(ref_dir, "energy.csv")
        )
    fails = _compare_sweep(
        os.path.join(out_dir, "sweep.csv"), os.path.join(ref_dir, "sweep.csv")
    )
    tau_c, tau_c_ref = critical_tau(out_dir), critical_tau(ref_dir)
    if _far(tau_c, tau_c_ref, TAU_C_TOL):
        fails.append(f"critical_tau {tau_c} vs reference {tau_c_ref}")
    return fails


def _compare_energy(path: str, ref_path: str) -> list:
    """Q columns agree to Q_TOL; E columns to Q_TOL times the adiabatic energy
    of the same temperature (the same bound expressed on E = Q * E_ad)."""
    header, cols = read_csv(path)
    ref_header, ref = read_csv(ref_path)
    if header != ref_header or len(cols["t"]) != len(ref["t"]):
        return [f"energy.csv shape differs from reference {ref_path}"]
    fails = []
    for h in header:
        for i, (a, b) in enumerate(zip(cols[h], ref[h])):
            if h == "t":
                tol = 1e-12 * max(1.0, abs(b))
            elif h.startswith("Q_"):
                tol = Q_TOL
            else:
                label = h.split("_T", 1)[1]
                tol = Q_TOL * abs(ref["E_ad_T" + label][i])
            if _far(a, b, tol):
                fails.append(f"energy.csv {h}[{i}] = {a!r}, reference {b!r}")
                break
    return fails


def _compare_sweep(path: str, ref_path: str) -> list:
    """Realizability exact; speeds of realizable rows and limit distances to
    SWEEP_TOL relative; adiabatic residuals to ADIABATIC_RESIDUAL_TOL.  Speeds
    of superluminal rows sit near fold points and only need to stay above 1."""
    header, cols = read_csv(path)
    ref_header, ref = read_csv(ref_path)
    if header != ref_header or len(cols["tau"]) != len(ref["tau"]):
        return [f"sweep.csv shape differs from reference {ref_path}"]
    fails = []
    for i, real in enumerate(ref["realizable"]):
        if cols["realizable"][i] != real:
            fails.append(f"sweep.csv realizable[{i}] = {cols['realizable'][i]}, reference {real}")
            continue
        for h in header:
            a, b = cols[h][i], ref[h][i]
            if h.startswith("res_ad"):
                bad = _far(a, b, ADIABATIC_RESIDUAL_TOL)
            elif h.startswith("max_eff_speed") and not real:
                bad = not a > 1.0
            else:
                bad = _far(a, b, SWEEP_TOL * max(1.0, abs(b)))
            if bad:
                fails.append(f"sweep.csv {h}[{i}] = {a!r}, reference {b!r}")
    return fails
