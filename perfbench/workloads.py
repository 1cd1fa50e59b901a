"""Seeded workload generator: one INI config per (workload, seed).

Seed 0 gives the canonical configs.  Any other seed varies the input:

- sweep_critical jitters the final left mirror position Lf and the
  right-mirror contraction eps by at most +-GEOMETRY_JITTER.  Across that
  range the effective speed at tau = 1.2 stays below 0.89 and the critical
  timescale stays inside the [0.2, 1.2] search window.
- run_contraction and run_slow keep the canonical geometry and stretch the
  time step by at most +-STEP_JITTER (relative), which moves every energy
  sample but the last.  Their cost must not depend on the seed.  The energy
  quadrature's adaptive refinement reacts chaotically to the geometry: with
  Lf and eps jittered by only +-0.0005, run_contraction's points per energy
  sample ranged from 2.1k to 3.8k.  Its noise floor is probed at the last
  sample, which the window end pins, so a stretched step leaves it alone.

The program only ever sees the INI text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

GEOMETRY_JITTER = 0.02
STEP_JITTER = 0.02
BASE_LF = 0.3
BASE_EPS = 0.3
TAU_LIST = (0.3, 0.6, 1.2, 2.4, 4.8)
TAU_WINDOW = (0.2, 1.2)

# why each workload is in the benchmark (mirrored in BENCHMARK.json)
WHY = {
    "run_contraction": "README run: many shallow backward traces, energy quadrature dominates",
    "run_slow": "tau=40: few deep backward traces, per-bounce cost dominates",
    "sweep_critical": "sweep with critical search: effective-trajectory builds only, no exact Moore or energy",
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # cavsta subcommand: "run" or "sweep"
    Lf: float
    eps: float
    time_step: str
    ini: str  # config text handed to the program

    @property
    def artifacts(self) -> tuple:
        if self.command == "run":
            return ("trajectories.csv", "moore.csv", "energy.csv", "summary.txt")
        return ("sweep.csv", "sweep_summary.txt")


def _fmt(v: float) -> str:
    return repr(float(v))


def make(name: str, seed: int, out_dir: str) -> Workload:
    """Config for `name` at `seed`, writing artifacts to `out_dir`."""
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WHY)}")
    rng = random.Random(seed)
    u, v = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) if seed else (0.0, 0.0)
    tau, step = (40.0, 2.0) if name == "run_slow" else (1.2, 1.2 / 64.0)
    if name == "sweep_critical":
        Lf, eps = BASE_LF + GEOMETRY_JITTER * u, BASE_EPS + GEOMETRY_JITTER * v
    else:
        Lf, eps = BASE_LF, BASE_EPS
        step *= 1.0 + STEP_JITTER * u
    # the sweep and seed 0 of run_contraction leave the step to the program
    # (tau/64 of each swept tau)
    auto = name == "sweep_critical" or (seed == 0 and name == "run_contraction")
    time_step = "auto" if auto else _fmt(step)
    lines = [
        "[geometry]",
        "family = contraction",
        "L0 = 0.0",
        f"Lf = {_fmt(Lf)}",
        "R0 = 1.0",
        f"eps = {_fmt(eps)}",
        f"tau = {_fmt(tau)}",
        "",
        "[numerics]",
        "temperatures = 0 1",
        "window = auto",
        f"time_step = {time_step}",
        "",
        "[outputs]",
        f"dir = {out_dir}",
    ]
    if name == "sweep_critical":
        lines += [
            "",
            "[sweep]",
            "tau_list = " + " ".join(_fmt(t) for t in TAU_LIST),
            "critical = yes",
            f"tau_min = {_fmt(TAU_WINDOW[0])}",
            f"tau_max = {_fmt(TAU_WINDOW[1])}",
        ]
        command = "sweep"
    else:
        lines.append("csv = trajectories, moore, energy")
        command = "run"
    return Workload(name, command, Lf, eps, time_step, "\n".join(lines) + "\n")
