"""Numerics for a one dimensional cavity with two moving mirrors.

Given smooth reference trajectories for the mirrors, this package computes
the exact and adiabatic Moore phase functions of the field, synthesizes
effective trajectories that realize the adiabatic field state in finite
time, and evaluates the renormalized energy density and the adiabaticity
ratio Q(t) at zero and finite temperature.
"""

from .energy import (
    EnergyRecord,
    ThermalState,
    adiabatic_energy,
    density,
    energy_record,
    eval_mode,
    thermal_Z,
    total_energy,
)
from .errors import (
    BracketError,
    CavstaError,
    ContinuityError,
    ConvergenceError,
    DensityError,
    GeometryError,
    SuperluminalError,
)
from .moore_adiabatic import AdiabaticMoore, adiabatic_residual
from .moore_exact import ExactMoore
from .runner import RunConfig, load_config, run, sweep_tau
from .sta import (
    EffectivePair,
    EffectiveTrajectory,
    LimitTrajectory,
    build_effective,
    continuity_check,
    critical_tau,
    default_window,
    limit_trajectory,
)
from .trajectory import MirrorPath, TrajectoryPair, make_reference

__version__ = "0.1.0"

__all__ = [
    "AdiabaticMoore",
    "BracketError",
    "CavstaError",
    "ContinuityError",
    "ConvergenceError",
    "DensityError",
    "EffectivePair",
    "EffectiveTrajectory",
    "EnergyRecord",
    "ExactMoore",
    "GeometryError",
    "LimitTrajectory",
    "MirrorPath",
    "RunConfig",
    "SuperluminalError",
    "ThermalState",
    "TrajectoryPair",
    "adiabatic_energy",
    "adiabatic_residual",
    "build_effective",
    "continuity_check",
    "critical_tau",
    "default_window",
    "density",
    "energy_record",
    "eval_mode",
    "limit_trajectory",
    "load_config",
    "make_reference",
    "run",
    "sweep_tau",
    "thermal_Z",
    "total_energy",
]
