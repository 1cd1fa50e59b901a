"""Batch orchestration: one scenario per config file, CSV artifacts out.

A run builds the reference pair, its adiabatic and exact Moore functions,
the effective (STA) trajectories and their exact Moore functions, the limit
curves, and the energy/adiabaticity record, then writes:

    trajectories.csv   t, L_ref, R_ref, L_eff, R_eff, L_lim, R_lim
    moore.csv          z, F_ad, G_ad, F_exact, G_exact
    energy.csv         t, then per temperature E_ref, E_eff, E_ad, Q_ref, Q_eff
    summary.txt        key-value sections mirroring the config plus results

Superluminal pairs are refused by the exact solver; the run then reports
the gap (NaN columns, summary note) instead of dying, so sweeps can cross
the critical timescale.  All numeric output uses 17 significant digits and
fixed column order: identical configs give byte-identical files.
"""

from __future__ import annotations

import configparser
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import sta
from .energy import ThermalState, energy_record
from .errors import CavstaError, SuperluminalError
from .moore_adiabatic import AdiabaticMoore, adiabatic_residual
from .moore_exact import ExactMoore
from .trajectory import MirrorPath, TrajectoryPair, make_reference

__all__ = ["RunConfig", "load_config", "run", "sweep_tau", "RunResult", "SweepResult"]

_FMT = "%.17g"
_CSV = ("trajectories", "moore", "energy")
_ENERGY = ("E_ref", "E_eff", "E_ad", "Q_ref", "Q_eff")  # energy.csv columns per temperature
_BOOLEAN = configparser.ConfigParser.BOOLEAN_STATES
_NO_RESCALE = "sweep and critical search rescale tau; custom tables cannot"

# hard in-run checks (always enforced); strict mode adds realizability
_EXACT_RESIDUAL_MAX = 1e-6
_EFFECTIVE_RESIDUAL_MAX = 1e-9
# below this |kinetic weight| (1e-6 of its T = 0 size pi/24), the energy
# quadrature's ~1e-9 error, divided by E_ad, moves Q by more than 1e-3
_KINETIC_WEIGHT_MIN = 1e-6 * np.pi / 24.0


@dataclass(frozen=True)
class RunConfig:
    family: str = "contraction"
    L0: float = 0.0
    Lf: float | None = None
    R0: float = 1.0
    eps: float = 0.0
    tau: float = 1.0
    temperatures: tuple[float, ...] = (0.0,)
    time_step: float | None = None  # None -> the pair's tau/64
    spatial_points: int = 2001  # energy-record panel spacing, span/spatial_points
    moore_panels: int = 4096  # starting panel count of the advance integral
    effective_step: float | None = None  # None -> build_effective's default
    effective_refine_tol: float = 1e-8
    window: tuple[float, float] | None = None  # None -> sta.default_window(pair)
    out_dir: str = "out"
    csv: tuple = _CSV
    tau_list: tuple[float, ...] = ()
    critical: bool = False
    tau_min: float = 0.2
    tau_max: float = 1.2
    custom_left: tuple | None = None  # (breaks, coeff rows)
    custom_right: tuple | None = None
    strict: bool = False

    def __post_init__(self):
        """CavstaError naming section and key for a value that parses but
        makes no sense, so no work starts on it."""
        for section, keys in _KEYS.items():
            for key, (name, _, *rules) in keys.items():
                value = getattr(self, name)
                for want, ok in rules:
                    if value is not None and not ok(value):
                        raise CavstaError(f"[{section}] {key}: {want}, got {value!r}")
        if not 0 < self.tau_min < self.tau_max:
            raise CavstaError(
                f"[sweep] tau_min and tau_max: need 0 < tau_min < tau_max, "
                f"got {self.tau_min!r} and {self.tau_max!r}"
            )
        custom = self.family == "custom"
        for side in ("left", "right"):
            table = getattr(self, f"custom_{side}")
            keys = f"[geometry] {side}_breaks and {side}_coeffs"
            if (table is not None) != custom:
                raise CavstaError(
                    f"{keys}: "
                    + (f"need family = custom, got {self.family}" if table is not None
                       else "family = custom needs both mirrors' tables")
                )
            if custom:
                try:
                    MirrorPath(*table)
                except CavstaError as exc:
                    raise CavstaError(f"{keys}: {exc}") from None
        if custom and self.critical:
            raise CavstaError(f"[sweep] critical: {_NO_RESCALE}")


def _parse_floats(text: str) -> tuple:
    return tuple(float(v) for v in text.replace(",", " ").split())


def _parse_rows(text: str) -> tuple:
    rows = np.array(json.loads(text), dtype=float)
    if rows.ndim != 2:
        raise ValueError(text)
    return tuple(map(tuple, rows.tolist()))


def _parse_csv(text: str) -> tuple:
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    if not set(names) <= set(_CSV):
        raise ValueError(text)
    return names


def _auto(parse):
    """Parser where `auto` means the RunConfig default (None)."""
    return lambda text: None if text.strip() == "auto" else parse(text)


# what a value that parses must also be, and its test; None (`auto`)
# passes every rule
_FINITE = ("must be finite", lambda v: bool(np.all(np.isfinite(v))))
_POSITIVE = ("must be > 0", lambda v: v > 0)
_AT_LEAST_ONE = ("must be >= 1", lambda v: v >= 1)
_TEMPERATURES = ("must be one or more values >= 0", lambda v: v and all(T >= 0 for T in v))
_TWO_VALUES = ("must be two values", lambda v: len(v) == 2)
_WINDOW = ("must have start < end", lambda v: v[0] < v[1])
# empty passes: only a sweep needs taus, and it asks for three
_ASCENDING = ("must be ascending values > 0", lambda v: all(a < b for a, b in zip((0.0, *v), v)))

# energy.csv columns and summary keys name a temperature by its _t_label
_DISTINCT_LABELS = (
    "must differ in their first 6 significant digits",
    lambda v: len({_t_label(T) for T in v}) == len(v),
)

# every accepted key, per section: the RunConfig field it sets, its parser,
# and the rules its value must pass, checked in order (a range rule before
# _FINITE, so an out-of-range value keeps its range message).  Keys are
# lower case, as configparser folds them.  A custom mirror table is one
# field given by two keys, its breaks and then its rows; RunConfig checks
# it by building its MirrorPath.  tau_max may be inf.
_KEYS = {
    "geometry": {
        "family": ("family", str.strip),
        "l0": ("L0", float, _FINITE),
        "lf": ("Lf", float, _FINITE),
        "r0": ("R0", float, _FINITE),
        "eps": ("eps", float, _FINITE),
        "tau": ("tau", float, _POSITIVE, _FINITE),
        "left_breaks": ("custom_left", _parse_floats),
        "left_coeffs": ("custom_left", _parse_rows),
        "right_breaks": ("custom_right", _parse_floats),
        "right_coeffs": ("custom_right", _parse_rows),
    },
    "numerics": {
        "temperatures": ("temperatures", _parse_floats, _TEMPERATURES, _FINITE, _DISTINCT_LABELS),
        "time_step": ("time_step", _auto(float), _POSITIVE, _FINITE),
        "spatial_points": ("spatial_points", int, _AT_LEAST_ONE),
        "moore_panels": ("moore_panels", int, _AT_LEAST_ONE),
        "effective_step": ("effective_step", _auto(float), _POSITIVE, _FINITE),
        "effective_refine_tol": ("effective_refine_tol", float, _POSITIVE, _FINITE),
        "window": ("window", _auto(_parse_floats), _TWO_VALUES, _WINDOW, _FINITE),
    },
    "outputs": {
        "dir": ("out_dir", str.strip),
        "csv": ("csv", _parse_csv),
    },
    "sweep": {
        "tau_list": ("tau_list", _parse_floats, _ASCENDING, _FINITE),
        "critical": ("critical", lambda text: _BOOLEAN[text.lower()]),
        "tau_min": ("tau_min", float),
        "tau_max": ("tau_max", float),
    },
}


def load_config(path: str) -> RunConfig:
    """RunConfig from an INI file.  An unknown section or key, half a custom
    table, a value that does not parse or one out of range raises
    CavstaError."""
    # no default section: a [DEFAULT] is an unknown section like any other
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        if not cp.read(path, encoding="utf-8"):
            raise CavstaError(f"config file not found or unreadable: {path}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise CavstaError(f"cannot parse {path}: {' '.join(str(exc).split())}") from None
    kw = {}
    for section in cp.sections():
        if section not in _KEYS:
            raise CavstaError(f"unknown section [{section}]")
        keys, items = _KEYS[section], cp[section]
        unknown = sorted(set(items) - set(keys))
        if unknown:
            raise CavstaError(f"unknown [{section}] keys: {', '.join(unknown)}")
        given = {}  # field -> {key: parsed value}
        for key, (name, parse, *_) in keys.items():
            if key in items:
                try:
                    given.setdefault(name, {})[key] = parse(items[key])
                except (KeyError, TypeError, ValueError):
                    raise CavstaError(f"[{section}] {key}: cannot parse {items[key]!r}") from None
        for name, values in given.items():
            want = [k for k, (n, *_) in keys.items() if n == name]
            if len(values) < len(want):
                raise CavstaError(f"[{section}] {' and '.join(want)} go together")
            kw[name] = tuple(values.values()) if len(want) > 1 else values[want[0]]
    return RunConfig(**kw)


def _build_pair(cfg: RunConfig) -> TrajectoryPair:
    if cfg.family == "custom":
        return TrajectoryPair(MirrorPath(*cfg.custom_left), MirrorPath(*cfg.custom_right))
    return make_reference(
        cfg.family, L0=cfg.L0, Lf=cfg.Lf, R0=cfg.R0, eps=cfg.eps, tau=cfg.tau
    )


def _time_grid(cfg: RunConfig, pair: TrajectoryPair):
    lo, hi = cfg.window if cfg.window is not None else sta.default_window(pair)
    dt = cfg.time_step if cfg.time_step is not None else pair.tau / 64.0
    n = max(2, int(round((hi - lo) / dt)))
    return np.linspace(lo, hi, n + 1)


@dataclass
class RunResult:
    config: RunConfig
    files: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    hard_failures: list = field(default_factory=list)
    strict_failures: list = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        if self.hard_failures:
            return 1
        if self.config.strict and self.strict_failures:
            return 2
        return 0


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return _FMT % v
    return str(v)


def _t_label(T: float) -> str:
    return ("%g" % T).replace("-", "m").replace(".", "p")


def _write_summary(path: str, sections: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for name, entries in sections.items():
            f.write(f"[{name}]\n")
            for key, val in entries.items():
                f.write(f"{key} = {_fmt(val)}\n")
            f.write("\n")


def _make_out_dir(cfg: RunConfig) -> None:
    """Create the output directory before any work, so a path that cannot
    be one fails at once and by name, not after the whole computation."""
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise CavstaError(f"cannot create output directory {cfg.out_dir}: {exc.strerror}") from exc


def _write_artifacts(result: RunResult, tables: dict, summary_name: str, summary: dict) -> None:
    """Write each table, name: (header, columns), as name.csv in order, then
    the summary, into the output directory that `_make_out_dir` made; list
    each on `result.files`."""
    out_dir = result.config.out_dir
    for name, (header, columns) in tables.items():
        path = os.path.join(out_dir, f"{name}.csv")
        np.savetxt(path, np.column_stack(columns), fmt=_FMT, delimiter=",",
                   header=",".join(header), comments="", encoding="utf-8")
        result.files.append(path)
    result.summary = summary
    path = os.path.join(out_dir, summary_name)
    _write_summary(path, summary)
    result.files.append(path)


def _scenario(cfg: RunConfig):
    """Build everything one scenario needs; shared by run and sweep."""
    pair = _build_pair(cfg)
    am = AdiabaticMoore.build(pair, cfg.moore_panels)
    times = _time_grid(cfg, pair)
    t_lo, t_hi = float(times[0]), float(times[-1])
    num = dict(step=cfg.effective_step, refine_tol=cfg.effective_refine_tol)
    eff = tuple(sta.build_effective(am, side, t_lo, t_hi, **num) for side in ("left", "right"))
    lim = sta.limit_trajectory(pair.L0, pair.Lf, pair.R0, pair.Rf)
    return pair, am, times, eff, lim


def _critical_tau(cfg: RunConfig):
    """Critical timescale of the configured geometry, or why it was not found."""
    try:
        return sta.critical_tau(
            cfg.family, cfg.L0, cfg.Lf, cfg.R0, cfg.eps, cfg.tau_min, cfg.tau_max
        )
    except CavstaError as exc:
        return f"not found: {exc}"


def _try_exact(pair, notes: list, label: str):
    try:
        return ExactMoore(pair)
    except SuperluminalError as exc:
        notes.append(f"{label}: {exc}")
        return None


def run(cfg: RunConfig) -> RunResult:
    _make_out_dir(cfg)
    result = RunResult(config=cfg)
    pair, am, times, eff, (lim_l, lim_r) = _scenario(cfg)
    eff_pair = TrajectoryPair(*eff)
    notes: list = []
    exact_ref = _try_exact(pair, notes, "reference pair")
    exact_eff = _try_exact(eff_pair, notes, "effective pair")

    states = [ThermalState(T, pair.d0) for T in cfg.temperatures]
    # the reference run also gives moore.csv's exact columns at the times
    rec_ref = energy_record(times, states, exact_ref, pair, cfg.spatial_points, at=times)
    rec_eff = energy_record(times, states, exact_eff, eff_pair, cfg.spatial_points)

    res_ad = adiabatic_residual(am, times)
    # read off the energy record's traces; NaN when there is no solver
    res_exact = rec_ref.residual
    if exact_ref is not None and max(res_exact) > _EXACT_RESIDUAL_MAX:
        result.hard_failures.append(
            f"exact Moore residual {max(res_exact):.3e} above {_EXACT_RESIDUAL_MAX}"
        )
    for side in ("left", "right"):
        tr = getattr(eff_pair, side)
        if tr.residual_sup > _EFFECTIVE_RESIDUAL_MAX:
            result.hard_failures.append(
                f"effective {side} defining residual {tr.residual_sup:.3e} "
                f"above {_EFFECTIVE_RESIDUAL_MAX}"
            )
        if not tr.realizable:
            result.strict_failures.append(
                f"effective {side} trajectory superluminal "
                f"(max speed {tr.max_speed_sampled:.4g})"
            )
    for note in notes:
        result.strict_failures.append(note)

    # (temperature, _ENERGY column, time)
    energy = np.stack([rec_ref.E, rec_eff.E, rec_ref.E_ad, rec_ref.Q, rec_eff.Q], 1)
    paths = (pair.left, pair.right, eff_pair.left, eff_pair.right, lim_l, lim_r)
    tables = {  # name: (header, columns)
        "trajectories": (
            ["t", "L_ref", "R_ref", "L_eff", "R_eff", "L_lim", "R_lim"],
            [times] + [x(times) for x in paths],
        ),
        "moore": (
            ["z", "F_ad", "G_ad", "F_exact", "G_exact"],
            [times, am.F(times), am.G(times), rec_ref.F, rec_ref.G],
        ),
        "energy": (
            ["t"] + [f"{key}_T{_t_label(T)}" for T in cfg.temperatures for key in _ENERGY],
            [times, *energy.reshape(-1, times.size)],
        ),
    }
    results_section = {
        "window_start": float(times[0]),
        "window_end": float(times[-1]),
        "adiabatic_residual_L": res_ad[0],
        "adiabatic_residual_R": res_ad[1],
        "exact_residual_L": res_exact[0],
        "exact_residual_R": res_exact[1],
        "continuity_check": sta.continuity_check(pair.L0, pair.Lf, pair.R0, pair.Rf),
        "v_lim": lim_r.v_lim,
        "max_eff_speed_left": eff_pair.left.max_speed_sampled,
        "max_eff_speed_right": eff_pair.right.max_speed_sampled,
        "realizable_left": eff_pair.left.realizable,
        "realizable_right": eff_pair.right.realizable,
        "eff_residual_left": eff_pair.left.residual_sup,
        "eff_residual_right": eff_pair.right.residual_sup,
        "exact_reference_available": exact_ref is not None,
        "exact_effective_available": exact_eff is not None,
    }
    for i, T in enumerate(cfg.temperatures):
        lab = _t_label(T)
        results_section[f"q_ref_final_T{lab}"] = float(rec_ref.Q[i, -1])
        results_section[f"q_eff_final_T{lab}"] = float(rec_eff.Q[i, -1])
        # Q divides by E_ad, which is proportional to this weight; near its
        # zero (T*d0 ~ 0.955) Q is ill-conditioned
        weight = results_section[f"kinetic_weight_T{lab}"] = states[i].kinetic_weight
        if abs(weight) < _KINETIC_WEIGHT_MIN:
            result.strict_failures.append(
                f"kinetic weight {weight:.3g} at T={T:g} is near zero: "
                "Q = E/E_ad is ill-conditioned"
            )
    for j, note in enumerate(notes):
        results_section[f"note_{j}"] = note
    if cfg.critical:
        results_section["critical_tau"] = _critical_tau(cfg)

    summary = {
        "geometry": {
            "family": cfg.family,
            "L0": pair.L0,
            "Lf": pair.Lf,
            "R0": pair.R0,
            "Rf": pair.Rf,
            **({} if cfg.family == "custom" else {"eps": cfg.eps}),  # custom has no eps
            "tau": pair.tau,
        },
        "numerics": {
            "temperatures": " ".join(_FMT % T for T in cfg.temperatures),
            "time_step": times[1] - times[0],
            "spatial_points": cfg.spatial_points,
            "moore_panels": cfg.moore_panels,
            "effective_refine_tol": cfg.effective_refine_tol,
        },
        "outputs": {"csv": ", ".join(cfg.csv)},
        "results": results_section,
    }
    chosen = {name: table for name, table in tables.items() if name in cfg.csv}
    _write_artifacts(result, chosen, "summary.txt", summary)
    return result


@dataclass
class SweepResult(RunResult):
    rows: list = field(default_factory=list)


def _limit_distance(eff, lim, times, tau: float) -> float:
    """Sup distance between effective and limit curves, excluding a width-2tau
    neighborhood (half-width tau) of each limit breakpoint."""
    keep = np.ones(times.shape, dtype=bool)
    for b in lim.breakpoints:
        keep &= np.abs(times - b) > tau
    if not keep.any():
        return float("nan")
    return float(np.max(np.abs(eff(times[keep]) - lim(times[keep]))))


def _sweep_one(cfg: RunConfig) -> dict:
    # the effective trajectories are read one by one: a sweep row needs no
    # pair, and so no exact gap check
    _, am, times, (eff_l, eff_r), (lim_l, lim_r) = _scenario(cfg)
    res_ad = adiabatic_residual(am, times)
    return {
        "tau": cfg.tau,
        "res_ad_L": res_ad[0],
        "res_ad_R": res_ad[1],
        "res_ad_max": max(res_ad),
        "max_eff_speed_left": eff_l.max_speed_sampled,
        "max_eff_speed_right": eff_r.max_speed_sampled,
        "dist_limit_left": _limit_distance(eff_l, lim_l, times, cfg.tau),
        "dist_limit_right": _limit_distance(eff_r, lim_r, times, cfg.tau),
        "realizable": 1.0 if eff_l.realizable and eff_r.realizable else 0.0,
    }


def sweep_tau(cfg: RunConfig) -> SweepResult:
    if cfg.family == "custom":
        raise CavstaError(_NO_RESCALE)
    taus = cfg.tau_list
    if len(taus) < 3:
        raise CavstaError(f"sweep needs at least 3 tau values, got {len(taus)}")
    _make_out_dir(cfg)
    result = SweepResult(config=cfg)
    rows = result.rows = [_sweep_one(replace(cfg, tau=t)) for t in taus]

    # a motionless row has no residual to fit; a log of its 0 would be -inf
    res = np.array([r["res_ad_max"] for r in rows])
    fit = res > 0.0
    if np.count_nonzero(fit) >= 2:
        slope = float(np.polyfit(np.log(np.array(taus)[fit]), np.log(res[fit]), 1)[0])
    else:
        slope = "not fitted: fewer than two taus with a nonzero adiabatic residual"
    speeds = [max(r["max_eff_speed_left"], r["max_eff_speed_right"]) for r in rows]
    results_section = {
        "residual_loglog_slope": slope,
        "speeds_decrease_with_tau": bool(np.all(np.diff(speeds) <= 1e-9)),
    }
    if cfg.critical:
        results_section["critical_tau"] = _critical_tau(cfg)
    for r in rows:
        if not r["realizable"]:
            result.strict_failures.append(f"tau={r['tau']:g} superluminal")
    summary = {
        "geometry": {
            "family": cfg.family,
            "L0": cfg.L0,
            "Lf": "auto" if cfg.Lf is None else cfg.Lf,
            "R0": cfg.R0,
            "eps": cfg.eps,
        },
        "sweep": {"tau_list": " ".join(_FMT % t for t in taus)},
        "results": results_section,
    }
    keys = list(rows[0].keys())
    sweep = (keys, [np.array([r[k] for r in rows]) for k in keys])
    _write_artifacts(result, {"sweep": sweep}, "sweep_summary.txt", summary)
    return result
