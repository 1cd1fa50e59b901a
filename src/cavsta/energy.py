"""Renormalized field energy, thermal corrections, adiabaticity, and modes.

The renormalized energy density of the 1D massless field between moving
mirrors splits into left/right-mover contributions of the Moore functions,

    <T_tt>(x, t) = f_G(t + x) + f_F(t - x),
    f_h = -(1/24 pi) [h'''/h' - (3/2)(h''/h')^2] + (h'^2 / 2) [-pi/24 + Z],

a Schwarzian-type conformal-anomaly piece plus a kinetic piece whose weight
carries the initial thermal occupation Z(T d0) = sum_n n pi/(e^{n pi/(T d0)}-1).
The adiabaticity parameter Q(t) = E(t)/E_ad(d(t)) equals 1 exactly when the
field tracks the adiabatic state of the instantaneous cavity length.

Each piece depends on one null coordinate, so the total energy is a
difference of one-variable primitives,

    E(t) = A_G(t + R) - A_G(t + L) + A_F(t - L) - A_F(t - R).

With r = h''/h' the anomaly bracket equals r' - r^2/2 (Schwarzian identity),
so its primitive is -(1/24 pi) [r - (1/2) int r^2]: the total energy needs
only h' and h'', so its traces carry derivatives to second order only, and
`density` stays the one pointwise consumer of h'''.
Each Moore map gets one uniform grid across the arguments a call needs,
kept only inside the union of the sample cavities (no sample integrates a
panel between two disjoint cavities), with every sample endpoint and every
kink argument (null rays launched from trajectory breakpoints, where Simpson
would lose order) as a node.  One cumulative Simpson pass per connected part
of that union, on its nodes and midpoints, then gives every E(t_j) as a
difference of node values.  Anomaly and kinetic primitives stay separate
because the thermal weight multiplies only the kinetic one, so one pass
serves every temperature.

The sample endpoints are the cavity ends t + L, t + R (G) and t - R, t - L
(F), so the map values kept at those nodes give the mirror residuals of
`moore_exact.mirror_residuals`.  A caller's `at` rides in the same batch,
after the nodes and midpoints, so a run traces each map of its pair once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DensityError
from .moore_adiabatic import _cumulative_simpson
from .moore_exact import mirror_residuals
from .trajectory import _sorted_unique

__all__ = [
    "thermal_Z",
    "ThermalState",
    "density",
    "total_energy",
    "adiabatic_energy",
    "eval_mode",
    "EnergyRecord",
    "energy_record",
]

_QUARTER_PI_6 = np.pi / 24.0


def thermal_Z(x: float) -> float:
    """Thermal sum Z(x) = sum_{n>=1} n pi / (exp(n pi / x) - 1), x = T*d0.

    For x <= 1 the terms decay like exp(-n pi/x); summation stops when a
    term drops below 1e-15 (1 + partial sum).  For x > 1, where that takes
    O(x) terms, the dual series of the E2 modular identity

        Z(x) = pi/24 + pi x^2/6 - x/2 - 4 pi x^2 sum_{n>=1} n / (exp(4 pi x n) - 1)

    is summed instead: its terms fall like exp(-4 pi x n), so four of them
    leave a relative error below 1e-20.  Z(0) = 0 by continuity.  Z > 1.8e308 raises ValueError.
    """
    if not 0.0 <= x < np.inf:
        raise ValueError(f"thermal argument must be finite and nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    if x > 1.0:
        Z = np.pi / 24.0 + np.pi * x * x / 6.0 - x / 2.0
        if Z == np.inf:
            raise ValueError(f"thermal sum overflows the float range at argument {x}")
        n = np.arange(1.0, 5.0)
        a = 4.0 * np.pi * x * n
        tail = float(np.sum(n * np.exp(-a) / -np.expm1(-a)))
        # the tail is 0 past x ~ 59, and 4 pi x^2 * 0 is NaN past x ~ 3.8e153
        return Z - (4.0 * np.pi * x * x * tail if tail else 0.0)
    total = 0.0
    n = 1
    with np.errstate(over="ignore"):  # below x = 4.4e-3 the first term is pi / inf = 0
        while True:
            term = n * np.pi / np.expm1(n * np.pi / x)
            total += term
            if term < 1e-15 * (1.0 + total):
                return total
            n += 1


@dataclass(frozen=True)
class ThermalState:
    """Initial thermal state: temperature T and initial cavity length d0.

    Caches Z(T*d0); `kinetic_weight` = -pi/24 + Z multiplies the h'^2/2
    density piece and the 1/d adiabatic energy.
    """

    T: float
    d0: float
    Z: float = field(init=False)

    def __post_init__(self):
        if self.T < 0:
            raise ValueError(f"temperature must be nonnegative, got {self.T}")
        if self.d0 <= 0:
            raise ValueError(f"initial length must be positive, got {self.d0}")
        object.__setattr__(self, "Z", thermal_Z(self.T * self.d0))

    @property
    def kinetic_weight(self) -> float:
        return -_QUARTER_PI_6 + self.Z


def _slope_ratio(h1, h2):
    """r = h''/h' of one Moore jet; the density is undefined where h' = 0."""
    if np.min(np.abs(h1)) < 1e-12:
        raise DensityError("Moore-function derivative vanishes; density undefined")
    return h2 / h1


def _density_parts(jet):
    """(anomaly, kinetic) density pieces for one Moore jet."""
    h1, h2, h3 = jet[1], jet[2], jet[3]
    r = _slope_ratio(h1, h2)
    anom = -(h3 / h1 - 1.5 * r * r) / (24.0 * np.pi)
    kin = 0.5 * h1 * h1
    return anom, kin


def _check_inside(pair, x, t):
    xl, xr = pair.left(t), pair.right(t)
    tol = 1e-9 * max(1.0, xr - xl)
    if np.any(x < xl - tol) or np.any(x > xr + tol):
        raise DensityError(f"x outside the cavity [{xl}, {xr}] at t={t}")


def density(moore, x, t: float, state: ThermalState):
    """Renormalized energy density at position(s) x and time t."""
    x = np.asarray(x, dtype=float)
    _check_inside(moore.pair, x, t)
    anom_g, kin_g = _density_parts(moore.G_jet(t + x))
    anom_f, kin_f = _density_parts(moore.F_jet(t - x))
    out = anom_g + anom_f + state.kinetic_weight * (kin_g + kin_f)
    return float(out) if np.ndim(out) == 0 else out


def _connected_parts(lo, hi):
    """(starts, ends) of the connected parts of the union of the intervals
    [lo[j], hi[j]], from lo and hi each sorted on its own.  A new part
    begins at the (k+1)-th smallest start exactly when the k-th smallest end
    lies below it: then the k intervals that start first have all ended
    (their ends are the k smallest), and the k-th smallest end is the last
    of theirs, the end of the part before."""
    starts, ends = np.sort(lo), np.sort(hi)
    first = np.concatenate([[True], starts[1:] > ends[:-1]])
    last = np.concatenate([first[1:], [True]])
    return starts[first], ends[last]


def _map_parts(jet, kinks, lo, hi, points, at):
    """(anomaly, kinetic) integrals of one Moore map's density pieces over
    [lo[j], hi[j]] for every j, then the map's values at lo, at hi and at
    `at`; `jet` is the map's jet function, `kinks` its kink arguments.

    The grid spaces `points` panels evenly across [min lo, max hi] and keeps
    the nodes inside the union of the intervals; with every endpoint and
    every kink argument inside it, those are the nodes.  Each connected part
    of the union gets its own cumulative Simpson pass from zero, so a panel
    between two parts is neither traced nor summed, and each integral is a
    difference of node values within one part.  `at` is traced in the same
    batch after the nodes and midpoints, and only those feed the quadrature."""
    starts, ends = _connected_parts(lo, hi)
    grid = np.concatenate([np.linspace(np.min(lo), np.max(hi), points + 1), kinks])
    k = np.searchsorted(starts, grid, side="right") - 1
    inside = (k >= 0) & (grid <= ends[np.maximum(k, 0)])
    nodes = _sorted_unique(np.concatenate([grid[inside], lo, hi]))
    n = nodes.size
    part = np.searchsorted(starts, nodes, side="right")
    inner = part[1:] == part[:-1]  # the panels inside one part
    mids = 0.5 * (nodes[:-1] + nodes[1:])[inner]
    m = n + mids.size
    h0, h1, h2 = jet(np.concatenate([nodes, mids, at]), 2)
    h1, h2 = h1[:m], h2[:m]
    r = _slope_ratio(h1, h2)
    width = np.diff(nodes) / 6.0
    cuts = np.flatnonzero(~inner) + 1  # the first node of every later part

    def primitive(f):
        # restarting at zero keeps the rounding of earlier parts' running
        # sums out of every later sample's difference
        f_mid = np.zeros(n - 1)
        f_mid[inner] = f[n:]
        return np.concatenate(
            [
                _cumulative_simpson(0.0, width[s : e - 1], f[s:e], f_mid[s : e - 1])
                for s, e in zip(np.r_[0, cuts], np.r_[cuts, n])
            ]
        )

    rr, kk = primitive(r * r), primitive(h1 * h1)
    i, j = np.searchsorted(nodes, lo), np.searchsorted(nodes, hi)
    anom = -((r[j] - r[i]) - 0.5 * (rr[j] - rr[i])) / (24.0 * np.pi)
    return anom, 0.5 * (kk[j] - kk[i]), (h0[i], h0[j], h0[m:])


def total_energy(moore, pair, t: float, state: ThermalState, points: int = 2001) -> float:
    """Total field energy at time t, with `points` Simpson panels per Moore
    map: the one-sample, one-state `energy_record`."""
    return float(energy_record(np.array([float(t)]), [state], moore, pair, points).E[0, 0])


def adiabatic_energy(d: float, state: ThermalState) -> float:
    """Adiabatic energy at cavity length d: (-pi/24 + Z(T d0))/d.

    Z stays pinned to the *initial* length; adiabatic evolution preserves
    the occupation numbers set by the initial thermal state.
    """
    if d <= 0:
        raise ValueError(f"cavity length must be positive, got {d}")
    return state.kinetic_weight / d


def eval_mode(moore, k: int, x, t: float):
    """Field mode psi_k(x, t) = (i/sqrt(4 pi k)) [e^{-i k pi G(t+x)} - e^{-i k pi F(t-x)}].

    The relative minus sign enforces the Dirichlet conditions: G(t+L) = F(t-L)
    kills the mode at the left mirror, G(t+R) = F(t-R) + 2 at the right.
    """
    if k < 1 or int(k) != k:
        raise ValueError(f"mode number must be a positive integer, got {k}")
    x = np.asarray(x, dtype=float)
    _check_inside(moore.pair, x, t)
    G = moore.G_jet(t + x, 1)[0]  # order 1, an exact solver's lowest
    F = moore.F_jet(t - x, 1)[0]
    pref = 1j / np.sqrt(4.0 * np.pi * k)
    out = pref * (np.exp(-1j * k * np.pi * G) - np.exp(-1j * k * np.pi * F))
    return complex(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class EnergyRecord:
    """Per-temperature time series of one run.

    E, E_ad and Q are (n_temperatures, n_times): rows follow the states and
    columns the times given to `energy_record`, which the record does not
    repeat.  Q = E/E_ad, with E_ad following the run's own cavity length.
    F, G are the run's exact Moore functions at `at`, and `residual` its
    two mirror residual sups over the times (as `ExactMoore.residuals`).
    A run the exact solver refused (superluminal pair) holds NaN in every
    field but E_ad.
    """

    E: np.ndarray
    E_ad: np.ndarray
    Q: np.ndarray
    F: np.ndarray
    G: np.ndarray
    residual: tuple


def energy_record(times, states, moore, pair, points: int = 2001, at=np.empty(0)) -> EnergyRecord:
    """Energy/adiabaticity time series of one run; the one builder of a cavity energy.

    The exact Moore solution of `pair` enters through `moore`; None leaves
    every field but E_ad NaN (reported, not fatal, so sweeps can cross the
    superluminal regime).  Each sample integrates G over t + [L, R] and F
    over t - [R, L].  `points` sets each Moore map's Simpson panel spacing,
    (max - min)/`points` across the arguments the run needs; panels outside
    every sample cavity are skipped.

    Each Moore map is traced once.  F and G at `at` ride in the energy
    batch, and the mirror residuals are read off the cavity-end nodes, so a
    caller needs no further trace for them."""
    times = np.asarray(times, dtype=float)
    weight = np.array([st.kinetic_weight for st in states])[:, None]
    E_ad = weight / pair.gap(times)  # adiabatic_energy at every sample
    if moore is None:
        nan = np.full(times.shape, np.nan)
        anom, kin, F, G, residual = nan, nan, *np.full((2, len(at)), np.nan), (np.nan, np.nan)
    else:
        L, R = pair.left(times), pair.right(times)
        # one kink_args call over both maps' arguments (t + L < t - R where L + R < 0)
        lo = min(np.min(times - R), np.min(times + L))
        hi = max(np.max(times + R), np.max(times - L))
        z_kinks, w_kinks = moore.kink_args(float(lo), float(hi))
        anom_g, kin_g, (g_l, g_r, G) = _map_parts(
            moore.G_jet, z_kinks, times + L, times + R, points, at
        )
        anom_f, kin_f, (f_r, f_l, F) = _map_parts(
            moore.F_jet, w_kinks, times - R, times - L, points, at
        )
        anom, kin, residual = anom_g + anom_f, kin_g + kin_f, mirror_residuals(g_l, g_r, f_l, f_r)
    E = anom + weight * kin
    with np.errstate(divide="ignore", invalid="ignore"):
        Q = E / E_ad
    return EnergyRecord(E=E, E_ad=E_ad, Q=Q, F=F, G=G, residual=residual)
