"""Shortcut-to-adiabaticity effective trajectories.

A mirror driven along the effective trajectory makes the *exact* Moore
functions of the driven cavity coincide with the adiabatic Moore functions
of the reference protocol, so the field ends in the adiabatic target state
in finite time.  The defining conditions are

    G_ad(t + L_eff(t)) - F_ad(t - L_eff(t)) = 0,
    G_ad(t + R_eff(t)) - F_ad(t - R_eff(t)) = 2.

In the null coordinates u = t + x and v = t - x each is an explicit graph,
v = F_ad^-1(G_ad(u) - target) or u = G_ad^-1(F_ad(v) + target), solved on a
grid of one null coordinate by `AdiabaticMoore.invert`.  For instantaneous
reference motion the solution has the closed "limit" form: constants
joined by a uniform-velocity segment of slope

    v_lim = -(d0 - df) / (d0 + df),

negative for contractions, positive for expansions, zero for rigid motion.
Differentiating the defining equations gives the effective speed
(F' - G')/(F' + G'), with F' at t - x and G' at t + x.  The adiabatic
slopes are F_ad' = (1 + c)/(R - L) and G_ad' = (1 - c)/(R - L), with
c(t) = (L'R - LR')/(R - L), so an effective speed reaches 1 exactly where
|c| does.  The arguments t +- x of a subluminal mirror sweep the whole
line, so both effective mirrors stay subluminal iff sup_t |c| < 1.  Like
the adiabatic ansatz, c depends on the choice of spatial origin.  The equations are those of arXiv 2211.04969; this criterion is
derived from them here.  For the tau-scaled families L'R - LR' = K delta',
K = Lf R0 - L0 Rf, which gives the critical timescale tau_c in closed form
(`critical_tau`); K = 0 iff `continuity_check` holds.  Below tau_c the
effective trajectories exceed the speed of light; they are still returned,
flagged and unrefined, so callers can compare them against the limit curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BracketError, ConvergenceError, GeometryError, SuperluminalError
from .moore_adiabatic import AdiabaticMoore
from .trajectory import _STEP, PiecewisePath, TrajectoryPair, _real_roots, make_reference

__all__ = [
    "build_effective",
    "EffectiveTrajectory",
    "EffectivePair",
    "LimitTrajectory",
    "limit_trajectory",
    "continuity_check",
    "critical_tau",
    "default_window",
]

_TARGET = {"left": 0.0, "right": 2.0}
_MAX_REFINE = 5  # bisection rounds of a subluminal build_effective


def default_window(pair) -> tuple[float, float]:
    """Run window (motion_start - (x0 + tau), motion_end + max(3 df, xf + df)),
    x0 = max(|L0|, |R0|), xf = max(|Lf|, |Rf|), tau the motion window's
    length: one tau before the earliest effective onset (`build_effective`);
    after the motion, three final light-crossings, or one after the
    effective mirrors stop if later, so post-motion relaxation is visible."""
    x0 = max(abs(pair.L0), abs(pair.R0))
    df = pair.Rf - pair.Lf
    settled = max(abs(pair.Lf), abs(pair.Rf)) + df
    return (pair.motion_start - (x0 + pair.tau), pair.motion_end + max(3.0 * df, settled))


def _implicit_jet(am, side, u, v):
    """Exact dx/dt and d2x/dt2 at solved nodes (u, v) = (t + x, t - x), from
    differentiating the defining equation: with F' at v and G' at u,

        dx/dt   = (F' - G') / (F' + G'),
        d2x/dt2 = [F''(1-dx/dt)^2 - G''(1+dx/dt)^2] / (F' + G').

    The third value is the sup over the nodes of |G - F - target|, read off
    the same pass."""
    jet = am.jet("GF", np.concatenate([u, v]), 2)
    G0, F0, G1, F1, G2, F2 = (half for a in jet for half in np.split(a, 2))
    denom = G1 + F1
    slopes = (F1 - G1) / denom
    curv = (F2 * (1.0 - slopes) ** 2 - G2 * (1.0 + slopes) ** 2) / denom
    return slopes, curv, np.max(np.abs(G0 - F0 - _TARGET[side]))


def _quintic_rows(times, positions, slopes, curvatures) -> np.ndarray:
    """Ascending coefficients, one row per sample interval, of the C^2
    piecewise quintic matching value, slope and curvature at every node.
    The exact curvature data is what keeps the *third* derivative of the
    interpolant accurate to O(h^3); a cubic Hermite fit leaves O(h)
    third-derivative noise, which the energy density (built from third
    derivatives of the Moore functions) cannot tolerate."""
    h = np.diff(times)
    s0, k0 = slopes[:-1], curvatures[:-1]
    D0 = np.diff(positions) - h * s0 - 0.5 * h * h * k0
    D1 = h * (np.diff(slopes) - h * k0)
    D2 = h * h * np.diff(curvatures)
    c3 = (10.0 * D0 - 4.0 * D1 + 0.5 * D2) / h**3
    c4 = (-15.0 * D0 + 7.0 * D1 - D2) / h**4
    c5 = (6.0 * D0 - 3.0 * D1 + 0.5 * D2) / h**5
    return np.stack([positions[:-1], s0, 0.5 * k0, c3, c4, c5], axis=1)


class EffectiveTrajectory(PiecewisePath):
    """Solved effective trajectory for one mirror, with its interpolant.

    `times` are the t = (u + v)/2 of the solved nodes (u, v) in null
    coordinates, the knots of a C^2 quintic Hermite interpolant matching
    the nodes' x = (u - v)/2 and the exact implicit-function slopes and
    curvatures there.  They span the mirror's effective motion window (see
    `build_effective`); outside it the trajectory equals its exact edge
    values, the reference mirror's initial and final positions.  `breaks`
    reports only the ends of that window: the interior nodes are not C^3
    breaks that the exact Moore functions need to track.  `residual_sup` is
    the sup of |G_ad - F_ad - target| over the nodes.  `max_speed_sampled`
    is the exact sup of |dx/dt| over the interpolant; `realizable` is False
    when it reaches the speed of light (protocol faster than the critical
    timescale), and such curves remain usable for plotting and limit-curve
    comparison.  A superluminal curve is its build's unrefined round, on the
    nodes its fold rule kept, so its `max_speed_sampled` shows only that the
    speed exceeds 1: its size depends on how the grid met the fold.
    """

    def __init__(self, times, rows, before, after, residual_sup):
        super().__init__(times, rows, before, after)
        self.residual_sup = float(residual_sup)
        self.max_speed_sampled = self.max_speed()
        self.realizable = self.max_speed_sampled < 1.0

    # bound in this class's own namespace, so a tool that patches one path
    # class's evaluators leaves the other's alone
    __call__ = PiecewisePath.__call__
    jet = PiecewisePath.jet

    @property
    def times(self) -> np.ndarray:
        return self._knots

    @property
    def breaks(self) -> np.ndarray:
        return self._knots[[0, -1]]


def build_effective(
    am: AdiabaticMoore,
    side: str,
    t_lo: float,
    t_hi: float,
    step: float | None = None,
    refine_tol: float = 1e-8,
) -> EffectiveTrajectory:
    """The side's effective trajectory, as a graph in null coordinates.

    The reference mirror's edge values (x0, xf) solve the defining equation
    exactly up to on = motion_start - |x0| and from off = motion_end + |xf|
    on (the reference pair's motion window): there both Moore arguments
    t +- x lie outside the motion, where the adiabatic maps are static, and
    the curve holds x0 before its first knot and xf after its last.  In
    between, `AdiabaticMoore.invert` solves the branch on a uniform grid in
    u = t + x if K = Lf R0 - L0 Rf >= 0, else in v = t - x, from the end
    node (on, x0) to (off, xf), of spacing at most h = (t_hi - t_lo) /
    max(2, ceil((t_hi - t_lo) / step)) (default step pair.tau/512).  K has
    the sign of c (module docstring), so on the tau-scaled families the
    inverted map rises and the near-luminal stretches run along the grid
    coordinate; where that map does not rise the other coordinate is used,
    and where neither does SuperluminalError is raised.  Reflection x -> -x
    swaps u and v and the sign of K, so mirrored pairs build mirrored
    curves on the same knots.  Grid intervals longer than h in t, where the
    mirror moves against the grid coordinate, are bisected, in at most
    `_MAX_REFINE` passes.

    Each round keeps, on a fold (where t = (u + v)/2 turns back along the
    grid), only the nodes inside (on, off) whose t exceeds every earlier t,
    so the knots strictly increase; builds its EffectiveTrajectory on them;
    and bisects the grid intervals whose solved midpoint the curve misses
    by more than `refine_tol` d0, a fraction of the pair's initial length
    d0 = R0 - L0.  The first round with no miss returns its
    curve, and so does, unrefined, the first round with a node slope above
    1 in magnitude: a node slope is a candidate of `max_speed_sampled`, and
    later rounds keep every node.  A subluminal curve that still misses
    after `_MAX_REFINE` rounds raises ConvergenceError.
    """
    if side not in _TARGET:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    pair, target = am.pair, _TARGET[side]
    if step is None:
        step = pair.tau / 512.0
    h = (t_hi - t_lo) / max(2, int(np.ceil((t_hi - t_lo) / step)))
    x0, xf = (pair.right if side == "right" else pair.left).edges
    on, off = pair.motion_start - abs(x0), pair.motion_end + abs(xf)

    def solve(s):
        """(u, v, t, x) at grid values s; None if the map does not rise."""
        r = am.invert(inverted, s, target)
        if r is not None:
            u, v = (s, r) if sign > 0 else (r, s)
            return u, v, 0.5 * (u + v), 0.5 * (u - v)

    def bisect(nodes, i, new):
        """The nodes with new ones after the first node of each interval i."""
        return tuple(np.insert(a, i + 1, b) for a, b in zip(nodes, new))

    # sign +1: u-grid, v = F^-1(G(u) - target); -1: v-grid, u = G^-1(F(v) + target)
    for sign in (1.0, -1.0) if pair.Lf * pair.R0 >= pair.L0 * pair.Rf else (-1.0, 1.0):
        inverted = "F" if sign > 0 else "G"
        lo, hi = on + sign * x0, off + sign * xf
        nodes = solve(np.linspace(lo, hi, int(np.ceil((hi - lo) / h)) + 1))
        if nodes is not None:
            break
    else:
        raise SuperluminalError(
            f"effective {side} trajectory: neither F_ad nor G_ad rises across its table"
        )
    nodes[2][[0, -1]], nodes[3][[0, -1]] = (on, off), (x0, xf)
    for _ in range(_MAX_REFINE):
        i = np.flatnonzero(np.diff(nodes[2]) > h)
        if not i.size:
            break
        s = nodes[0 if sign > 0 else 1]
        nodes = bisect(nodes, i, solve(0.5 * (s[i] + s[i + 1])))

    for round_ in range(_MAX_REFINE + 1):
        # on a fold, the nodes inside (on, off) whose t exceeds every earlier t
        times = nodes[2]
        keep = np.r_[True, (times[1:-1] > on) & (times[1:-1] < off), True]
        keep[keep] = times[keep] > np.maximum.accumulate(np.r_[-np.inf, times[keep][:-1]])
        nodes = u, v, times, positions = tuple(a[keep] for a in nodes)
        slopes, curvatures, residual = _implicit_jet(am, side, u, v)
        rows = _quintic_rows(times, positions, slopes, curvatures)
        eff = EffectiveTrajectory(times, rows, x0, xf, residual)
        # the last node starts no segment, so its slope is no row's constant
        if np.any(np.abs(slopes[:-1]) > 1.0):
            break
        s = nodes[0 if sign > 0 else 1]
        mids = solve(0.5 * (s[:-1] + s[1:]))
        miss = np.abs(eff(mids[2]) - mids[3])
        bad = miss > refine_tol * pair.d0
        if not bad.any():
            break
        if round_ == _MAX_REFINE:
            raise ConvergenceError(
                f"effective {side} trajectory misses its midpoint solves by "
                f"{np.max(miss) / pair.d0:.3g} d0 after {_MAX_REFINE} refinement rounds "
                f"(refine_tol {refine_tol:g})"
            )
        nodes = bisect(nodes, np.flatnonzero(bad), (m[bad] for m in mids))

    return eff


# two effective trajectories make a pair like the reference one
EffectivePair = TrajectoryPair


@dataclass(frozen=True)
class LimitTrajectory:
    """Closed-form effective trajectory for instantaneous reference motion:
    constant x0 before t_on, the line intercept + slope*t on (t_on, t_off),
    constant xf after t_off.  Generically discontinuous at the joints; the
    jumps close exactly when Lf*R0 = L0*Rf.

    The printed middle window is (-x0, xf).  When that interval is reversed
    (an expanding left mirror) the consistent mixed branch of the defining
    equations has slope -v_lim instead, and the joints follow from
    continuity; `slope` records the actual segment slope, `v_lim` the
    geometry invariant.  For rigid motion (v_lim = 0) the reversed window
    becomes (-|x0|, |xf|), the mirror image of a shift toward +x.

    A call on a scalar or a 0-d array returns a Python float; an array
    call returns an array of the argument's shape.
    """

    x0: float
    xf: float
    intercept: float
    slope: float
    v_lim: float
    t_on: float
    t_off: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        mid = self.intercept + self.slope * t
        out = np.where(t <= self.t_on, self.x0, np.where(t >= self.t_off, self.xf, mid))
        return float(out) if out.ndim == 0 else out

    @property
    def breakpoints(self) -> tuple[float, float]:
        return (self.t_on, self.t_off)


def _limit_side(x0, xf, intercept, v):
    t_on, t_off = -x0, xf
    slope = v
    if x0 == xf:
        # no net motion of this mirror in the limit: constant curve
        return LimitTrajectory(x0, xf, x0, 0.0, v, -x0, -x0)
    if t_on >= t_off and v == 0.0:
        # printed branch vacuous in rigid motion, where the defining
        # equations are odd under L -> -L: mirror the +x shift's window
        t_on, t_off = -abs(x0), abs(xf)
    elif t_on >= t_off:
        # printed branch vacuous; mirrored branch with continuous joints
        slope = -v
        t_on = (x0 - intercept) / slope
        t_off = (xf - intercept) / slope
    return LimitTrajectory(x0, xf, intercept, slope, v, t_on, t_off)


def limit_trajectory(L0: float, Lf: float, R0: float, Rf: float):
    """Limit trajectories (left, right) for instantaneous reference motion.

    v_lim = -(d0-df)/(d0+df); the right middle piece is R_c + v_lim t on
    (-R0, Rf) with R_c = [2 d0 df + Lf d0 + L0 df]/(d0+df), the left analog
    has intercept [Lf d0 + L0 df]/(d0+df) on (-L0, Lf).
    """
    d0, df = R0 - L0, Rf - Lf
    if d0 <= 0 or df <= 0:
        raise GeometryError(f"degenerate cavity: d0={d0}, df={df}")
    # length change as a difference of displacements; endpoints that agree
    # to roundoff (rigid translations specified with decimal literals) must
    # give v = 0 exactly, not a few ulps of leftover cancellation noise
    num = (Rf - R0) - (Lf - L0)
    scale = max(d0, abs(L0), abs(Lf), abs(R0), abs(Rf))
    if abs(num) <= 32.0 * np.finfo(float).eps * scale:
        num = 0.0
    v = num / (d0 + df)
    Rc = (2.0 * d0 * df + Lf * d0 + L0 * df) / (d0 + df)
    Lc = (Lf * d0 + L0 * df) / (d0 + df)
    return (
        _limit_side(L0, Lf, Lc, v),
        _limit_side(R0, Rf, Rc, v),
    )


def continuity_check(L0: float, Lf: float, R0: float, Rf: float) -> bool:
    """True iff the limit trajectories are continuous: Lf*R0 = L0*Rf to
    1e-12 of the larger of both products and d0^2 (they carry length^2)."""
    a, b = Lf * R0, L0 * Rf
    d0 = R0 - L0
    return bool(abs(a - b) <= 1e-12 * max(d0 * d0, abs(a), abs(b)))


def critical_tau(
    family: str,
    L0: float,
    Lf: float | None,
    R0: float,
    eps: float,
    tau_lo: float,
    tau_hi: float,
) -> float:
    """Timescale tau_c below which the effective trajectories exceed light.

    c scales as 1/tau, so tau_c is sup_t |c| at tau = 1 (module docstring):
    tau_c = |K| max_s delta'(s)/D(s), D = d0 + (df - d0) delta, s in [0, 1],
    with the maximum at s = 0, 1 or a sign change in (0, 1) of the
    degree-12 numerator delta'' D - (df - d0) delta'^2 of its derivative,
    from `trajectory._real_roots`.  There delta' = 140 (s r)^3 and
    D = d0 delta(r) + df delta(s), r = 1 - s, are sums of positive terms
    (delta(x) = x^4 (35 y^3 + 21 x y^2 + 7 x^2 y + x^3), y = 1 - x), so the
    ratio carries no cancellation.  K = Lf R0 - L0 Rf of the pair's float
    edges is rounded once from its exact value, and is taken as 0, as is
    tau_c, when `continuity_check` holds.
    make_reference validates the geometry and supplies the default Lf.
    Raises BracketError when tau_c <= tau_lo ("all candidate tau physical")
    or tau_c >= tau_hi ("no candidate tau physical").
    """
    if not 0 < tau_lo < tau_hi:
        raise ValueError(f"need 0 < tau_lo < tau_hi, got ({tau_lo}, {tau_hi})")
    p = make_reference(family, L0=L0, Lf=Lf, R0=R0, eps=eps, tau=1.0)
    K = 0.0
    if not continuity_check(p.L0, p.Lf, p.R0, p.Rf):
        # rounded once: the edges' exact ratios combine in integers, and
        # int / int true division is correctly rounded
        edges = (float(x).as_integer_ratio() for x in (p.Lf, p.R0, p.L0, p.Rf))
        (a, b), (c, d), (e, f), (g, h) = edges
        K = (a * c * f * h - e * g * b * d) / (b * d * f * h)
    # ascending coefficients of delta, delta', delta'', D and the numerator
    delta = np.r_[0.0, 0.0, 0.0, 0.0, _STEP]
    d1 = delta[1:] * np.arange(1, 8)
    d2 = d1[1:] * np.arange(1, 7)
    D = (p.df - p.d0) * delta
    D[0] += p.d0
    num = -(p.df - p.d0) * np.convolve(d1, d1)
    head = np.convolve(d2, D)
    num[: head.size] += head
    s = np.concatenate(([0.0, 1.0], _real_roots(num[None, :], np.ones(1))[1]))
    r = 1.0 - s
    step_s = s**4 * (35.0 * r**3 + s * (21.0 * r**2 + s * (7.0 * r + s)))
    step_r = r**4 * (35.0 * s**3 + r * (21.0 * s**2 + r * (7.0 * s + r)))
    tau_c = abs(K) * float(np.max(140.0 * (s * r) ** 3 / (p.d0 * step_r + p.df * step_s)))
    if tau_c <= tau_lo:
        raise BracketError("all candidate tau physical: no speed-of-light crossing")
    if tau_c >= tau_hi:
        raise BracketError("no candidate tau physical: speed exceeds 1 everywhere")
    return tau_c
