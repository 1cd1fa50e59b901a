"""Shortcut-to-adiabaticity effective trajectories.

A mirror driven along the effective trajectory makes the *exact* Moore
functions of the driven cavity coincide with the adiabatic Moore functions
of the reference protocol, so the field ends in the adiabatic target state
in finite time.  The defining conditions are

    G_ad(t + L_eff(t)) - F_ad(t - L_eff(t)) = 0,
    G_ad(t + R_eff(t)) - F_ad(t - R_eff(t)) = 2,

solved per time sample by bracketed Newton steps, in the loop
`trajectory._newton` that also polishes every polynomial root.
For instantaneous reference motion the solution has the closed "limit"
form: constants joined by a uniform-velocity segment of slope

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

from .errors import BracketError, ConvergenceError, GeometryError
from .moore_adiabatic import AdiabaticMoore, mirror_jets
from .trajectory import _STEP, PiecewisePath, TrajectoryPair, _newton, _real_roots, make_reference

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
_SLOPE_CAP = 1e3  # keeps the interpolant finite across fold points
_MAX_REFINE = 5  # bisection rounds of a subluminal build_effective
_GROWTH_ROUNDS = 24  # bracket doublings of `_solve`


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


def _solve(am, side, t, guesses):
    """Roots of h(x) = G_ad(t+x) - F_ad(t-x) - target, one per sample t.

    Each sample's bracket starts at its guess +- 0.05 d0 (d0 of `am.pair`)
    and grows by half its width on each side per round, for at most
    `_GROWTH_ROUNDS` rounds, until it straddles an increasing crossing
    h(lo) < 0 < h(hi) (or hits a root exactly).  For an adiabatic Moore
    pair that always happens: once t + x and t - x both lie outside the
    motion window, the maps are linear there, and h is linear in x with
    slope 1/d0 + 1/df > 0, so it rises without bound on both sides and a
    bracket grown about any guess soon straddles a root.  The half-width
    doubles each round, to 2^24 times its start: a reach of
    0.05 d0 * 2^24 = 8.4e5 d0 from the guess, far beyond any guess a caller
    makes (reference positions, interpolated effective positions).  Raises
    BracketError for a sample that never straddles one.  Then
    `trajectory._newton` polishes every sample from its bracket midpoint
    (from a bracket end where h is exactly 0, and stops there), with slope
    G' + F'; a sample stops once its step is at most 1e-15 max(1, |x|), or
    once |h| is within 2e-14 max(1, |G|, |F|), the rounding of the maps,
    which counts as h = 0.
    """
    target = _TARGET[side]
    t = np.asarray(t, dtype=float)
    guesses = np.asarray(guesses, dtype=float)
    w = 0.05 * am.pair.d0
    lo, hi = guesses - w, guesses + w

    flo, fhi = np.empty(t.shape), np.empty(t.shape)
    i = np.arange(t.size)
    for round_ in range(_GROWTH_ROUNDS + 1):
        # both bracket ends of the samples still searching, in one pass
        tt, xx = np.concatenate([t[i], t[i]]), np.concatenate([lo[i], hi[i]])
        (g,), (f,) = mirror_jets(am, tt, xx, 0)
        flo[i], fhi[i] = np.split(g - f - target, 2)
        ok = ((flo < 0.0) & (fhi > 0.0)) | (flo == 0.0) | (fhi == 0.0)
        i = np.flatnonzero(~ok)
        if i.size == 0:
            break
        if round_ == _GROWTH_ROUNDS:
            raise BracketError(
                f"no physical effective position for side={side} at t={t[i[0]]}"
            )
        half = 0.5 * (hi[i] - lo[i])
        lo[i] -= half
        hi[i] += half

    x = np.where(flo == 0.0, lo, np.where(fhi == 0.0, hi, 0.5 * (lo + hi)))

    def h(j, xj):
        # a value within rounding of the maps' size counts as the root
        (g, g1), (f, f1) = mirror_jets(am, t[j], xj, 1)
        v = g - f - target
        v[np.abs(v) <= 2e-14 * np.maximum(1.0, np.maximum(np.abs(g), np.abs(f)))] = 0.0
        return v, g1 + f1

    with np.errstate(divide="ignore", invalid="ignore"):
        return _newton(h, x, lo, hi, 1e-15 * np.maximum(1.0, np.abs(x)))


def _implicit_jet(am, side, times, positions):
    """Exact dx/dt and d2x/dt2 at solved samples, from differentiating the
    defining equation: with F' at t-x and G' at t+x,

        dx/dt   = (F' - G') / (F' + G'),
        d2x/dt2 = [F''(1-dx/dt)^2 - G''(1+dx/dt)^2] / (F' + G').

    Both are capped where F' + G' changes sign (fold of the branch).  The
    third value is the sup over the samples of |G - F - target|, read off
    the same pass."""
    (G0, G1, G2), (F0, F1, F2) = mirror_jets(am, times, positions, 2)
    denom = G1 + F1
    safe = np.where(np.abs(denom) < 1e-12, 1e-12, denom)
    slopes = np.clip((F1 - G1) / safe, -_SLOPE_CAP, _SLOPE_CAP)
    curv = (F2 * (1.0 - slopes) ** 2 - G2 * (1.0 + slopes) ** 2) / safe
    curv = np.clip(curv, -_SLOPE_CAP, _SLOPE_CAP)
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


def _motion_nodes(t_lo, t_hi, n, on, off):
    """Nodes of the uniform n-step grid on [t_lo, t_hi] that span [on, off]:
    from the last node at or below `on` to the first at or above `off`.

    Where [t_lo, t_hi] does not cover [on, off], the grid runs on past its
    ends by whole steps, t_lo + k*h.  Nodes inside the window are bitwise
    those of np.linspace(t_lo, t_hi, n + 1).  Since on < off, at least one
    segment is kept.
    """
    h = (t_hi - t_lo) / n
    k = np.arange(np.floor((on - t_lo) / h) - 1.0, np.ceil((off - t_lo) / h) + 2.0)
    grid = k * h + t_lo
    grid[k == n] = t_hi
    first = np.searchsorted(grid, on, side="right") - 1
    last = np.searchsorted(grid, off, side="left")
    return grid[first : last + 1]


class EffectiveTrajectory(PiecewisePath):
    """Solved effective trajectory for one mirror, with its interpolant.

    `times` are the solved samples, the knots of a C^2 quintic Hermite
    interpolant that matches the solved positions and the exact
    implicit-function slopes and curvatures there.  They span the mirror's
    effective motion window (see `build_effective`); outside it the
    trajectory equals its exact edge values, the reference mirror's initial
    and final positions.  `breaks` reports only the ends of that window:
    the interior nodes are not C^3 breaks that the exact Moore functions
    need to track.  `residual_sup` is the sup of |G_ad - F_ad - target|
    over the solved samples.  `max_speed_sampled` is the exact sup of
    |dx/dt| over the interpolant; `realizable` is False when it reaches the
    speed of light (protocol faster than the critical timescale), and such
    curves remain usable for plotting and limit-curve comparison.  A
    superluminal curve is the interpolant of the round where refinement
    stopped, so its `max_speed_sampled` shows only that the branch folds
    (speed above 1): its size depends on the grid that resolved the fold.
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
    """Solve the side's defining equation where the effective mirror moves.

    The reference mirror's edge values (x0, xf) solve the equation exactly
    up to on = motion_start - |x0| and from off = motion_end + |xf| on, with
    the reference pair's motion_start and motion_end: there both Moore
    arguments t +- x lie outside the reference motion, where the adiabatic
    Moore functions are their static closed forms.  So only [on, off] is
    solved, on the nodes of the uniform grid on [t_lo, t_hi] (default step
    pair.tau/512, the motion window's length over 512) from the last at or
    below `on` to the first at or above `off`; where the window does not
    cover [on, off], that grid runs on past its ends by whole steps.  The curve holds x0 before its first knot and xf
    after its last.

    The solve is seeded with the reference mirror positions (the effective
    trajectory approaches the reference as the protocol slows down).  Each
    round builds its EffectiveTrajectory on the solved nodes, predicts the
    interval midpoints with it and solves them from those predictions; it
    bisects the intervals whose prediction misses the solve by more than
    `refine_tol`, and the first round with no miss returns its curve.
    Refinement stops at the first round where a node slope exceeds 1 in
    magnitude, and that round's curve is returned: a node slope is the
    constant term of its segment's velocity row, so it is a candidate of
    `max_speed_sampled`, and further rounds would keep every node, so the
    curve is superluminal whatever they add.  Near such a fold the solved
    branch jumps, and no refinement resolves it.  A subluminal curve that
    still misses a midpoint solve after `_MAX_REFINE` rounds raises
    ConvergenceError.
    """
    if side not in _TARGET:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    pair = am.pair
    if step is None:
        step = pair.tau / 512.0
    n = max(2, int(np.ceil((t_hi - t_lo) / step)))
    ref_path = pair.right if side == "right" else pair.left
    x0, xf = ref_path.edges
    on, off = pair.motion_start - abs(x0), pair.motion_end + abs(xf)
    times = _motion_nodes(t_lo, t_hi, n, on, off)
    positions = _solve(am, side, times, ref_path(times))

    for round_ in range(_MAX_REFINE + 1):
        slopes, curvatures, residual = _implicit_jet(am, side, times, positions)
        rows = _quintic_rows(times, positions, slopes, curvatures)
        eff = EffectiveTrajectory(times, rows, x0, xf, residual)
        # the last node starts no segment, so its slope is no row's constant
        if np.any(np.abs(slopes[:-1]) > 1.0):
            break
        mids = 0.5 * (times[:-1] + times[1:])
        predicted = eff(mids)
        solved = _solve(am, side, mids, predicted)
        miss = np.abs(predicted - solved)
        bad = miss > refine_tol
        if not bad.any():
            break
        if round_ == _MAX_REFINE:
            raise ConvergenceError(
                f"effective {side} trajectory misses its midpoint solves by "
                f"{np.max(miss):.3g} after {_MAX_REFINE} refinement rounds "
                f"(refine_tol {refine_tol:g})"
            )
        # each refined midpoint goes in after its interval's first node
        cut = np.flatnonzero(bad) + 1
        times = np.insert(times, cut, mids[bad])
        positions = np.insert(positions, cut, solved[bad])

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
    scale = max(1.0, abs(L0), abs(Lf), abs(R0), abs(Rf))
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
    """True iff the limit trajectories are continuous: Lf*R0 = L0*Rf
    (relative tolerance 1e-12)."""
    a, b = Lf * R0, L0 * Rf
    return bool(abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b)))


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
