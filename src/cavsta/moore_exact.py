"""Exact Moore functions by backward characteristic tracing.

G(z) is found by walking the null ray backward: invert t + R(t) = z to find
the last right-mirror reflection, step to the previous left-mirror
reflection, and recurse with G(z) = G(z') + 2 until the bounce time drops
before motion onset, where the static closed form (z - L0)/d0 applies.  F is
the mirror image.  Each inversion is a strictly monotone scalar equation
(guaranteed by |X'| < 1).  The images b +- X(b) of the path's segment
boundaries are tabulated once per map, so one search finds the segment
holding a target's root; Newton steps on its coefficient columns, seeded
by the secant across it, polish the root, and targets beyond the table
invert in closed form.  The path's jet at the root comes back with it, and
derivatives to third order propagate analytically through every inversion
and reflection, so no numerical differentiation ever happens.

The recursion argument strictly decreases by about twice the cavity length
per round trip, which bounds the depth a priori.
"""

from __future__ import annotations

import numpy as np

from . import jets
from .errors import ConvergenceError, SuperluminalError
from .trajectory import _horner_at, _sorted_unique

__all__ = ["ExactMoore", "mirror_residuals"]


def mirror_residuals(g_left, g_right, f_left, f_right):
    """Sups of |G(t+L) - F(t-L)| and |G(t+R) - F(t-R) - 2| from the maps'
    values at the mirrors, G at t+L and t+R, F at t-L and t-R."""
    res_l = np.max(np.abs(g_left - f_left))
    res_r = np.max(np.abs(g_right - f_right - 2.0))
    return float(res_l), float(res_r)


def _shaped(args, values):
    """Flat trace results in the shape of `args`; Python scalars for a scalar."""
    if np.ndim(args) == 0:
        return tuple(v.item() for v in values)
    return tuple(v.reshape(np.shape(args)) for v in values)


def _map_images(path):
    """Images t + sign*X(t) of the path's knots, keyed by sign, which
    bracket the roots of the map t + sign*X(t) segment by segment."""
    knots = path.table()[0]
    X = path(knots)
    images = {sign: knots + sign * X for sign in (1.0, -1.0)}
    if not all(np.all(np.diff(img) > 0.0) for img in images.values()):
        raise SuperluminalError(
            "the images t +- X(t) of the path's segment boundaries do not "
            "strictly increase; the map is not invertible"
        )
    return images


class ExactMoore:
    """Exact Moore pair (F, G) for a subluminal TrajectoryPair.

    The pair may hold reference paths or effective trajectories; both are
    `PiecewisePath`s.  What is read of the pair is ``left``, ``right``,
    ``L0``, ``d0``, ``motion_start`` and ``gap_min()``; of each path,
    ``table()`` (knots and constant values before and after), its order-0
    and order-1 coefficient columns ``_cols[0]`` and ``_cols[1]`` (which
    the map inversions step with), ``max_speed()``, ``breaks`` (the
    C^3 breaks that launch kinks, see `kink_args`), position calls
    ``path(t)`` and jets ``jet(t, order)`` (the tuple of orders 0..order).
    """

    def __init__(self, pair):
        for side in ("left", "right"):
            speed = getattr(pair, side).max_speed()
            if speed >= 1.0:
                raise SuperluminalError(
                    f"{side} path reaches speed {speed:.6g} >= 1; "
                    "the maps t +- X(t) are not invertible"
                )
        self.pair = pair
        self._images = {side: _map_images(getattr(pair, side)) for side in ("left", "right")}
        self._gap_min = pair.gap_min()
        self._start = pair.motion_start

    # -- monotone map inversion ------------------------------------------------

    def _invert(self, mirror: str, sign: float, target, order: int = 3):
        """Solve t + sign*X(t) = target for the mirror's path X.

        Returns t and the path's jet of orders 0..order at t.  Targets at or
        beyond the image of the first or last segment boundary map to the
        constant path in closed form.  Every other target lies between the
        images of one segment's ends (the map is strictly increasing for
        subluminal X), which brackets its root in the segment's local
        variable; Newton steps from the secant seed run on that segment's
        coefficient columns, and a step leaving the bracket falls back to
        bisection.  Each point stops once its residual or step is at roundoff.
        """
        path = getattr(self.pair, mirror)
        breaks, _, before, after = path.table()
        pos, slope = path._cols[:2]
        img = self._images[mirror][sign]
        target = np.atleast_1d(np.asarray(target, dtype=float))
        scale = np.maximum(1.0, np.abs(target))
        t = target - sign * np.where(target <= img[0], before, after)
        inner = np.flatnonzero((target > img[0]) & (target < img[-1]))
        if inner.size:
            z = target[inner]
            k = np.searchsorted(img, z, side="right") - 1
            b = breaks[k]
            lo = np.zeros(z.shape)
            hi = breaks[k + 1] - b
            u = hi * (z - img[k]) / (img[k + 1] - img[k])
            done = np.zeros(z.shape, dtype=bool)
            tol_f, tol_u = 4e-15 * scale[inner], 1e-15 * scale[inner]
            # not trajectory._newton: see its docstring
            for _ in range(90):
                f = (b + u) + sign * _horner_at(pos, k, u) - z
                done = done | (np.abs(f) <= tol_f)
                if done.all():
                    break
                lo = np.where(f < 0.0, u, lo)
                hi = np.where(f > 0.0, u, hi)
                with np.errstate(divide="ignore", invalid="ignore"):
                    un = u - f / (1.0 + sign * _horner_at(slope, k, u))
                # strict comparison: the root can sit exactly on a bracket end
                # (a target on a boundary image), and rejecting that landing
                # would degrade Newton to plain bisection
                fallback = ~np.isfinite(un) | (un < lo) | (un > hi)
                un = np.where(fallback, 0.5 * (lo + hi), un)
                step_small = np.abs(un - u) <= tol_u
                u = np.where(done, u, un)
                done = done | step_small
            t[inner] = b + u
        jet = path.jet(t, order)
        f = t + sign * jet[0] - target
        bad = ~np.isfinite(f) | (np.abs(f) > 1e-12 * scale)
        if np.any(bad):
            raise ConvergenceError(
                f"map inversion stalled at residual {np.max(np.abs(f[bad])):.3e}"
            )
        return t, jet

    # -- backward traces ---------------------------------------------------------

    def _max_bounces(self, arg_max: float) -> int:
        span = max(0.0, arg_max - self._start)
        return int(np.ceil(span / (2.0 * self._gap_min))) + 4

    @staticmethod
    def _reflect(sign: float, t, Xj, acc):
        """Compose onto the jet `acc` one reflection: invert the map
        t + sign*X(t) at the jet's value (root t, path jet Xj there), then
        step to the other null coordinate t - sign*X(t)."""
        step_in = (t, *jets.inverse_derivs(1.0 + sign * Xj[1], sign * Xj[2], sign * Xj[3]))
        step_out = (t - sign * Xj[0], 1.0 - sign * Xj[1], -sign * Xj[2], -sign * Xj[3])
        return jets.compose(step_out, jets.compose(step_in, acc))

    def _trace(self, args, which: str):
        """Shared backward walk over raveled `args`; returns (jet, bounce counts).

        The jet is one (4, n) array: each ray's final static argument and
        its derivatives 1..3 in the starting argument.  Each bounce gathers
        the active columns once and scatters them back once.  G first
        inverts the right-mirror map t + R(t), then the left-mirror map
        t - L(t); F takes the two mirrors in the opposite order.  The one
        onset test is `go`: a ray whose first root lies at or before motion
        onset is static and stops there.  An argument at or below the first
        boundary image inverts in closed form, so a ray that is static from
        the start costs no Newton step.
        """
        first, second = (("right", 1.0), ("left", -1.0))
        if which == "F":
            first, second = second, first
        z = np.ravel(np.asarray(args, dtype=float))
        jet = np.zeros((4, *z.shape))
        jet[0], jet[1] = z, 1.0
        n = np.zeros(z.shape, dtype=int)
        active = np.ones(z.shape, dtype=bool)
        if z.size == 0:
            return jet, n
        for _ in range(self._max_bounces(float(np.max(z))) + 1):
            if not active.any():
                break
            idx = np.flatnonzero(active)
            t1, Xj = self._invert(*first, jet[0, idx])
            go = t1 > self._start
            active[idx[~go]] = False
            cont = idx[go]
            if cont.size == 0:
                continue
            # each step is the jet of one map, valued at the argument it
            # reaches: invert the mirror map, then reflect off the mirror
            acc = jet[:, cont]
            new = self._reflect(first[1], t1[go], [x[go] for x in Xj], acc)
            t2, Yj = self._invert(*second, new[0])
            new = self._reflect(second[1], t2, Yj, new)
            if np.any(new[0] >= acc[0]):
                raise ConvergenceError(
                    "backward trace failed to decrease; geometry invalid"
                )
            jet[:, cont] = new
            n[cont] += 1
        if active.any():
            raise ConvergenceError("backward trace exceeded its bounce bound")
        return jet, n

    def _solve(self, args, which: str):
        (arg, d1, d2, d3), n = self._trace(args, which)
        sgn = -1.0 if which == "G" else +1.0
        d0 = self.pair.d0
        out = ((arg + sgn * self.pair.L0) / d0 + 2.0 * n, d1 / d0, d2 / d0, d3 / d0)
        return _shaped(args, out)

    def solve_G(self, z):
        """(G, G', G'', G''') at z, each of z's shape; scalar in, floats out."""
        return self._solve(z, "G")

    def solve_F(self, w):
        """(F, F', F'', F''') at w."""
        return self._solve(w, "F")

    # the jet names the energy density reads, shared with AdiabaticMoore
    G_jet = solve_G
    F_jet = solve_F

    def trace_depth(self, z, which: str = "G"):
        """Bounce counts and final static arguments of the walk (diagnostic)."""
        jet, n = self._trace(z, which)
        return _shaped(z, (n, jet[0]))

    # -- diagnostics ---------------------------------------------------------------

    def residuals(self, times):
        """Sup over `times` of |G(t+L)-F(t-L)| and |G(t+R)-F(t-R)-2|.

        The standalone diagnostic: `runner.run` reads the same figures off
        the energy record's traces, whose nodes hold every argument here."""
        t = np.atleast_1d(np.asarray(times, dtype=float))
        L = self.pair.left(t)
        R = self.pair.right(t)
        # one trace per map over both mirrors' arguments; each element's
        # trace is independent of the rest of the batch
        g_l, g_r = np.split(self.solve_G(np.concatenate([t + L, t + R]))[0], 2)
        f_l, f_r = np.split(self.solve_F(np.concatenate([t - L, t - R]))[0], 2)
        return mirror_residuals(g_l, g_r, f_l, f_r)

    def kink_args(self, lo: float, hi: float):
        """Arguments in (lo, hi) where F/G lose higher-order smoothness.

        Only the paths' C^3 breaks `path.breaks` launch kinks (an effective
        trajectory reports the ends of its motion window there; its interior
        nodes are C^2 joints of the interpolant, not tracked).  Every forward
        reflection maps an F-argument kink to a G-argument kink and back:
        left-mirror events seed w = b - L(b), right-mirror events
        z = b + R(b), then w -> z off the right mirror and z -> w off the
        left mirror.  A hop changes the argument by 2R (w -> z) or -2L
        (z -> w), and two hops advance it by at least the shortest cavity
        length, half the per-bounce advance `_max_bounces` assumes.  So a
        front and its child both above hi have no descendant at or below it.
        Each loop round hops the z front off the left mirror, then its w
        children (with the left-break seeds, in the first round) off the
        right mirror in one call: two hops per round, at most two rounds per
        bounce of that bound.
        """
        left, right = self.pair.left, self.pair.right
        w_front = left.breaks - left(left.breaks)
        z_front = right.breaks + right(right.breaks)
        z_list, w_list = [], []
        for _ in range(2 * self._max_bounces(hi)):
            z_list.append(z_front)
            t, (X,) = self._invert("left", 1.0, z_front, 0)
            w_next = t - X
            w_front = np.concatenate([w_front, w_next[(w_next <= hi) | (z_front <= hi)]])
            w_list.append(w_front)
            if w_front.size == 0:
                break
            t, (X,) = self._invert("right", -1.0, w_front, 0)
            z_next = t + X
            z_front = z_next[(z_next <= hi) | (w_front <= hi)]
            w_front = np.empty(0)
        else:
            raise ConvergenceError("kink fronts exceeded their bounce bound")
        z_all = _sorted_unique(np.concatenate(z_list))
        w_all = _sorted_unique(np.concatenate(w_list))
        return z_all[(z_all > lo) & (z_all < hi)], w_all[(w_all > lo) & (w_all < hi)]
