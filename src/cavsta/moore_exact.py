"""Exact Moore functions by backward characteristic tracing.

G(z) is found by walking the null ray backward: invert t + R(t) = z to find
the last right-mirror reflection, step to the previous left-mirror
reflection, and recurse with G(z) = G(z') + 2 until the bounce time drops
before motion onset, where the static closed form (z - L0)/d0 applies.  F is
the mirror image.  Each inversion is a strictly monotone scalar equation
(guaranteed by |X'| < 1), solved with a bracketed vectorized Newton
iteration; derivatives to third order propagate analytically through every
inversion and reflection, so no numerical differentiation ever happens.

The recursion argument strictly decreases by about twice the cavity length
per round trip, which bounds the depth a priori.
"""

from __future__ import annotations

import numpy as np

from . import jets
from .errors import ConvergenceError, SuperluminalError

__all__ = ["ExactMoore"]


class ExactMoore:
    """Exact Moore pair (F, G) for a subluminal TrajectoryPair.

    Works with any pair-like object exposing left/right paths with
    ``__call__(t, order)``, ``jet(t, order=3)`` (the tuple of orders
    0..order), ``bounds()`` and ``max_speed()``,
    plus ``L0``, ``R0``, ``d0``, ``motion_start`` and ``gap_min()``; the
    effective-trajectory pairs built by the sta module satisfy this protocol.
    """

    def __init__(self, pair, tol: float = 1e-13):
        for side in ("left", "right"):
            speed = getattr(pair, side).max_speed()
            if speed >= 1.0:
                raise SuperluminalError(
                    f"{side} path reaches speed {speed:.6g} >= 1; "
                    "the maps t +- X(t) are not invertible"
                )
        self.pair = pair
        self.tol = float(tol)
        self._bounds = {
            "left": pair.left.bounds(),
            "right": pair.right.bounds(),
        }
        self._gap_min = pair.gap_min()
        self._start = pair.motion_start
        # a backward ray is already static when its argument is at or below
        # the map image of motion onset (t + X(t) is strictly increasing, so
        # the comparison is exact and skips the inversion entirely)
        self._static_arg = {
            "G": self._start + float(pair.right(self._start)),
            "F": self._start - float(pair.left(self._start)),
        }
        self._kink_cache = None

    # -- monotone map inversion ------------------------------------------------

    def _invert(self, path, bnd, target, sign):
        """Solve t + sign*X(t) = target; vectorized safeguarded Newton.

        The map is strictly increasing for subluminal X, so the bracket
        [target -+ max X, target -+ min X] straddles the unique root; the
        ends are re-validated and pushed outward first, in case the path's
        reported bounds are a hair tight (interpolated paths).  Newton steps
        that leave the bracket fall back to bisection, and each point stops
        iterating once its residual or step is at roundoff.
        """
        target = np.asarray(target, dtype=float)
        xmin, xmax = bnd
        if sign > 0:
            lo, hi = target - xmax, target - xmin
        else:
            lo, hi = target + xmin, target + xmax
        scale = np.maximum(1.0, np.abs(target))
        pad = 1e-6 * np.maximum(scale, hi - lo)
        for _ in range(8):
            f_lo = lo + sign * path(lo) - target
            f_hi = hi + sign * path(hi) - target
            short = (f_lo > 0.0) | (f_hi < 0.0)
            if not short.any():
                break
            lo = np.where(f_lo > 0.0, lo - pad, lo)
            hi = np.where(f_hi < 0.0, hi + pad, hi)
            pad = pad * 8.0
        t = 0.5 * (lo + hi)
        done = np.zeros(t.shape, dtype=bool)
        for _ in range(90):
            X, X1 = path.jet(t, 1)
            f = t + sign * X - target
            done = done | (np.abs(f) <= 4e-15 * scale)
            if done.all():
                break
            lo = np.where(~done & (f < 0.0), t, lo)
            hi = np.where(~done & (f > 0.0), t, hi)
            m = 1.0 + sign * X1
            with np.errstate(divide="ignore", invalid="ignore"):
                tn = t - f / m
            # strict comparison: the root can sit exactly on a bracket end
            # (static targets in a monotone protocol), and rejecting that
            # landing would degrade Newton to plain bisection
            fallback = ~np.isfinite(tn) | (tn < lo) | (tn > hi)
            tn = np.where(fallback, 0.5 * (lo + hi), tn)
            step_small = np.abs(tn - t) <= 1e-15 * scale
            t = np.where(done, t, tn)
            done = done | step_small
        f = t + sign * path(t) - target
        bad = ~np.isfinite(f) | (
            np.abs(f) > np.maximum(self.tol, 1e-12 * scale)
        )
        if np.any(bad):
            worst = np.abs(np.atleast_1d(f)[np.atleast_1d(bad)])
            raise ConvergenceError(
                f"map inversion stalled at residual {np.max(worst):.3e}"
            )
        return t

    def invert_advanced(self, mirror: str, z):
        """t such that t + X(t) = z for the chosen mirror path."""
        path = getattr(self.pair, mirror)
        t = self._invert(path, self._bounds[mirror], z, +1)
        return float(t) if np.ndim(z) == 0 else t

    def invert_retarded(self, mirror: str, w):
        """t such that t - X(t) = w for the chosen mirror path."""
        path = getattr(self.pair, mirror)
        t = self._invert(path, self._bounds[mirror], w, -1)
        return float(t) if np.ndim(w) == 0 else t

    # -- backward traces ---------------------------------------------------------

    def _max_bounces(self, arg_max: float) -> int:
        span = max(0.0, arg_max - self._start)
        return int(np.ceil(span / (2.0 * self._gap_min))) + 4

    def _trace(self, args, which: str):
        """Shared backward walk; returns (final static args, jets, bounce counts)."""
        left, right = self.pair.left, self.pair.right
        bl, br = self._bounds["left"], self._bounds["right"]
        arg = np.array(args, dtype=float, copy=True)
        d1 = np.ones_like(arg)
        d2 = np.zeros_like(arg)
        d3 = np.zeros_like(arg)
        n = np.zeros(arg.shape, dtype=int)
        active = np.ones(arg.shape, dtype=bool)
        if arg.size == 0:
            return arg, (d1, d2, d3), n
        for _ in range(self._max_bounces(float(np.max(arg))) + 1):
            if not active.any():
                break
            idx = np.flatnonzero(active)
            a = arg[idx]
            stat = a <= self._static_arg[which]
            if stat.any():
                active[idx[stat]] = False
                idx = idx[~stat]
                a = a[~stat]
                if idx.size == 0:
                    continue
            if which == "G":
                t1 = self._invert(right, br, a, +1)
            else:
                t1 = self._invert(left, bl, a, -1)
            go = t1 > self._start
            active[idx[~go]] = False
            cont = idx[go]
            if cont.size == 0:
                continue
            tc = t1[go]
            # each step is the jet of one map, valued at the argument it
            # reaches: invert the mirror map, then reflect off the mirror
            if which == "G":
                Xj = right.jet(tc)
                step_in = (tc, *jets.inverse_derivs(1.0 + Xj[1], Xj[2], Xj[3]))
                step_out = (tc - Xj[0], 1.0 - Xj[1], -Xj[2], -Xj[3])
            else:
                Xj = left.jet(tc)
                step_in = (tc, *jets.inverse_derivs(1.0 - Xj[1], -Xj[2], -Xj[3]))
                step_out = (tc + Xj[0], 1.0 + Xj[1], Xj[2], Xj[3])
            acc = jets.compose(step_in, (arg[cont], d1[cont], d2[cont], d3[cont]))
            acc = jets.compose(step_out, acc)
            if which == "G":
                t2 = self._invert(left, bl, acc[0], -1)
                Yj = left.jet(t2)
                step_in2 = (t2, *jets.inverse_derivs(1.0 - Yj[1], -Yj[2], -Yj[3]))
                step_out2 = (t2 + Yj[0], 1.0 + Yj[1], Yj[2], Yj[3])
            else:
                t2 = self._invert(right, br, acc[0], +1)
                Yj = right.jet(t2)
                step_in2 = (t2, *jets.inverse_derivs(1.0 + Yj[1], Yj[2], Yj[3]))
                step_out2 = (t2 - Yj[0], 1.0 - Yj[1], -Yj[2], -Yj[3])
            acc = jets.compose(step_in2, acc)
            new_arg, *acc = jets.compose(step_out2, acc)
            if np.any(new_arg >= arg[cont]):
                raise ConvergenceError(
                    "backward trace failed to decrease; geometry invalid"
                )
            arg[cont] = new_arg
            d1[cont], d2[cont], d3[cont] = acc
            n[cont] += 1
        if active.any():
            raise ConvergenceError("backward trace exceeded its bounce bound")
        return arg, (d1, d2, d3), n

    def _solve(self, args, which: str):
        a = np.atleast_1d(np.asarray(args, dtype=float))
        arg, (d1, d2, d3), n = self._trace(a, which)
        sgn = -1.0 if which == "G" else +1.0
        d0 = self.pair.d0
        out = ((arg + sgn * self.pair.L0) / d0 + 2.0 * n, d1 / d0, d2 / d0, d3 / d0)
        if np.ndim(args) == 0:
            return tuple(float(v[0]) for v in out)
        return out

    def solve_G(self, z):
        """(G, G', G'', G''') at z; scalar in, scalars out."""
        return self._solve(z, "G")

    def solve_F(self, w):
        """(F, F', F'', F''') at w."""
        return self._solve(w, "F")

    def G_jet(self, z):
        return self.solve_G(z)

    def F_jet(self, w):
        return self.solve_F(w)

    def trace_depth(self, z, which: str = "G"):
        """Bounce counts of the backward walk (diagnostic)."""
        a = np.atleast_1d(np.asarray(z, dtype=float))
        arg, _, n = self._trace(a, which)
        if np.ndim(z) == 0:
            return int(n[0]), float(arg[0])
        return n, arg

    # -- diagnostics ---------------------------------------------------------------

    def residuals(self, times):
        """Sup over `times` of |G(t+L)-F(t-L)| and |G(t+R)-F(t-R)-2|."""
        t = np.asarray(times, dtype=float)
        L = self.pair.left(t)
        R = self.pair.right(t)
        res_l = np.max(np.abs(self.solve_G(t + L)[0] - self.solve_F(t - L)[0]))
        res_r = np.max(np.abs(self.solve_G(t + R)[0] - self.solve_F(t - R)[0] - 2.0))
        return float(res_l), float(res_r)

    def kink_args(self, lo: float, hi: float):
        """Arguments in (lo, hi) where F/G lose higher-order smoothness.

        Trajectory breakpoints launch null rays; every forward reflection
        maps an F-argument kink to a G-argument kink and back:
        left-mirror events seed w = b - L(b), right-mirror events
        z = b + R(b), then w -> z off the right mirror and z -> w off the
        left mirror, each hop advancing by roughly twice the cavity length.
        """
        cached = self._kink_cache
        if cached is not None and cached[0] >= hi:
            z_all, w_all = cached[1], cached[2]
        else:
            z_list, w_list = [], []
            w_front = [float(b - self.pair.left(float(b))) for b in self.pair.left.breaks]
            z_front = [float(b + self.pair.right(float(b))) for b in self.pair.right.breaks]
            cap = self._max_bounces(hi) + 1
            for _ in range(cap):
                w_list.extend(w_front)
                z_list.extend(z_front)
                w_keep = np.array([w for w in w_front if w <= hi])
                z_keep = np.array([z for z in z_front if z <= hi])
                if w_keep.size == 0 and z_keep.size == 0:
                    break
                new_z, new_w = [], []
                if w_keep.size:
                    t = self._invert(self.pair.right, self._bounds["right"], w_keep, -1)
                    new_z = (t + self.pair.right(t)).tolist()
                if z_keep.size:
                    t = self._invert(self.pair.left, self._bounds["left"], z_keep, +1)
                    new_w = (t - self.pair.left(t)).tolist()
                z_front, w_front = new_z, new_w
            z_all = np.unique(np.asarray(z_list))
            w_all = np.unique(np.asarray(w_list))
            self._kink_cache = (hi, z_all, w_all)
        return (
            z_all[(z_all > lo) & (z_all < hi)],
            w_all[(w_all > lo) & (w_all < hi)],
        )
