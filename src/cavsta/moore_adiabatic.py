"""Adiabatic (first-order) Moore functions for a slowly driven cavity.

The leading adiabatic solution of Moore's equations is

    F_ad(t) = I(t) + (1/2) (R+L)/(R-L) + cF,
    G_ad(t) = I(t) - (1/2) (R+L)/(R-L) + cG,

with I(t) the advance integral of 1/(R-L).  The anchoring constants are
cF = -1/2, cG = +1/2, fixed by matching the static pre-motion branch
(t +- L0)/d0; with that choice G_ad - F_ad = 1 - (R+L)/(R-L) exactly, which
encodes both boundary conditions.  Both maps are I + s (R+L)/(R-L) - s, with
s = +1/2 for F and -1/2 for G, so one pass can evaluate both: `mirror_jets`
gives G_ad(t + x) and F_ad(t - x), the two sides of the mirror conditions.

Only the order-0 evaluation touches the quadrature table (and only inside
the motion window, where I is not elementary); derivatives 1..3 are closed
forms in the mirror-path jets, never numerical differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from . import jets
from .errors import ConvergenceError
from .moore_exact import mirror_residuals
from .trajectory import TrajectoryPair, _check_order, _horner_at, _locate, _newton

__all__ = ["AdiabaticMoore", "adiabatic_residual", "mirror_jets"]

_SIGN = {"F": +0.5, "G": -0.5}  # s of each map; its anchoring constant is -s

_ENDPOINT_TOL = 1e-10  # settling test of the advance-integral table
_MAX_DOUBLINGS = 6


@dataclass(frozen=True)
class AdiabaticMoore:
    """Evaluable adiabatic Moore pair for one TrajectoryPair.

    The advance integral I is tabulated on the motion window by cumulative
    composite Simpson and interpolated by cubic Hermite polynomials, one per
    panel of `_nodes`, whose node slopes are the exact integrand 1/(R-L);
    `_cols` holds their ascending coefficients as four contiguous columns
    (`_cols[j][i]`: coefficient j of panel i).  Outside the window I is
    linear and evaluated in closed form.  `_node_values` caches, per map
    `invert` was asked for, its rising node values (None if they fall).
    """

    pair: TrajectoryPair
    panels: int
    _nodes: np.ndarray = field(repr=False, compare=False)
    _cols: np.ndarray = field(repr=False, compare=False)
    I_end: float
    _node_values: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def build(cls, pair: TrajectoryPair, panels: int = 4096) -> "AdiabaticMoore":
        """Tabulate I(t) = t_lo/d0 + int_{t_lo}^t ds/(R-L) over the motion window.

        `panels` is the starting panel count.  It doubles until the
        window-end value moves by at most `_ENDPOINT_TOL`; the integrand is
        smooth, so one doubling normally settles it, and the default 4096
        builds an 8192-panel table.  Each round tabulates only the doubled
        grid, and reads the end value of the undoubled rule off it.
        """
        t_lo, t_hi = pair.motion_start, pair.motion_end
        I0 = t_lo / pair.d0
        n = int(panels)
        for _ in range(_MAX_DOUBLINGS):
            nodes = np.linspace(t_lo, t_hi, 2 * n + 1)
            g_nodes = 1.0 / pair.gap(nodes)
            g_mid = 1.0 / pair.gap(0.5 * (nodes[:-1] + nodes[1:]))
            I = _cumulative_simpson(I0, (t_hi - t_lo) / (2 * n) / 6.0, g_nodes, g_mid)
            # the n-panel rule on the same grid: its even nodes are the
            # panel ends, its odd nodes the midpoints
            coarse = _cumulative_simpson(I0, (t_hi - t_lo) / n / 6.0, g_nodes[::2], g_nodes[1::2])
            n *= 2
            if abs(I[-1] - coarse[-1]) <= _ENDPOINT_TOL:
                break
        else:
            raise ConvergenceError(
                f"advance integral did not settle to {_ENDPOINT_TOL} "
                f"after {_MAX_DOUBLINGS} doublings"
            )
        dx = np.diff(nodes)
        slope = np.diff(I) / dx
        bend = (g_nodes[:-1] + g_nodes[1:] - 2.0 * slope) / dx
        c2 = (slope - g_nodes[:-1]) / dx - bend
        cols = np.stack([I[:-1], g_nodes[:-1], c2, bend / dx])
        return cls(pair=pair, panels=n, _nodes=nodes, _cols=cols, I_end=float(I[-1]))

    # -- pieces ---------------------------------------------------------------

    def advance(self, z):
        """I(z): Hermite cubics inside the motion window, exact linear outside."""
        z = np.asarray(z, dtype=float)
        t_lo, t_hi = self.pair.motion_start, self.pair.motion_end
        out = _horner_at(self._cols, *_locate(self._nodes, z))
        out = np.where(z < t_lo, z / self.pair.d0, out)
        out = np.where(z > t_hi, self.I_end + (z - t_hi) / self.pair.df, out)
        return float(out) if out.ndim == 0 else out

    def _lifted_jet(self, z, s, order: int):
        """Jets to `order` of I + s (R+L)/(R-L) at z: the map of sign s
        without its anchoring constant -s, its derivatives exact from the
        path polynomials."""
        L = self.pair.left.jet(z, order)
        R = self.pair.right.jet(z, order)
        u = tuple(r + l for r, l in zip(R, L))
        v = tuple(r - l for r, l in zip(R, L))
        q, r = jets.divide(u, v), jets.reciprocal(v[:order]) if order else ()
        lifted = (self.advance(z) + s * q[0],)
        return lifted + tuple(r[k - 1] + s * q[k] for k in range(1, order + 1))

    def jet(self, which: str, z, order: int = 3):
        """(value, d1, ..., d_order) of F_ad or G_ad at z; vectorized.

        `which` = "GF" evaluates G_ad on the first half of the 1-D array z
        and F_ad on the second half, in one pass over all of z."""
        s = _SIGN.get(which)
        if which == "GF" and np.size(z) % 2 == 0:
            s = np.repeat([_SIGN["G"], _SIGN["F"]], np.size(z) // 2)
        if s is None:
            raise ValueError(f"which must be F, G or GF (even size), got {which!r}")
        _check_order(order)
        scalar = np.ndim(z) == 0
        lifted = self._lifted_jet(np.atleast_1d(np.asarray(z, dtype=float)), s, order)
        out = (lifted[0] - s,) + lifted[1:]
        if scalar:
            return tuple(float(a[0]) for a in out)
        return out

    def invert(self, which: str, z, target: float):
        """Arguments of F_ad (`which` "F") or G_ad ("G") solving the mirror
        condition G_ad(u) - F_ad(v) = target, one per value of the 1-D array
        z, the other map's argument; None if the map does not rise across
        its table.  Both maps are I + s q less their anchoring constant s
        (s = 1/2 for F, -1/2 for G), so the condition is solved as
        I + s q = (I - s q)(z) + 2s (1 - target): the same floating-point
        problem for a pair and its mirror image, which turns q into -q.
        Outside the motion window I + s q is linear and inverted in closed
        form; inside, a search over the node values finds the one panel
        that brackets the root, and `trajectory._newton` polishes it from
        the secant point, stopping at a step of 1e-15 max(d0, |root|) or a
        gap of 2e-14 max(1, |I + s q|), the rounding of the map (I + s q is
        a number, the root a time).
        """
        s = _SIGN[which]
        if which not in self._node_values:
            vals = self._lifted_jet(self._nodes, s, 0)[0]
            self._node_values[which] = vals if np.all(np.diff(vals) > 0.0) else None
        vals = self._node_values[which]
        if vals is None:
            return None
        nodes, z = self._nodes, np.asarray(z, dtype=float)
        y = self._lifted_jet(z, -s, 0)[0] + 2.0 * s * (1.0 - target)
        i = np.searchsorted(vals, y, side="right") - 1
        root = np.where(
            i < 0,
            nodes[0] + (y - vals[0]) * self.pair.d0,
            nodes[-1] + (y - vals[-1]) * self.pair.df,
        )
        j = np.flatnonzero((i >= 0) & (i < nodes.size - 1))
        i, yj = i[j], y[j]
        a, b = nodes[i], nodes[i + 1]
        x = a + (b - a) * ((yj - vals[i]) / (vals[i + 1] - vals[i]))

        def h(k, xk):
            value, slope = self._lifted_jet(xk, s, 1)
            gap = value - yj[k]
            gap[np.abs(gap) <= 2e-14 * np.maximum(1.0, np.abs(value))] = 0.0
            return gap, slope

        with np.errstate(divide="ignore", invalid="ignore"):
            root[j] = _newton(h, x, a, b, 1e-15 * np.maximum(self.pair.d0, np.abs(x)))
        return root

    def F(self, z, order: int = 0):
        return self.jet("F", z, order)[order]

    def G(self, z, order: int = 0):
        return self.jet("G", z, order)[order]

    def F_jet(self, z, order: int = 3):
        return self.jet("F", z, order)

    def G_jet(self, z, order: int = 3):
        return self.jet("G", z, order)


def mirror_jets(am: AdiabaticMoore, t, x, order: int):
    """Jets to `order` of G_ad at t + x and of F_ad at t - x, the two Moore
    functions of the mirror conditions, from one `am.jet("GF", ...)` pass."""
    both = am.jet("GF", np.concatenate([t + x, t - x]), order)
    n = both[0].size // 2
    return tuple(a[:n] for a in both), tuple(a[n:] for a in both)


def adiabatic_residual(am: AdiabaticMoore, times):
    """Sup over `times` of both Moore-equation residuals (res_L, res_R)."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    x = np.concatenate([am.pair.left(t), am.pair.right(t)])
    (g,), (f,) = mirror_jets(am, np.concatenate([t, t]), x, 0)
    n = t.size
    return mirror_residuals(g[:n], g[n:], f[:n], f[n:])


def _cumulative_simpson(start, width, g_nodes, g_mid):
    """start plus the composite Simpson integral of g up to every node (g at
    the nodes and at the panel midpoints).  `width` is the panel span / 6:
    one number for a uniform grid, or one per panel."""
    inc = width * (g_nodes[:-1] + 4.0 * g_mid + g_nodes[1:])
    I = np.empty(inc.size + 1)
    I[0] = start
    np.cumsum(inc, out=I[1:])
    I[1:] += I[0]
    return I
