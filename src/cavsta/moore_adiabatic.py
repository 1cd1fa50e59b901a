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
from .trajectory import TrajectoryPair, _check_order, _horner_at, _locate

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
    linear and evaluated in closed form.
    """

    pair: TrajectoryPair
    panels: int
    _nodes: np.ndarray = field(repr=False, compare=False)
    _cols: np.ndarray = field(repr=False, compare=False)
    I_end: float

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

    def _q_jet(self, z, order: int):
        """Jets to `order` of (R+L)/(R-L) and, one order lower, of 1/(R-L)
        at z (exact from the path polynomials)."""
        L = self.pair.left.jet(z, order)
        R = self.pair.right.jet(z, order)
        u = tuple(r + l for r, l in zip(R, L))
        v = tuple(r - l for r, l in zip(R, L))
        return jets.divide(u, v), jets.reciprocal(v[:order]) if order else ()

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
        zz = np.atleast_1d(np.asarray(z, dtype=float))
        q, r = self._q_jet(zz, order)
        out = (self.advance(zz) + s * q[0] - s,) + tuple(
            r[k - 1] + s * q[k] for k in range(1, order + 1)
        )
        if scalar:
            return tuple(float(a[0]) for a in out)
        return out

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
