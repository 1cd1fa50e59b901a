"""Finite-difference stencils used to cross-check analytic derivatives,
derivatives of coefficient rows, table re-expansion for tests of
multi-segment paths, path ranges, an effective-mirror root solved
independently of the pipeline's guesses, and a one-hop-per-round kink walk
to check the exact solver's against."""

import numpy as np
from numpy.polynomial import Polynomial

from cavsta import sta
from cavsta.errors import ConvergenceError
from cavsta.trajectory import MirrorPath, piecewise_extremes


def fd_jets(f, z, h):
    """Centered estimates of f', f'', f''' at z (fourth-order first two)."""
    f2, f1, f0, fm1, fm2 = f(z + 2 * h), f(z + h), f(z), f(z - h), f(z - 2 * h)
    d1 = (8.0 * (f1 - fm1) - (f2 - fm2)) / (12.0 * h)
    d2 = (-(f2 + fm2) + 16.0 * (f1 + fm1) - 30.0 * f0) / (12.0 * h * h)
    d3 = (f2 - 2.0 * f1 + 2.0 * fm1 - fm2) / (2.0 * h ** 3)
    return d1, d2, d3


def poly_derivative(coeffs: np.ndarray, order: int) -> np.ndarray:
    """Ascending-coefficient rows differentiated `order` times (same width)."""
    out = coeffs.copy()
    for _ in range(order):
        out = out[:, 1:] * np.arange(1, out.shape[1])
    pad = np.zeros((coeffs.shape[0], coeffs.shape[1] - out.shape[1]))
    return np.hstack([out, pad])


def drop_near(grid, points, pad):
    """Grid values farther than pad from every listed point."""
    keep = np.ones(np.shape(grid), dtype=bool)
    for p in points:
        keep &= np.abs(grid - p) > pad
    return grid[keep]


def split_path(path: MirrorPath, cuts) -> MirrorPath:
    """The one-segment `path` with its polynomial re-expanded on segments
    split at `cuts`, so the table has interior breaks."""
    p = Polynomial(path.table()[1][0])
    breaks = np.concatenate([path.breaks[:1], cuts, path.breaks[1:]])
    rows = np.zeros((len(breaks) - 1, path.table()[1].shape[1]))
    for i, a in enumerate(breaks[:-1]):
        c = p(Polynomial([a - path.breaks[0], 1.0])).coef
        rows[i, : len(c)] = c
    return MirrorPath(breaks, rows, edges=path.edges)


def path_range(path):
    """Exact (min, max) of a piecewise path over the whole time axis: the
    extremes of its polynomial segments and its two constant edges."""
    _, vals = piecewise_extremes(*path.table()[:2])
    return min(*path.edges, float(vals.min())), max(*path.edges, float(vals.max()))


def whole_cavity_root(am, side, t):
    """The side's effective-mirror root at scalar t, solved from the midpoint
    of the whole cavity's range, [min(L0, Lf) - d0, max(R0, Rf) + d0], not
    from the reference-position guesses `build_effective` starts from."""
    p = am.pair
    mid = 0.5 * (min(p.L0, p.Lf) + max(p.R0, p.Rf))
    return float(sta._solve(am, side, np.array([float(t)]), [mid])[0])


def one_hop_kink_args(moore, lo, hi):
    """`ExactMoore.kink_args` walked one hop per round: every round hops the
    w front off the right mirror and the z front off the left mirror, in two
    `_invert` calls, with the same seeds, pruning and bounce bound."""
    left, right = moore.pair.left, moore.pair.right
    w_front = left.breaks - left(left.breaks)
    z_front = right.breaks + right(right.breaks)
    z_list, w_list = [], []
    for _ in range(4 * moore._max_bounces(hi)):
        w_list.append(w_front)
        z_list.append(z_front)
        if w_front.size == 0 and z_front.size == 0:
            break
        t, (X,) = moore._invert("right", -1.0, w_front, 0)
        z_next = t + X
        t, (X,) = moore._invert("left", 1.0, z_front, 0)
        w_next = t - X
        z_front, w_front = (
            z_next[(z_next <= hi) | (w_front <= hi)],
            w_next[(w_next <= hi) | (z_front <= hi)],
        )
    else:
        raise ConvergenceError("kink fronts exceeded their bounce bound")
    z_all = np.unique(np.concatenate(z_list))
    w_all = np.unique(np.concatenate(w_list))
    return z_all[(z_all > lo) & (z_all < hi)], w_all[(w_all > lo) & (w_all < hi)]
