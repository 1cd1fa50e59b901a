"""Piecewise-polynomial mirror trajectories for a 1D two-mirror cavity.

Lengths and times are measured in units of the initial right-mirror position
(c = hbar = k_B = 1), so the speed of light is 1.  A mirror path is a
piecewise polynomial of time, constant outside its motion window and C^3 at
every segment boundary; third derivatives must be exact because they enter
the renormalized energy density directly, so paths are stored as coefficient
tables, never as sampled data.

Reference protocols displace each mirror by the seventh-order smoothstep
delta(x) = 35x^4 - 84x^5 + 70x^6 - 20x^7, which rises from 0 to 1 on [0, 1]
with vanishing first, second and third derivatives at both ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContinuityError, GeometryError

__all__ = [
    "PiecewisePath",
    "MirrorPath",
    "TrajectoryPair",
    "make_reference",
    "piecewise_extremes",
]

# delta's coefficients of x^4 .. x^7
_STEP = np.array([35.0, -84.0, 70.0, -20.0])

_MAX_ORDER = 3
_NCOEF = 8  # storage width: polynomial degree <= 7 per segment


def _horner(c: np.ndarray, u):
    """Ascending-coefficient rows c[..., :] evaluated at u (broadcast)."""
    val = c[..., -1]
    for j in range(c.shape[-1] - 2, -1, -1):
        val = val * u + c[..., j]
    return val


def _check_order(order: int) -> None:
    if order not in range(_MAX_ORDER + 1):
        raise ValueError(f"order must be in 0..3, got {order}")


def _horner_at(cols, idx, u):
    """Ascending coefficient columns (cols[j][i]: coefficient j of segment
    i) of segments idx evaluated at local variables u.  Each column is
    gathered once and accumulated in place, in the order of `_horner`."""
    val = cols[-1].take(idx)
    for c in cols[-2::-1]:
        val *= u
        val += c.take(idx)
    return val


def _locate(breaks: np.ndarray, t):
    """Segment index and local variable u = t - breaks[idx] of each t.
    Arguments outside [breaks[0], breaks[-1]] are clamped to the nearest
    end; at an interior break the segment to the right is used."""
    tc = np.minimum(np.maximum(t, breaks[0]), breaks[-1])
    # counting only interior breaks puts the last break (and NaN) in the
    # last segment
    idx = np.searchsorted(breaks[1:-1], tc, side="right")
    return idx, tc - breaks[idx]


def piecewise_extremes(breaks: np.ndarray, rows: np.ndarray):
    """Candidate extremal points (t, value) of a piecewise polynomial on
    [breaks[0], breaks[-1]]: both ends of every segment and the real roots
    of the derivative inside each segment that could hold a value beyond
    the range [lo, hi] of all segment-end values, so min/max of the values
    are the exact extremes, each attained at its argument.

    On a segment of span h, |p(u) - p(0)| <= reach = sum_{j>=1} |c_j| h^j.
    A segment with p(0) - reach >= lo and p(0) + reach <= hi, padded by
    1e-13 of |p(0)| + reach for Horner rounding, holds no evaluated value
    beyond [lo, hi], so its roots are not solved.

    Derivative terms whose size over their segment stays below 1e-14 of the
    row's largest are dropped, so a vanishing leading coefficient lowers the
    degree instead of blowing up the companion matrix.  Rows of equal degree
    share one batched eigenvalue call.
    """
    spans = np.diff(breaks)
    p0, p1 = rows[:, 0], _horner(rows, spans)
    ts, vals = [breaks[:-1], breaks[1:]], [p0, p1]
    lo, hi = min(p0.min(), p1.min()), max(p0.max(), p1.max())
    w = rows.shape[1]
    reach = np.sum(np.abs(rows[:, 1:]) * spans[:, None] ** np.arange(1, w), axis=1)
    pad = 1e-13 * (np.abs(p0) + reach)
    sel = np.flatnonzero((p0 - reach - pad < lo) | (p0 + reach + pad > hi))
    d = rows[sel, 1:] * np.arange(1, w)
    size = np.abs(d) * spans[sel, None] ** np.arange(w - 1)
    keep = size > 1e-14 * np.max(size, axis=1, keepdims=True, initial=0.0)
    deg = np.max(np.where(keep, np.arange(w - 1), 0), axis=1, initial=0)
    for k in np.unique(deg[deg > 0]):
        of_k = np.flatnonzero(deg == k)
        comp = np.zeros((of_k.size, k, k))
        comp[:, np.arange(1, k), np.arange(k - 1)] = 1.0
        comp[:, :, -1] = -d[of_k, :k] / d[of_k, k : k + 1]
        # the rotated companion matrix, as in numpy's polyroots, is more accurate
        roots = np.linalg.eigvals(comp[:, ::-1, ::-1]).ravel()
        seg = np.repeat(sel[of_k], k)
        u, span = roots.real, spans[seg]
        # a real double root may come back as a pair with a tiny imaginary
        # part; its real part is still a point of the segment
        real = (np.abs(roots.imag) <= 1e-7 * span) & (u > 0.0) & (u < span)
        ts.append(breaks[seg[real]] + u[real])
        vals.append(_horner(rows[seg[real]], u[real]))
    return np.concatenate(ts), np.concatenate(vals)


class PiecewisePath:
    """A piecewise polynomial of time, constant outside its table.

    The table is n+1 strictly increasing knots, (n, w) ascending coefficient
    rows in the local variable u = t - knots[i], one per segment, and the
    constant values `edges` = (before, after) that the path holds up to the
    first knot and from the last knot on, where all its derivatives vanish.
    Each derivative order k = 0..3 is tabulated once, as w - k contiguous
    coefficient columns (the zero columns differentiation leaves are
    dropped), and every query locates each argument's segment once for all
    the orders it asks for.  `table()` hands out the order-0 columns as
    rows, a transposed view.
    """

    def __init__(self, knots: np.ndarray, rows: np.ndarray, before: float, after: float):
        self._knots = knots
        # np.array copies even a one-segment table, whose transpose is
        # already contiguous
        cols, d = [np.array(rows.T, order="C")], rows
        for _ in range(_MAX_ORDER):
            d = d[:, 1:] * np.arange(1, d.shape[1])
            c = np.array(d.T, order="C") if d.shape[1] else np.zeros((1, len(rows)))
            # Horner on a zero-padded row reached the top coefficient as
            # 0*u + c, which turns a -0.0 into +0.0; keep that
            c[-1] += 0.0
            cols.append(c)
        self._cols = tuple(cols)
        self.edges = (float(before), float(after))
        _, speeds = piecewise_extremes(knots, self._cols[1].T)
        self._max_speed = float(np.max(np.abs(speeds)))

    def _eval(self, t: np.ndarray, orders) -> list:
        """The given derivative orders at t, from one segment lookup."""
        knots = self._knots
        idx, u = _locate(knots, t)
        outside = (t < knots[0]) | (t > knots[-1])
        out = []
        for k in orders:
            val = _horner_at(self._cols[k], idx, u)
            if k > 0:
                val = np.where(outside, 0.0, val)
            else:
                val = np.where(t <= knots[0], self.edges[0], val)
                val = np.where(t >= knots[-1], self.edges[1], val)
            out.append(val)
        return out

    def __call__(self, t, order: int = 0):
        """Exact piecewise-polynomial evaluation of position (order 0) or a
        time derivative (orders 1..3)."""
        _check_order(order)
        (val,) = self._eval(np.asarray(t, dtype=float), (order,))
        return float(val) if val.ndim == 0 else val

    def jet(self, t, order: int = 3):
        """Position and derivatives 1..order at t, as a tuple of arrays."""
        _check_order(order)
        return tuple(self._eval(np.asarray(t, dtype=float), range(order + 1)))

    @property
    def motion_start(self) -> float:
        return float(self._knots[0])

    @property
    def motion_end(self) -> float:
        return float(self._knots[-1])

    def table(self):
        """(knots, rows, before, after) of the position polynomial."""
        return self._knots, self._cols[0].T, *self.edges

    def max_speed(self) -> float:
        """Exact sup of |velocity|, found at polynomial critical points."""
        return self._max_speed


class MirrorPath(PiecewisePath):
    """One mirror's position as a C^3 piecewise polynomial of time.

    `breaks` are the n+1 strictly increasing segment boundaries; `coeffs` is
    an (n, 8) array of ascending polynomial coefficients in the local
    variable u = t - breaks[i] (narrower rows are zero-padded).  Outside
    [breaks[0], breaks[-1]] the path is constant (the boundary values), with
    all derivatives zero.

    `edges`, when given, pins the two constant extension values exactly;
    evaluating the boundary polynomial loses a few ulps, and quantities like
    the final cavity length deserve to be exact.  The pinned values must
    agree with the polynomial boundary values to continuity tolerance.
    """

    def __init__(self, breaks, coeffs, edges: tuple | None = None):
        breaks = np.atleast_1d(np.asarray(breaks, dtype=float))
        coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
        if breaks.ndim != 1 or len(breaks) < 2:
            raise GeometryError("path needs at least one segment")
        if not np.all(np.diff(breaks) > 0):
            raise GeometryError("segment boundaries must strictly increase")
        if coeffs.shape[0] != len(breaks) - 1:
            raise GeometryError(
                f"{coeffs.shape[0]} coefficient rows for {len(breaks) - 1} segments"
            )
        if coeffs.shape[1] > _NCOEF:
            raise GeometryError(f"polynomial degree above {_NCOEF - 1} unsupported")
        if not np.all(np.isfinite(coeffs)) or not np.all(np.isfinite(breaks)):
            raise GeometryError("non-finite path data")
        if coeffs.shape[1] < _NCOEF:
            coeffs = np.hstack(
                [coeffs, np.zeros((coeffs.shape[0], _NCOEF - coeffs.shape[1]))]
            )
        ev = (
            float(coeffs[0, 0]),
            float(_horner(coeffs[-1], breaks[-1] - breaks[-2])),
        )
        scale = max(1.0, float(np.max(np.abs(coeffs))))
        if edges is None:
            edges = ev
        elif max(abs(edges[0] - ev[0]), abs(edges[1] - ev[1])) > 1e-9 * scale:
            raise ContinuityError(
                f"pinned edge values {tuple(edges)} disagree with boundary "
                f"polynomial values {ev}"
            )
        super().__init__(breaks, coeffs, *edges)
        self._check_c3(1e-9 * scale)

    # bound in this class's own namespace, so a tool that patches one path
    # class's evaluators leaves the other's alone
    __call__ = PiecewisePath.__call__
    jet = PiecewisePath.jet

    @property
    def breaks(self) -> np.ndarray:
        return self._knots

    @property
    def coeffs(self) -> np.ndarray:
        return self._cols[0].T

    def _check_c3(self, tol: float):
        """Value and derivatives 1..3 must match at every interior boundary,
        and derivatives 1..3 must vanish at both ends (constant extension)."""
        spans = np.diff(self.breaks)
        for k, dc in enumerate(self._cols):
            left_end = _horner(dc.T, spans)
            right_start = dc[0]
            if k >= 1:
                if abs(left_end[-1]) > tol or abs(right_start[0]) > tol:
                    raise ContinuityError(
                        f"derivative {k} does not vanish at the motion window edge"
                    )
            interior = np.abs(left_end[:-1] - right_start[1:])
            if interior.size and np.max(interior) > tol:
                i = int(np.argmax(interior))
                raise ContinuityError(
                    f"derivative {k} jumps by {interior[i]:.3e} at t={self.breaks[i + 1]}"
                )


def _merged_gap_coeffs(left, right):
    """Ascending coefficients of R - L on the merged break grid.

    `left` and `right` are tables (breaks, rows, before, after): the rows
    of one piecewise polynomial and its constant values before breaks[0]
    and from breaks[-1] on.  The merged grid, the union of both break
    grids, spans both motion windows.  Each path's row under every merged
    segment start is gathered once and Taylor-shifted to that start, one
    running derivative giving each order in turn.
    """
    tables = (left, right)
    a = np.union1d(left[0], right[0])
    width = max(tab[1].shape[1] for tab in tables)
    rows = np.zeros((len(a) - 1, width))
    for sgn, (tb, tr, before, after) in zip((-1.0, 1.0), tables):
        idx, u = _locate(tb, a[:-1])
        shifted = np.zeros_like(rows)
        d, fact = tr[idx], 1.0
        for k in range(tr.shape[1]):
            # Taylor coefficient p^(k)(u) / k! at the new segment start
            shifted[:, k] = _horner(d, u) / fact
            d = d[:, 1:] * np.arange(1, d.shape[1])
            fact *= k + 1
        pre, post = a[:-1] < tb[0], a[:-1] >= tb[-1]
        shifted[pre | post] = 0.0
        shifted[pre, 0] = before
        shifted[post, 0] = after
        rows += sgn * shifted
    return a, rows


@dataclass(frozen=True)
class TrajectoryPair:
    """Left and right mirror paths with their pre/post-motion geometry.

    Validates that the cavity never collapses: min over the full axis of
    R(t) - L(t) must stay positive (checked exactly on the merged piecewise
    polynomial, not on a sample grid, once at construction).  `tau` is the
    reference protocol's duration; a pair of effective trajectories has
    none.
    """

    left: PiecewisePath
    right: PiecewisePath
    tau: float | None = None
    L0: float = field(init=False)
    Lf: float = field(init=False)
    R0: float = field(init=False)
    Rf: float = field(init=False)
    _gap_min: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.tau is not None and not self.tau > 0:
            raise GeometryError(f"motion duration must be positive, got {self.tau}")
        edges = (*self.left.edges, *self.right.edges)
        for name, value in zip(("L0", "Lf", "R0", "Rf"), edges):
            object.__setattr__(self, name, value)
        breaks, rows = _merged_gap_coeffs(self.left.table(), self.right.table())
        _, vals = piecewise_extremes(breaks, rows)
        object.__setattr__(self, "_gap_min", min(self.d0, self.df, float(vals.min())))
        if self._gap_min <= 0:
            raise GeometryError("mirrors cross: R(t) - L(t) reaches zero")

    @property
    def d0(self) -> float:
        return self.R0 - self.L0

    @property
    def df(self) -> float:
        return self.Rf - self.Lf

    @property
    def motion_start(self) -> float:
        return min(self.left.motion_start, self.right.motion_start)

    @property
    def motion_end(self) -> float:
        return max(self.left.motion_end, self.right.motion_end)

    @property
    def realizable(self) -> bool:
        """Both paths stay below the speed of light."""
        return max(self.left.max_speed(), self.right.max_speed()) < 1.0

    def gap_min(self) -> float:
        """Exact min of R(t) - L(t) over the whole time axis."""
        return self._gap_min

    def gap(self, t):
        """R(t) - L(t), the cavity length."""
        return self.right(t) - self.left(t)


def _reference_path(x0: float, xf: float, tau: float) -> MirrorPath:
    """Path x0 + (xf - x0) * delta(t/tau) on [0, tau], constant outside."""
    row = np.zeros(_NCOEF)
    row[0] = x0
    row[4:8] = (xf - x0) * _STEP / tau ** np.arange(4, 8)
    return MirrorPath(np.array([0.0, tau]), row[None, :], edges=(x0, xf))


def make_reference(
    family: str,
    L0: float = 0.0,
    Lf: float | None = None,
    R0: float = 1.0,
    eps: float = 0.0,
    tau: float = 1.0,
) -> TrajectoryPair:
    """Reference protocol L = L0 + (Lf-L0) delta(t/tau), R = R0 (1 - eps delta(t/tau)).

    Families constrain the endpoint geometry: `contraction` requires the
    final length not to exceed the initial one, `expansion` requires eps < 0
    with Lf = eps*R0, `rigid` requires eps < 0 with Lf = -eps*R0 and L0 = 0
    (otherwise the cavity length would not stay constant).  Reference paths
    may be superluminal; they are mathematical targets, and physical-speed
    checks apply to the trajectories actually driven.
    """
    if not tau > 0:
        raise GeometryError(f"tau must be positive, got {tau}")
    if not R0 > L0:
        raise GeometryError(f"need R0 > L0, got R0={R0}, L0={L0}")
    Rf = R0 * (1.0 - eps)

    if family == "contraction":
        if Lf is None:
            Lf = L0
        if Rf - Lf > R0 - L0 + 1e-15:
            raise GeometryError(
                f"contraction must not grow the cavity: df={Rf - Lf}, d0={R0 - L0}"
            )
    elif family == "expansion":
        if not eps < 0:
            raise GeometryError(f"expansion requires eps < 0, got {eps}")
        if Lf is None:
            Lf = eps * R0
        elif not np.isclose(Lf, eps * R0, rtol=1e-12, atol=1e-15):
            raise GeometryError(f"expansion requires Lf = eps*R0 = {eps * R0}, got {Lf}")
    elif family == "rigid":
        if not eps < 0:
            raise GeometryError(f"rigid motion requires eps < 0, got {eps}")
        if L0 != 0.0:
            raise GeometryError("rigid motion requires L0 = 0")
        if Lf is None:
            Lf = -eps * R0
        elif not np.isclose(Lf, -eps * R0, rtol=1e-12, atol=1e-15):
            raise GeometryError(f"rigid motion requires Lf = -eps*R0 = {-eps * R0}, got {Lf}")
    elif family == "custom":
        raise GeometryError(
            "custom family takes explicit MirrorPaths; build a TrajectoryPair directly"
        )
    else:
        raise GeometryError(f"unknown family {family!r}")

    if not Rf > Lf:
        raise GeometryError(f"final geometry collapses: Rf={Rf}, Lf={Lf}")

    left = _reference_path(L0, Lf, tau)
    right = _reference_path(R0, Rf, tau)
    return TrajectoryPair(left, right, tau)
