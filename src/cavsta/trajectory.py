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


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """The distinct values of a NaN-free 1-D array, ascending: `np.unique`'s
    own sort path, without the `numpy.ma` import that `np.unique` makes."""
    x = np.sort(x)
    keep = np.empty(x.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


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


def _start(a, b, q, flat_a, flat_b):
    """A first guess at the root in [a, b] of a monotone f with
    f(a) / (f(a) - f(b)) = q.  Near an end where f is flat (f' = 0, an
    extremum) f is quadratic, so from a flat end the guess is the root of
    the quadratic through both end values that is flat there: in
    t = (u - a) / (b - a), sqrt(q) from a and 1 - sqrt(1 - q) from b, their
    mean when both ends are flat, and regula falsi (t = q) when neither is."""
    ta, tb = np.sqrt(q), 1.0 - np.sqrt(1.0 - q)
    t = np.where(flat_a, np.where(flat_b, 0.5 * (ta + tb), ta), np.where(flat_b, tb, q))
    return a + (b - a) * t


# A level's values of size at most _NOISE of its row's scale
# sum_j |c_j| span^j are rounding noise, with no sign.  A Newton root is
# done once its step is at most _STEP_TOL of its span: convergence is
# quadratic there, so the accepted step leaves a rounding-sized error.
_NOISE = 1e-14
_STEP_TOL = 1e-8
_NEWTON_STEPS = 100


def _newton(fun, x, a, b, up, tol):
    """The root in each bracket [a, b] of a function monotone there, rising
    where `up`, by Newton steps from the guesses x; `fun(i, x)` returns the
    value and slope at x of the roots i (indices into the batch) still live.

    The bracket end on the value's side of zero moves to each evaluated
    point, and a step that does not land strictly inside the bracket
    bisects it instead, without which a fast rigid build jumps to another
    root of its folded branch.  A root stops once its step is at most its
    tol, clamped to its bracket, and leaves the batch, so no root depends
    on the others and each round evaluates only the live roots (on masks,
    `sta._solve` would evaluate 103,071 points instead of 45,980 on the
    sweep_critical seed-0 sweep).  `ExactMoore._invert` keeps a masked loop
    of its own: its points stop after one or two steps, and over the
    hundreds of calls of an exact run this loop's per-round index
    bookkeeping measured slower."""
    out = np.empty_like(x)
    todo = np.arange(x.size)
    for _ in range(_NEWTON_STEPS):
        if not todo.size:
            return out
        f, df = fun(todo, x)
        step = f / df
        # the bracket end on f's side of zero moves to x
        low = (f < 0.0) == up
        np.copyto(a, x, where=low)
        np.copyto(b, x, where=~low)
        x = x - step
        done = np.abs(step) <= tol
        np.copyto(x, 0.5 * (a + b), where=~(done | (x > a) & (x < b)))
        if np.count_nonzero(done):
            out[todo[done]] = np.minimum(np.maximum(x[done], a[done]), b[done])
            keep = ~done
            todo, x, a, b, up, tol = todo[keep], x[keep], a[keep], b[keep], up[keep], tol[keep]
    out[todo] = x
    return out


def _roots_of_degree(rows, spans):
    """`_real_roots` of rows all of degree d = width - 1 >= 1."""
    n, d = rows.shape[0], rows.shape[1] - 1
    # chain[k]: the rows of the k-th derivative, zero-padded, for k down to
    # the quadratic level (a linear row counts as a quadratic with c2 = 0);
    # a level's values of size at most noise[k] have no sign
    chain = np.zeros((max(d - 1, 1), n, max(d + 1, 3)))
    chain[0, :, : d + 1] = rows
    for k in range(1, d - 1):
        chain[k, :, : d + 1 - k] = chain[k - 1, :, 1 : d + 2 - k] * np.arange(1.0, d + 2 - k)
    noise = _NOISE * _horner(np.abs(chain), spans)
    # the quadratic level in closed form: its roots q / c2 and c0 / q, with
    # q free of cancellation.  They change its sign unless its extreme value
    # -disc / (4 c2) is noise.
    c0, c1, c2 = chain[-1, :, 0], chain[-1, :, 1], chain[-1, :, 2]
    disc = c1 * c1 - 4.0 * c0 * c2
    root = np.sqrt(disc)
    q = -0.5 * (c1 + np.where(c1 < 0.0, -root, root))
    r = np.sort(np.stack((q / c2, c0 / q), 1), axis=1)
    change = (r > 0.0) & (r < spans[:, None])
    change &= (np.abs(disc) > 4.0 * np.abs(c2) * noise[-1])[:, None]
    if d <= 2:
        return np.nonzero(change)[0], r[change]
    tol = _STEP_TOL * spans
    at = np.stack((np.zeros(n), spans), 1)
    v = np.where(change, r, 0.0)
    for k in range(d - 3, -1, -1):
        # each row's points: 0, the last level's roots, span; a bracket
        # without a root leaves a 0 in its place, sorted to the front
        at = np.concatenate((at[:, :1], np.sort(v, axis=1), at[:, -1:]), axis=1)
        m = d - k
        f = _horner(chain[k, :, None, : m + 1], at)
        neg, signed = f < 0.0, np.abs(f) > noise[k, :, None]
        i = np.flatnonzero((neg[:, :-1] != neg[:, 1:]) & signed[:, :-1] & signed[:, 1:])
        row = i // m
        # each bracket's left point, flat in `at`
        p = i + row
        a, b, fa, fb = at.take(p), at.take(p + 1), f.take(p), f.take(p + 1)
        u = a
        if i.size:
            x = _start(a, b, fa / (fa - fb), a > 0.0, b < spans.take(row))
            # value and slope rows of each bracket's row
            cd = chain[k : k + 2, :, : m + 1].take(row, axis=1)
            u = _newton(lambda j, v: _horner(cd[:, j], v), x, a, b, fa < 0.0, tol.take(row))
        v = np.zeros((n, m))
        v.put(i, u)
    return row, u


def _real_roots(rows: np.ndarray, spans: np.ndarray):
    """(row, u) of every sign change of each row's polynomial (ascending
    coefficients) in the open interval (0, span), each row's in increasing
    order.

    A row's factor u^j (its j leading zero coefficients) changes no sign
    there and is divided out, and rows of one degree are worked together.
    Each works up its derivative chain from the quadratic level, solved in
    closed form.  Between consecutive sign changes of its derivative a
    level is monotone, so each bracket [0, r_1, ..., r_m, span] they cut
    whose ends differ in sign holds exactly one sign change of the level,
    which `_newton` finds from `_start`.  A value within rounding noise of
    zero has no sign, so a root of even multiplicity, which changes no
    sign, is not returned.  No polynomial is divided by its leading
    coefficient, and each row's roots depend on that row only.
    """
    n, w = rows.shape
    if not rows.size:
        return np.zeros(0, dtype=np.intp), np.zeros(0)
    # each row's first and last nonzero coefficient, by two max reductions
    # (a zero row gets degree 1 - w, and is skipped)
    nonzero, j = rows != 0.0, np.arange(w)
    low = w - 1 - np.max(np.where(nonzero, w - 1 - j, 0), axis=1)
    deg = np.max(np.where(nonzero, j, 0), axis=1) - low
    if np.count_nonzero(low):
        padded = np.zeros((n, 2 * w))
        padded[:, :w] = rows
        rows = padded[np.arange(n)[:, None], low[:, None] + np.arange(w)]
    found = [(low[:0], np.zeros(0))]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if deg.min() == deg.max() > 0:
            return _roots_of_degree(rows[:, : deg[0] + 1], spans)
        for d in _sorted_unique(deg[deg > 0]):
            g = np.flatnonzero(deg == d)
            row, u = _roots_of_degree(rows[g, : d + 1], spans[g])
            found.append((g[row], u))
    return tuple(np.concatenate(parts) for parts in zip(*found))


def piecewise_extremes(breaks: np.ndarray, rows: np.ndarray):
    """Candidate extremal points (t, value) of a piecewise polynomial on
    [breaks[0], breaks[-1]]: both ends of every segment and the sign changes
    of the derivative inside each segment that could hold a value beyond
    the range [lo, hi] of all segment-end values, so min/max of the values
    are the exact extremes, each attained at its argument.

    On a segment of span h, |p(u) - p(0)| <= reach = sum_{j>=1} |c_j| h^j.
    A segment with p(0) - reach >= lo and p(0) + reach <= hi, padded by
    1e-13 of |p(0)| + reach for Horner rounding, holds no evaluated value
    beyond [lo, hi], so its roots are not solved.  The derivative rows of
    the others go to `_real_roots` in one batch.  It isolates each sign
    change of the derivative by that row's own derivative chain and polishes
    it by Newton steps, so it evaluates polynomials only: no eigenvalue
    solve, and no division by a leading coefficient that may vanish.  A
    root of even multiplicity of the derivative is not an extremum and is
    not a candidate.
    """
    spans = np.diff(breaks)
    p0, p1 = rows[:, 0], _horner(rows, spans)
    lo, hi = min(p0.min(), p1.min()), max(p0.max(), p1.max())
    w = rows.shape[1]
    reach = np.sum(np.abs(rows[:, 1:]) * spans[:, None] ** np.arange(1, w), axis=1)
    pad = 1e-13 * (np.abs(p0) + reach)
    sel = np.flatnonzero((p0 - reach - pad < lo) | (p0 + reach + pad > hi))
    row, u = _real_roots(rows[sel, 1:] * np.arange(1, w), spans[sel])
    seg = sel[row]
    ts = np.concatenate((breaks[:-1], breaks[1:], breaks[seg] + u))
    return ts, np.concatenate((p0, p1, _horner(rows[seg], u)))


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
            cols.append(np.array(d.T, order="C") if d.shape[1] else np.zeros((1, len(rows))))
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
        """Exact sup of |velocity|: the largest |v| at the knots and at the
        sign changes of the acceleration, from `piecewise_extremes` when
        the path is built."""
        return self._max_speed


class MirrorPath(PiecewisePath):
    """One mirror's position as a C^3 piecewise polynomial of time.

    `breaks` are the n+1 strictly increasing segment boundaries; `coeffs` is
    an (n, w) array of ascending polynomial coefficients in the local
    variable u = t - breaks[i], w <= 8, evaluated as given.  Outside
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
        if not 0 < coeffs.shape[1] <= _NCOEF:
            raise GeometryError(f"need 1 to {_NCOEF} coefficients per row, got {coeffs.shape[1]}")
        if not np.all(np.isfinite(coeffs)) or not np.all(np.isfinite(breaks)):
            raise GeometryError("non-finite path data")
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
    a = _sorted_unique(np.concatenate((left[0], right[0])))
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
    polynomial, not on a sample grid, once at construction).  Its timescale
    `tau` is the length of its motion window, which for a reference pair
    from `make_reference` is the protocol duration.
    """

    left: PiecewisePath
    right: PiecewisePath
    L0: float = field(init=False)
    Lf: float = field(init=False)
    R0: float = field(init=False)
    Rf: float = field(init=False)
    _gap_min: float = field(init=False, repr=False)

    def __post_init__(self):
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
    def tau(self) -> float:
        """Length of the motion window, motion_end - motion_start."""
        return self.motion_end - self.motion_start

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
    elif family in ("expansion", "rigid"):
        rigid = family == "rigid"
        what, pinned = ("rigid motion", -eps * R0) if rigid else ("expansion", eps * R0)
        if not eps < 0:
            raise GeometryError(f"{what} requires eps < 0, got {eps}")
        if rigid and L0 != 0.0:
            raise GeometryError("rigid motion requires L0 = 0")
        if Lf is None:
            Lf = pinned
        elif not np.isclose(Lf, pinned, rtol=1e-12, atol=1e-15):
            raise GeometryError(f"{what} requires Lf = {'-' * rigid}eps*R0 = {pinned}, got {Lf}")
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
    return TrajectoryPair(left, right)
