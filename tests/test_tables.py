"""Property tests for the shared piecewise-polynomial table code: the one
evaluator and extremum finder, the C^3 validation `MirrorPath` adds on top
of the shared path core, the two interpolants built on it, the truncated
jets, which must be bit-for-bit prefixes of the full ones, the extremum
finder's pruning, which must keep the exact extremes, its root kernel,
which must find known roots, survive degenerate rows and give each row the
same bits alone as in a batch, and the column-form evaluation, which must
be bit for bit the padded-row arithmetic."""

from math import factorial, perm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval
from numpy.testing import assert_allclose

from cavsta import jets, trajectory
from cavsta.errors import ContinuityError
from cavsta.moore_adiabatic import AdiabaticMoore
from cavsta.sta import _quintic_rows
from cavsta.trajectory import (
    MirrorPath,
    PiecewisePath,
    TrajectoryPair,
    _horner,
    _merged_gap_coeffs,
    _real_roots,
    _sorted_unique,
    make_reference,
    piecewise_extremes,
)

from util import path_range, poly_derivative, split_path

_coef = st.floats(-5.0, 5.0, allow_nan=False)


@st.composite
def continuous_tables(draw):
    """(breaks, rows) of a continuous random table; each row keeps a random
    number of leading coefficients, so zero leading terms are common."""
    n = draw(st.integers(1, 5))
    width = draw(st.integers(2, 8))
    t0 = draw(st.floats(-3.0, 3.0))
    spans = draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n))
    breaks = t0 + np.concatenate([[0.0], np.cumsum(spans)])
    rows = np.zeros((n, width))
    for i in range(n):
        degree = draw(st.integers(0, width - 1))
        rows[i, : degree + 1] = draw(
            st.lists(_coef, min_size=degree + 1, max_size=degree + 1)
        )
    for i in range(n - 1):
        rows[i + 1, 0] = polyval(breaks[i + 1] - breaks[i], rows[i])
    return breaks, rows


def _curve(breaks, rows):
    """The table as a path, its edges the end values of its polynomial."""
    return PiecewisePath(breaks, rows, rows[0, 0], _horner(rows[-1], breaks[-1] - breaks[-2]))


@settings(max_examples=200, deadline=None)
@given(continuous_tables())
def test_extremes_enclose_dense_sampling_and_are_attained(table):
    breaks, rows = table
    ts, vals = piecewise_extremes(breaks, rows)
    curve = _curve(breaks, rows)
    dense = curve(np.linspace(breaks[0], breaks[-1], 10_000))
    spans = np.diff(breaks)
    size = np.abs(rows) * spans[:, None] ** np.arange(rows.shape[1])
    tol = 1e-12 * max(1.0, float(size.sum(axis=1).max()))
    assert vals.min() <= dense.min() + tol
    assert vals.max() >= dense.max() - tol
    assert np.all((ts >= breaks[0]) & (ts <= breaks[-1]))
    for i in (np.argmin(vals), np.argmax(vals)):
        assert abs(curve(ts[i]) - vals[i]) <= tol


@st.composite
def flat_c3_tables(draw, min_segments=1):
    """(breaks, rows) of a random C^3 degree-7 table that is flat at both
    ends: each row starts with the Taylor data (value and derivatives 1..3)
    of its left neighbour's end, the first row starts flat, and the last
    row's coefficients 4..6 are solved so that it ends flat."""
    n = draw(st.integers(min_segments, 5))
    t0 = draw(st.floats(-3.0, 3.0))
    spans = draw(st.lists(st.floats(0.25, 2.0), min_size=n, max_size=n))
    breaks = t0 + np.concatenate([[0.0], np.cumsum(spans)])
    rows = np.zeros((n, 8))
    rows[0, 0] = draw(_coef)
    for i in range(n):
        if i:
            rows[i, :4] = [
                polyval(spans[i - 1], poly_derivative(rows[i - 1 : i], k)[0]) / factorial(k)
                for k in range(4)
            ]
        rows[i, 4:] = draw(st.lists(_coef, min_size=4, max_size=4))
    # derivatives 1..3 of u**j at the last row's end, j = 0..7
    h = spans[-1]
    deriv = np.array([[perm(j, k) * h ** max(j - k, 0) for j in range(8)] for k in (1, 2, 3)])
    rows[-1, 4:7] = 0.0
    rows[-1, 4:7] = np.linalg.solve(deriv[:, 4:7], -deriv @ rows[-1])
    return breaks, rows


@settings(max_examples=200, deadline=None)
@given(flat_c3_tables())
def test_mirror_path_accepts_flat_c3_tables(table):
    breaks, rows = table
    path = MirrorPath(breaks, rows)
    assert np.array_equal(path.breaks, breaks) and np.array_equal(path.table()[1], rows)


@settings(max_examples=200, deadline=None)
@given(flat_c3_tables(min_segments=2), st.data())
def test_mirror_path_rejects_a_nudged_junction(table, data):
    """One coefficient of orders 0..3 at the start of an interior segment,
    moved by 1e-6 of the table's scale, breaks C^3 continuity there."""
    breaks, rows = table
    i = data.draw(st.integers(1, len(rows) - 1))
    k = data.draw(st.integers(0, 3))
    sign = data.draw(st.sampled_from([-1.0, 1.0]))
    rows = rows.copy()
    rows[i, k] += sign * 1e-6 * max(1.0, float(np.max(np.abs(rows))))
    with pytest.raises(ContinuityError):
        MirrorPath(breaks, rows)


def _node_data(n):
    return st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n).map(np.array)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_quintic_rows_reproduce_node_jets(data):
    n = data.draw(st.integers(1, 8))
    t0 = data.draw(st.floats(-5.0, 5.0))
    h = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    times = t0 + np.concatenate([[0.0], np.cumsum(h)])
    jet = [data.draw(_node_data(n + 1)) for _ in range(3)]
    rows = _quintic_rows(times, *jet)
    for order, want in enumerate(jet):
        d = poly_derivative(rows, order)
        tol = 1e-9 * max(1.0, float(np.max(np.abs(want))))
        assert_allclose(d[:, 0], want[:-1], rtol=1e-9, atol=tol)
        assert_allclose(polyval(np.diff(times), d.T, tensor=False), want[1:], rtol=1e-9, atol=tol)


@settings(max_examples=20, deadline=None)
@given(
    st.floats(0.05, 0.5),
    st.floats(0.0, 0.3),
    st.floats(0.3, 5.0),
    st.sampled_from([32, 100, 128]),
)
def test_advance_rows_reproduce_integral_and_integrand(eps, Lf, tau, panels):
    pair = make_reference("contraction", L0=0.0, Lf=Lf, R0=1.0, eps=eps, tau=tau)
    am = AdiabaticMoore.build(pair, panels)
    nodes, rows = am._nodes, am._cols.T
    assert am.panels % panels == 0 and len(rows) == am.panels
    I = np.append(rows[:, 0], am.I_end)
    assert I[0] == nodes[0] / pair.d0
    assert_allclose(am.advance(nodes), I, rtol=1e-12, atol=1e-12)
    assert_allclose(polyval(np.diff(nodes), rows.T, tensor=False), I[1:], rtol=1e-9)
    slopes = poly_derivative(rows, 1)
    g = 1.0 / pair.gap(nodes)
    assert_allclose(slopes[:, 0], g[:-1], rtol=1e-9)
    assert_allclose(polyval(np.diff(nodes), slopes.T, tensor=False), g[1:], rtol=1e-9)


# -- truncated jets are prefixes of the full jets ----------------------------


def _same(got, want):
    """Tuples of equal length whose entries are equal element by element."""
    return len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))


@st.composite
def arguments(draw, breaks):
    """Arguments inside the span of `breaks`, outside it and exactly on a
    break, as a scalar or an array."""
    lo, hi = float(breaks[0]), float(breaks[-1])
    one = st.one_of(
        st.floats(lo, hi),
        st.floats(lo - 5.0, lo, exclude_max=True),
        st.floats(hi, hi + 5.0, exclude_min=True),
        st.sampled_from([float(b) for b in breaks]),
    )
    if draw(st.booleans()):
        return draw(one)
    return np.array(draw(st.lists(one, min_size=1, max_size=12)))


def _some(breaks, n=40):
    """About n of `breaks`, both ends included."""
    return np.append(breaks[:-1 : max(1, len(breaks) // n)], breaks[-1])


_TAU = 1.2
_REF = make_reference("contraction", L0=0.0, Lf=0.3, R0=1.0, eps=0.3, tau=_TAU)
_SPLIT = split_path(_REF.right, np.array([0.25, 0.6, 0.61, 1.0]))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_path_jets_are_prefixes_of_calls(data):
    for path in (_REF.left, _SPLIT):
        t = data.draw(arguments(path.breaks))
        for k in range(4):
            assert _same(path.jet(t, k), tuple(path(t, j) for j in range(k + 1)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_effective_jets_are_prefixes_of_calls(contraction12, data):
    for path in (contraction12.eff_pair.left, contraction12.eff_pair.right):
        t = data.draw(arguments(_some(path.times)))
        for k in range(4):
            assert _same(path.jet(t, k), tuple(path(t, j) for j in range(k + 1)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_adiabatic_jets_are_prefixes_of_full_jet(contraction12, data):
    am = contraction12.am
    z = data.draw(arguments(_some(am._nodes)))
    for which in ("F", "G"):
        full = am.jet(which, z)
        for k in range(4):
            assert _same(am.jet(which, z, k), full[: k + 1])
            assert np.array_equal(getattr(am, which)(z, k), full[k])


_jet_entry = st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3).map(np.array)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_jet_entry, min_size=4, max_size=4),
    st.lists(_jet_entry, min_size=3, max_size=3),
    st.lists(st.floats(0.01, 100.0), min_size=3, max_size=3),
    st.lists(st.booleans(), min_size=3, max_size=3),
)
def test_truncated_quotients_are_prefixes(u, v_tail, v0, flip):
    v = [np.where(flip, -1.0, 1.0) * np.array(v0), *v_tail]
    full_q, full_r = jets.divide(u, v), jets.reciprocal(v)
    for k in range(4):
        n = k + 1
        assert _same(jets.divide(u[:n], v[:n]), full_q[:n])
        assert _same(jets.divide(u[:n], v), full_q[:n])
        assert _same(jets.divide(u, v[:n]), full_q[:n])
        assert _same(jets.reciprocal(v[:n]), full_r[:n])


# -- pruned extremes keep the exact min and max -------------------------------


def _segmentwise(breaks, rows):
    """Candidate values of one-segment calls, one call per segment: with
    only its own ends to compare with, every segment solves its roots."""
    return np.concatenate(
        [piecewise_extremes(breaks[i : i + 2], rows[i : i + 1])[1] for i in range(len(rows))]
    )


def _same_extremes(breaks, rows):
    _, vals = piecewise_extremes(breaks, rows)
    full = _segmentwise(breaks, rows)
    return vals.min() == full.min() and vals.max() == full.max()


@settings(max_examples=200, deadline=None)
@given(continuous_tables())
def test_pruned_extremes_keep_the_exact_min_and_max(table):
    assert _same_extremes(*table)


def _velocity_table(path):
    knots, rows, _, _ = path.table()
    return knots, poly_derivative(rows, 1)


def test_pruned_extremes_exact_on_effective_tables(contraction12):
    eff = contraction12.eff_pair
    for path in (eff.left, eff.right):
        assert _same_extremes(*_velocity_table(path))
        assert _same_extremes(*path.table()[:2])
    assert _same_extremes(*_merged_gap_coeffs(eff.left.table(), eff.right.table()))


def test_extremes_solve_roots_only_where_an_extreme_can_lie(contraction12, monkeypatch):
    """Most segments of a fine effective table lie inside the range of the
    segment-end values, so their rows never reach the root kernel."""
    solve, solved = trajectory._real_roots, []

    def counting(rows, spans):
        solved.append(len(rows))
        return solve(rows, spans)

    monkeypatch.setattr(trajectory, "_real_roots", counting)
    breaks, rows = _velocity_table(contraction12.eff_pair.right)
    piecewise_extremes(breaks, rows)
    assert 0 < sum(solved) <= len(rows) // 4


# -- the root kernel -----------------------------------------------------------


@st.composite
def rows_with_known_roots(draw):
    """(row, span, roots): up to three simple roots in (0, span), at least
    0.15 span apart and from 0, times up to two factors with no real root
    in [0, span] (a quadratic (u - al)^2 + be^2, or a linear factor whose
    root lies outside), so the row has degree at most 7."""
    span = draw(st.floats(0.1, 3.0))
    roots = span * np.cumsum(draw(st.lists(st.floats(0.15, 0.3), max_size=3)))
    row = np.array([draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 5.0))])
    for r in roots:
        row = np.convolve(row, [-r, 1.0])
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            al, be = span * draw(st.floats(0.0, 1.0)), span * draw(st.floats(0.3, 1.0))
            row = np.convolve(row, [al * al + be * be, -2.0 * al, 1.0])
        else:
            far = span * draw(st.floats(0.2, 2.0))
            row = np.convolve(row, [-(span + far) if draw(st.booleans()) else far, 1.0])
    return row, span, roots


@settings(max_examples=300, deadline=None)
@given(rows_with_known_roots())
def test_real_roots_recover_known_roots(case):
    row, span, roots = case
    which, u = _real_roots(row[None, :], np.array([span]))
    assert np.array_equal(which, np.zeros(len(roots)))
    assert_allclose(u, roots, rtol=0.0, atol=1e-12 * span)


def _padded(coeffs, width=8):
    row = np.zeros(width)
    row[: len(coeffs)] = coeffs
    return row


@pytest.mark.parametrize(
    "row, roots",
    [
        (np.zeros(8), []),
        (_padded([2.5]), []),
        *[(_padded([0.0] * k + [-1.5]), []) for k in range(1, 8)],
        # (u - 1/2)^2 (u - 1/4): the double root changes no sign
        (_padded(np.convolve([0.25, -1.0, 1.0], [-0.25, 1.0])), [0.25]),
        # (u - 0.3)(u - 0.7) + 1e-300 u^7
        (_padded([0.21, -1.0, 1.0] + [0.0] * 4 + [1e-300]), [0.3, 0.7]),
    ],
)
def test_real_roots_of_degenerate_rows(row, roots):
    """A zero row, a constant, a pure power c u^k (its root at 0 is not
    inside), a double root and a leading coefficient of 1e-300: the sign
    changes inside (0, 1), without a warning (pytest makes one an error)."""
    which, u = _real_roots(row[None, :], np.array([1.0]))
    assert np.array_equal(which, np.zeros(len(roots)))
    assert_allclose(u, roots, rtol=0.0, atol=1e-12)


@st.composite
def root_batches(draw):
    """(rows, spans): uniform random rows of one width (a seeded draw, so
    most rows have several levels of Newton roots), some with zero leading
    or trailing coefficients, so degrees and factors u^j mix."""
    n, w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.uniform(-5.0, 5.0, (n, w))
    for row in rows:
        if draw(st.booleans()):
            row[: draw(st.integers(0, w - 1))] = 0.0
        if draw(st.booleans()):
            row[draw(st.integers(1, w)) :] = 0.0
    return rows, rng.uniform(0.1, 3.0, n)


@settings(max_examples=300, deadline=None)
@given(root_batches())
def test_real_roots_do_not_depend_on_the_batch(batch):
    """A row's roots are bit for bit the same alone as in a batch: each
    Newton root stops on its own, so the extremes of a table do not depend
    on which of its segments are solved together."""
    rows, spans = batch
    which, u = _real_roots(rows, spans)
    for i in range(len(rows)):
        _, alone = _real_roots(rows[i : i + 1], spans[i : i + 1])
        assert _bitwise(u[which == i], alone)


# -- the merged gap table is R - L -------------------------------------------


def _table_size(breaks, rows):
    """Largest sum_j |c_j| h^j over the segments: the scale of a table's
    values and of the rounding in shifting it."""
    spans = np.diff(breaks)[:, None]
    return float(np.max(np.sum(np.abs(rows) * spans ** np.arange(rows.shape[1]), axis=1)))


def _placed_path(table, start, lift, extra):
    """The table moved to start at `start`, raised by `lift`, and its rows
    padded with `extra` zero columns (same function, wider rows)."""
    breaks, rows = table
    breaks = breaks - breaks[0] + start
    rows = np.hstack([rows, np.zeros((len(rows), extra))])
    rows[:, 0] += lift
    return PiecewisePath(breaks, rows, rows[0, 0], _horner(rows[-1], breaks[-1] - breaks[-2]))


@settings(max_examples=100, deadline=None)
@given(
    flat_c3_tables(),
    flat_c3_tables(),
    st.sampled_from(["shifted", "nested", "disjoint"]),
    st.data(),
)
def test_merged_gap_rows_are_right_minus_left(first, second, placement, data):
    """Two flat C^3 paths whose windows overlap in part, nest or are
    disjoint, with rows of different widths: the merged rows give R - L at
    every merged knot, every segment midpoint and a random point, and
    `gap_min()` is attained and below a dense sample of the gap."""
    outer, inner = sorted((first, second), key=lambda tab: tab[0][0] - tab[0][-1])
    o0, o1 = outer[0][0], outer[0][-1]
    span = inner[0][-1] - inner[0][0]
    frac = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    start = {
        "shifted": o1 - frac * span,
        "nested": o0 + frac * (o1 - o0 - span),
        "disjoint": o1 + 2.0 * frac,
    }[placement]
    placed = [(outer, o0), (inner, start)]
    if data.draw(st.booleans()):
        placed.reverse()
    widths = [0, data.draw(st.integers(1, 3))]
    if data.draw(st.booleans()):
        widths.reverse()
    left = _placed_path(*placed[0], 0.0, widths[0])
    # lift the right path clear of the left one
    low = path_range(_placed_path(*placed[1], 0.0, widths[1]))[0]
    right = _placed_path(*placed[1], path_range(left)[1] - low + 1.0, widths[1])
    pair = TrajectoryPair(left, right)

    knots, rows = _merged_gap_coeffs(left.table(), right.table())
    assert rows.shape == (len(knots) - 1, 8 + max(widths))
    assert np.array_equal(knots, np.union1d(left.table()[0], right.table()[0]))
    t = np.concatenate([
        knots,
        0.5 * (knots[:-1] + knots[1:]),
        [data.draw(st.floats(knots[0], knots[-1]))],
    ])
    idx = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, len(rows) - 1)
    merged = _horner(rows[idx], t - knots[idx])
    scale = max(1.0, *(_table_size(*p.table()[:2]) for p in (left, right)))
    assert_allclose(merged, right(t) - left(t), rtol=0.0, atol=1e-12 * scale)

    gmin = pair.gap_min()
    dense = pair.gap(np.linspace(knots[0] - 1.0, knots[-1] + 1.0, 20_000))
    assert gmin <= dense.min() + 1e-12 * scale
    ts, _ = piecewise_extremes(knots, rows)
    reach = pair.gap(np.concatenate([ts, [knots[0] - 1.0, knots[-1] + 1.0]]))
    assert np.min(np.abs(reach - gmin)) <= 1e-12 * scale


# -- column evaluation is bit for bit the padded-row arithmetic --------------


def _bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _row_form(knots, rows, k, t):
    """Order k at t as the padded rows evaluated it: clip t to the table,
    locate its segment, gather the whole order-k row and run Horner over
    every column, the zero ones differentiation left included."""
    tc = np.clip(t, knots[0], knots[-1])
    idx = np.clip(np.searchsorted(knots, tc, side="right") - 1, 0, len(knots) - 2)
    return _horner(poly_derivative(rows, k)[idx], tc - knots[idx])


def _assert_columns_are_rows(path, t):
    knots, rows, before, after = path.table()
    t = np.asarray(t, dtype=float)
    jet = path.jet(t, 3)
    for k in range(4):
        inner = _row_form(knots, rows, k, t)
        # the padded order-k rows as a table of their own, zero columns kept
        ends = (_row_form(knots, rows, k, knots[j]) for j in (0, -1))
        assert _bitwise(PiecewisePath(knots, poly_derivative(rows, k), *ends)(t), inner)
        if k:
            want = np.where((t < knots[0]) | (t > knots[-1]), 0.0, inner)
        else:
            want = np.where(t <= knots[0], before, np.where(t >= knots[-1], after, inner))
        assert _bitwise(jet[k], want)
        assert _bitwise(path(t, k), want)


@settings(max_examples=200, deadline=None)
@given(flat_c3_tables(), st.data())
def test_path_columns_evaluate_as_rows(table, data):
    path = MirrorPath(*table)
    _assert_columns_are_rows(path, data.draw(arguments(path.breaks)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_effective_columns_evaluate_as_rows(contraction12, data):
    for path in (contraction12.eff_pair.left, contraction12.eff_pair.right):
        _assert_columns_are_rows(path, data.draw(arguments(_some(path.times))))


def test_effective_columns_evaluate_as_rows_on_knots_and_midpoints(contraction12):
    for path in (contraction12.eff_pair.left, contraction12.eff_pair.right):
        knots = path.times
        _assert_columns_are_rows(path, np.concatenate([knots, 0.5 * (knots[:-1] + knots[1:])]))


def test_advance_columns_evaluate_as_rows(contraction12):
    am = contraction12.am
    nodes = am._nodes
    z = np.concatenate([nodes, 0.5 * (nodes[:-1] + nodes[1:])])
    assert _bitwise(am.advance(z), _row_form(nodes, am._cols.T, 0, z))


_repeated = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), st.floats(-1e3, 1e3))


@settings(max_examples=300, deadline=None)
@given(st.lists(_repeated, max_size=40), st.lists(st.integers(-4, 4), max_size=40))
def test_sorted_unique_is_numpys_unique(floats, ints):
    """`_sorted_unique` gives `np.unique` bit for bit, the sign of each kept
    zero included, on floats with repeats and on integers, empty or not."""
    for x in (np.array(floats, dtype=float), np.array(ints, dtype=np.int64)):
        got, want = _sorted_unique(x), np.unique(x)
        assert got.dtype == want.dtype and _bitwise(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
