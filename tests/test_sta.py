"""Effective trajectories, limit curves, and the critical timescale."""

from fractions import Fraction
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cavsta import sta
from cavsta.errors import BracketError, CavstaError, ConvergenceError, GeometryError
from cavsta.moore_adiabatic import AdiabaticMoore, mirror_jets
from cavsta.sta import (
    _solve,
    EffectivePair,
    EffectiveTrajectory,
    build_effective,
    continuity_check,
    critical_tau,
    default_window,
    limit_trajectory,
)
from cavsta.trajectory import (
    _STEP,
    MirrorPath,
    TrajectoryPair,
    _merged_gap_coeffs,
    _reference_path,
    make_reference,
    piecewise_extremes,
)

from test_runner import _mirror_table
from test_tables import flat_c3_tables
from util import path_range, whole_cavity_root


def test_effective_solves_defining_equations(contraction12):
    s = contraction12
    am, eff = s.am, s.eff_pair
    t = s.times(500)
    xl = eff.left(t)
    xr = eff.right(t)
    assert np.max(np.abs(am.G(t + xl) - am.F(t - xl))) < 1e-9
    assert np.max(np.abs(am.G(t + xr) - am.F(t - xr) - 2.0)) < 1e-9


def test_effective_settles_to_reference_endpoints(contraction12):
    s = contraction12
    lo, hi = s.window
    assert s.eff_pair.left(lo) == pytest.approx(0.0, abs=1e-10)
    assert s.eff_pair.left(hi) == pytest.approx(0.3, abs=1e-10)
    assert s.eff_pair.right(lo) == pytest.approx(1.0, abs=1e-10)
    assert s.eff_pair.right(hi) == pytest.approx(0.7, abs=1e-10)


def test_effective_subluminal_at_moderate_speed(contraction12):
    eff = contraction12.eff_pair
    assert eff.left.realizable and eff.right.realizable
    assert eff.left.max_speed_sampled < 1.0
    assert eff.right.max_speed_sampled < 1.0
    assert eff.realizable


def test_effective_speeds_shrink_with_slower_protocols():
    speeds = []
    for tau in (1.2, 2.4, 4.8):
        pair = make_reference("contraction", L0=0.0, Lf=0.3, R0=1.0, eps=0.3, tau=tau)
        am = AdiabaticMoore.build(pair)
        lo, hi = default_window(pair)
        eff = build_effective(am, "right", lo, hi)
        speeds.append(eff.max_speed_sampled)
    assert speeds[0] > speeds[1] > speeds[2]


def test_bounds_cover_all_sampled_positions(contraction12):
    for side in ("left", "right"):
        tr = getattr(contraction12.eff_pair, side)
        lo, hi = path_range(tr)
        t = np.linspace(tr.times[0], tr.times[-1], 4001)
        x = tr(t)
        assert np.all(x >= lo) and np.all(x <= hi)


def test_effective_derivatives_consistent(contraction12):
    tr = contraction12.eff_pair.right
    t = np.linspace(0.1, 1.1, 101)
    h = 1e-5
    fd1 = (tr(t + h) - tr(t - h)) / (2.0 * h)
    assert_allclose(tr(t, 1), fd1, rtol=0, atol=1e-7)
    jet = tr.jet(t)
    assert_allclose(jet[1], tr(t, 1), rtol=0, atol=0)


def test_effective_jet_orders_outside_0_to_3_rejected(contraction12):
    tr = contraction12.eff_pair.right
    for order in (-1, 4):
        with pytest.raises(ValueError):
            tr(0.5, order)
        with pytest.raises(ValueError):
            tr.jet(0.5, order)


def test_effective_build_asks_for_no_third_order(contraction12, monkeypatch):
    """The solver needs value and slope, the implicit jet curvature; a
    full third-order adiabatic jet anywhere in the build is wasted work.
    Every evaluation is one joint pass over both maps, so each implicit-jet
    round asks for one second-order jet."""
    orders, whiches, rounds = [], [], []
    jet, implicit_jet = AdiabaticMoore.jet, sta._implicit_jet

    def recording_jet(self, which, z, order=3):
        orders.append(order)
        whiches.append(which)
        return jet(self, which, z, order)

    def counting_implicit_jet(*args):
        rounds.append(None)
        return implicit_jet(*args)

    monkeypatch.setattr(AdiabaticMoore, "jet", recording_jet)
    monkeypatch.setattr(sta, "_implicit_jet", counting_implicit_jet)
    s = contraction12
    build_effective(s.am, "right", *s.window)
    assert rounds and orders
    assert 3 not in orders
    assert set(whiches) == {"GF"}
    assert orders.count(2) <= len(rounds)


def test_whole_cavity_solve_matches_curve(contraction12):
    s = contraction12
    for t in (-0.5, 0.3, 0.8, 1.9):
        x = whole_cavity_root(s.am, "right", t)
        assert x == pytest.approx(float(s.eff_pair.right(t)), abs=1e-8)


def test_superluminal_protocol_flagged():
    pair = make_reference("rigid", L0=0.0, Lf=0.4, R0=1.0, eps=-0.4, tau=0.4)
    am = AdiabaticMoore.build(pair)
    lo, hi = default_window(pair)
    eff = EffectivePair(build_effective(am, "left", lo, hi),
                        build_effective(am, "right", lo, hi))
    assert not eff.left.realizable
    assert not eff.right.realizable
    assert eff.left.max_speed_sampled >= 1.0


class _StubMoore:
    """Stub Moore pair: `jet` is assembled from the stub's own G and F, for
    the one request the solver makes, G on the first half of z, F on the
    second.  Of its pair the solver reads only d0, the scale of its start
    brackets."""

    pair = SimpleNamespace(d0=1.0)

    def jet(self, which, z, order=3):
        assert which == "GF"
        g, f = np.split(np.asarray(z, dtype=float), 2)
        return tuple(np.concatenate([self.G(g, k), self.F(f, k)]) for k in range(order + 1))


class _RootlessMoore(_StubMoore):
    """Stub whose defining equation never crosses its target."""

    def G(self, z, order=0):
        # bounded away from zero on the whole axis, growth kept mild so the
        # expanding bracket search cannot overflow
        return np.log1p(np.abs(np.asarray(z, dtype=float))) + 2.0

    def F(self, w, order=0):
        return np.zeros_like(np.asarray(w, dtype=float))


@pytest.mark.parametrize("tau", [1.2, 40.0, 0.3])
@pytest.mark.parametrize("side", ["left", "right"])
def test_far_guesses_reach_a_root_on_real_pairs(tau, side):
    """Guesses 1000 d0 off the reference positions still bracket a root: the
    defining equation rises linearly without bound in x.  Where the branch
    is single-valued (tau = 1.2, 40) that root is the near-guess one; across
    the fold of tau = 0.3 it may be another, but it is still a root."""
    pair = make_reference("contraction", L0=0.0, Lf=0.3, R0=1.0, eps=0.3, tau=tau)
    am = AdiabaticMoore.build(pair)
    t = np.linspace(*default_window(pair), 201)
    ref = getattr(pair, side)(t)
    near = _solve(am, side, t, ref)
    for shift in (1000.0, -1000.0):
        far = _solve(am, side, t, ref + shift * pair.d0)
        (g,), (f,) = mirror_jets(am, t, far, 0)
        assert np.max(np.abs(g - f - (2.0 if side == "right" else 0.0))) <= 1e-12
        if tau > 1.0:
            assert np.max(np.abs(far - near)) <= 1e-12


@pytest.mark.parametrize("tau", [1.2, 0.3, 40.0])
@pytest.mark.parametrize("side", ["left", "right"])
def test_solved_samples_do_not_depend_on_their_batch(tau, side):
    """Each sample's root stops on its own: solved alone it is bitwise its
    value in the batch, and a permuted batch gives the permuted roots, on a
    single-valued branch (tau = 1.2, 40) and across the fold of tau = 0.3."""
    pair = make_reference("contraction", tau=tau, **_README)
    am = AdiabaticMoore.build(pair)
    t = np.linspace(*default_window(pair), 301)
    guesses = getattr(pair, side)(t)
    batch = _solve(am, side, t, guesses)
    alone = [_solve(am, side, t[i : i + 1], guesses[i : i + 1])[0] for i in range(t.size)]
    assert np.array_equal(batch, alone)
    perm = np.random.default_rng(0).permutation(t.size)
    assert np.array_equal(_solve(am, side, t[perm], guesses[perm]), batch[perm])


@pytest.mark.parametrize("side, end, inward", [("left", 0.0, 1.0), ("right", 1.0, -1.0)])
def test_root_on_a_bracket_end_is_that_end(contraction12, side, end, inward):
    """Before the motion the reference edge is an exact root of h.  A guess
    0.05 d0 inside the cavity starts its bracket on that edge, and `_newton`
    stops there at once: the solve is the edge, bit for bit."""
    s = contraction12
    t = s.pair.motion_start - np.array([5.0, 3.0])
    guesses = np.full(2, end + inward * 0.05 * s.pair.d0)
    assert np.array_equal(guesses - inward * 0.05 * s.pair.d0, np.full(2, end))
    (g,), (f,) = mirror_jets(s.am, t, np.full(2, end), 0)
    assert np.array_equal(g - f, np.full(2, 2.0 if side == "right" else 0.0))
    assert np.array_equal(_solve(s.am, side, t, guesses), np.full(2, end))


def test_local_search_without_crossing_raises():
    with pytest.raises(BracketError):
        _solve(_RootlessMoore(), "left", np.zeros(2), np.array([0.0, 5.0]))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda am: limit_trajectory(0.0, 0.3, 0.0, 0.7), GeometryError,
         r"^degenerate cavity: d0=0\.0, df=0\.39999999999999997$"),
        (lambda am: limit_trajectory(0.0, 0.7, 1.0, 0.7), GeometryError,
         r"^degenerate cavity: d0=1\.0, df=0\.0$"),
        (lambda am: critical_tau("contraction", 0.0, 0.3, 1.0, 0.3, 1.2, 1.2), ValueError,
         r"^need 0 < tau_lo < tau_hi, got \(1\.2, 1\.2\)$"),
        (lambda am: critical_tau("contraction", 0.0, 0.3, 1.0, 0.3, 1.2, 0.2), ValueError,
         r"^need 0 < tau_lo < tau_hi, got \(1\.2, 0\.2\)$"),
        (lambda am: build_effective(am, "middle", -1.0, 3.0), ValueError,
         r"^side must be 'left' or 'right', got 'middle'$"),
    ],
    ids=["limit_d0_zero", "limit_df_zero", "critical_equal_bracket", "critical_reversed_bracket",
         "effective_bad_side"],
)
def test_library_refusals_name_their_fault(contraction12, call, error, message):
    with pytest.raises(error, match=message):
        call(contraction12.am)


def test_limit_velocity_and_intercepts():
    lim_l, lim_r = limit_trajectory(0.0, 0.3, 1.0, 0.7)
    assert lim_l.v_lim == lim_r.v_lim
    assert lim_r.v_lim == pytest.approx(-3.0 / 7.0, abs=1e-12)
    assert lim_r.intercept == pytest.approx(11.0 / 14.0, abs=1e-12)
    assert lim_l.intercept == pytest.approx(3.0 / 14.0, abs=1e-12)
    # piecewise structure: constant, linear middle, constant
    assert lim_r(-5.0) == 1.0
    assert lim_r(5.0) == pytest.approx(0.7, abs=1e-12)
    t_mid = 0.0
    assert lim_r(t_mid) == pytest.approx(11.0 / 14.0, abs=1e-12)


def test_limit_velocity_zero_for_rigid_motion():
    lim_l, lim_r = limit_trajectory(0.0, 0.4, 1.0, 1.4)
    assert lim_r.v_lim == 0.0
    assert not np.signbit(lim_r.v_lim)


@pytest.mark.parametrize("geometry", [(0.0, 0.3, 1.0, 0.7), (0.0, 0.4, 1.0, 1.4)],
                         ids=["contraction", "rigid"])
def test_limit_scalar_call_is_the_one_element_array_call(geometry):
    """Before, on and after the middle piece, a scalar or 0-d argument
    gives a Python float equal to the one-element array call."""
    for lim in limit_trajectory(*geometry):
        on, off = lim.breakpoints
        for t in (on - 0.5, 0.5 * (on + off), off + 0.5):
            want = lim(np.array([t]))
            assert want.shape == (1,)
            for arg in (t, np.float64(t), np.array(t)):
                got = lim(arg)
                assert type(got) is float and got == want[0]


@pytest.mark.parametrize("s", [0.2, 0.4])
def test_rigid_shift_toward_minus_x_mirrors_the_plus_x_one(s):
    """In a rigid motion the left defining equation reads
    x = [L(t+x) + L(t-x)] / 2, odd under L -> -L: shifts by -s and +s have
    opposite left limit curves and opposite left effective curves."""
    t = np.linspace(-1.5, 3.0, 451)
    minus, plus = (limit_trajectory(0.0, d, 1.0, 1.0 + d)[0] for d in (-s, s))
    assert np.array_equal(minus(t), -plus(t))
    for tau in (0.05, 0.4, 1.2):
        curves = []
        for d in (-s, s):
            pair = TrajectoryPair(_reference_path(0.0, d, tau), _reference_path(1.0, 1.0 + d, tau))
            curves.append(build_effective(AdiabaticMoore.build(pair), "left", -1.5, 3.0))
        assert_allclose(curves[0](t), -curves[1](t), rtol=0.0, atol=1e-13)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="rigid limit curve holds s/2 on (s/2, s), where the fast left "
    "effective curve follows the light line x = t toward s",
)
def test_rigid_left_effective_curve_approaches_its_limit():
    """As tau -> 0 the effective curve should tend to the limit curve away
    from its breakpoints.  For a rigid +s shift the sup distance on
    (s/2 + 0.01, s) grows instead: 0.118 at tau = 0.05, 0.142 at 0.01."""
    s = 0.3
    lim = limit_trajectory(0.0, s, 1.0, 1.0 + s)[0]
    t = np.linspace(s / 2 + 0.01, s, 4001)
    dist = []
    for tau in (0.05, 0.01):
        pair = make_reference("rigid", L0=0.0, Lf=s, R0=1.0, eps=-s, tau=tau)
        eff = build_effective(AdiabaticMoore.build(pair), "left", *default_window(pair))
        dist.append(np.max(np.abs(eff(t) - lim(t))))
    assert dist[1] < dist[0]


def test_limit_continuity_criterion():
    # continuous exactly when Lf R0 = L0 Rf
    assert continuity_check(0.0, 0.0, 1.0, 0.7)
    assert not continuity_check(0.0, 0.3, 1.0, 0.7)
    assert not continuity_check(0.0, 0.4, 1.0, 1.4)


def test_critical_timescale_brackets_speed_crossing():
    tc = critical_tau("contraction", 0.0, 0.3, 1.0, 0.3, 0.8, 1.2, tol=1e-2)
    assert 0.9 < tc < 1.1


# -- the closed-form critical timescale ------------------------------------------

# (family, L0, Lf, R0, eps): tau_c
_TAU_C = {
    ("contraction", 0.0, 0.3, 1.0, 0.3): 1.0159397196071898,
    ("contraction", 0.1, 0.5, 1.2, 0.4): 2.2015970209621720,
    ("expansion", 0.0, -0.3, 1.0, -0.3): 0.5159233715710769,
    ("expansion", 0.0, -0.6, 1.0, -0.6): 0.8711364780787286,
    ("rigid", 0.0, 0.3, 1.0, -0.3): 0.65625,
    ("rigid", 0.0, 0.6, 1.0, -0.6): 1.3125,
}
# Lf R0 = L0 Rf, so K = 0: L = 0 throughout; a contraction that keeps L/R
# fixed; the same in decimal literals whose Lf R0 - L0 Rf is 1.4e-17 of
# roundoff.  (family, L0, Lf, R0, eps): |v_lim| = (d0 - df)/(d0 + df)
_CONTINUOUS = {
    ("contraction", 0.0, None, 1.0, 0.5): 1.0 / 3.0,
    ("contraction", 0.2, 0.1, 1.0, 0.5): 1.0 / 3.0,
    ("contraction", 0.1, 0.07, 1.7, 0.3): 3.0 / 17.0,
}


def _reference(geometry, tau):
    family, L0, Lf, R0, eps = geometry
    return make_reference(family, L0=L0, Lf=Lf, R0=R0, eps=eps, tau=tau)


def _max_effective_speed(geometry, tau):
    """Max speed of the two effective mirrors built on the default window."""
    pair = _reference(geometry, tau)
    am = AdiabaticMoore.build(pair)
    window = default_window(pair)
    return max(build_effective(am, side, *window).max_speed_sampled for side in ("left", "right"))


@pytest.mark.parametrize("geometry", list(_TAU_C))
def test_critical_tau_is_the_speed_crossing(geometry):
    """The closed form matches its table, and effective builds 0.1 % either
    side of it are superluminal below and subluminal above."""
    tc = critical_tau(*geometry, 0.2, 3.0)
    assert abs(tc - _TAU_C[geometry]) <= 1e-12
    assert _max_effective_speed(geometry, tc * (1.0 - 1e-3)) > 1.0
    assert _max_effective_speed(geometry, tc * (1.0 + 1e-3)) < 1.0


def test_critical_tau_builds_nothing(monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("critical_tau built a Moore pair or a trajectory")

    monkeypatch.setattr(sta, "build_effective", refuse)
    monkeypatch.setattr(AdiabaticMoore, "build", refuse)
    assert critical_tau(*next(iter(_TAU_C)), 0.2, 3.0) > 0.0


@pytest.mark.parametrize("geometry", list(_CONTINUOUS))
def test_continuous_limit_geometry_is_never_superluminal(geometry):
    """K = 0: every range is all physical, and even a fast protocol moves
    its effective mirrors no faster than the limit velocity."""
    for lo, hi in ((1e-300, 1e-299), (0.05, 1.2), (10.0, 1e300)):
        with pytest.raises(BracketError, match="all candidate tau physical"):
            critical_tau(*geometry, lo, hi)
    assert abs(_max_effective_speed(geometry, 0.05) - _CONTINUOUS[geometry]) <= 1e-9


@pytest.mark.parametrize("geometry", [*_TAU_C, *_CONTINUOUS])
def test_critical_tau_vanishes_exactly_with_continuous_limits(geometry):
    pair = _reference(geometry, 1.0)
    continuous = continuity_check(pair.L0, pair.Lf, pair.R0, pair.Rf)
    try:
        tc = critical_tau(*geometry, 1e-300, 1e300)
    except BracketError as exc:
        assert continuous and "all candidate tau physical" in str(exc)
    else:
        assert not continuous and tc > 0.0


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_critical_tau_rejects_tolerance_not_positive(tol, monkeypatch):
    """Checked before any work: make_reference is never reached."""
    monkeypatch.setattr(sta, "make_reference", None)
    with pytest.raises(ValueError, match="tol"):
        critical_tau(*next(iter(_TAU_C)), 0.2, 1.2, tol=tol)


def _polynomial_tau_c(family, L0, Lf, R0, eps):
    """critical_tau's closed form at `numpy.polynomial`'s roots of the
    numerator, with K = Lf R0 - L0 Rf exact in the pair's float edges (0
    where `continuity_check` holds) and delta'/D evaluated exactly in
    rational arithmetic at each candidate s."""
    p = make_reference(family, L0=L0, Lf=Lf, R0=R0, eps=eps, tau=1.0)
    Lf, R0, L0, Rf = (Fraction(float(x)) for x in (p.Lf, p.R0, p.L0, p.Rf))
    K = 0 if continuity_check(p.L0, p.Lf, p.R0, p.Rf) else Lf * R0 - L0 * Rf
    delta = np.polynomial.Polynomial(np.r_[0.0, 0.0, 0.0, 0.0, _STEP])
    d1, D = delta.deriv(), p.d0 + (p.df - p.d0) * delta
    roots = (d1.deriv() * D - (p.df - p.d0) * d1**2).roots().real
    d0, df = Fraction(p.d0), Fraction(p.df)
    coeffs = [(k, Fraction(c)) for k, c in enumerate(_STEP, 4)]

    def ratio(s):
        s = Fraction(float(s))
        step = sum(c * s**k for k, c in coeffs)
        slope = sum(k * c * s ** (k - 1) for k, c in coeffs)
        return slope / (d0 + (df - d0) * step)

    s = [0.0, 1.0, *roots[(roots > 0.0) & (roots < 1.0)]]
    return float(abs(K) * max(ratio(x) for x in s))


@st.composite
def tau_scaled_geometries(draw):
    """(family, L0, Lf, R0, eps) of a valid contraction, expansion or rigid
    shift; contractions keep Lf in [L0, Rf), so the cavity never grows."""
    family = draw(st.sampled_from(["contraction", "expansion", "rigid"]))
    R0 = draw(st.floats(0.2, 5.0))
    if family == "rigid":
        eps = -draw(st.floats(0.01, 2.0))
        return family, 0.0, -eps * R0, R0, eps
    L0 = draw(st.floats(-3.0, R0 - 0.05))
    if family == "expansion":
        eps = -draw(st.floats(0.01, 2.0))
        return family, L0, eps * R0, R0, eps
    eps = draw(st.floats(0.0, 0.9))
    Rf = R0 * (1.0 - eps)
    assume(Rf - L0 > 0.02)
    return family, L0, draw(st.floats(L0, Rf - 0.01)), R0, eps


@settings(max_examples=300, deadline=None)
@given(tau_scaled_geometries())
# K = Lf R0 - L0 Rf cancels here: rounding both products in floats left
# tau_c 4.6e-13 relative off
@example(("expansion", -1.657, -2.9570950000000003, 3.767, -0.785))
def test_critical_tau_matches_numpy_polynomial(geometry):
    """critical_tau is within 1e-14 relative of delta'/D evaluated exactly
    at numpy.polynomial's roots on every family; K = 0 gives none in either
    route."""
    want = _polynomial_tau_c(*geometry)
    if want == 0.0:
        with pytest.raises(BracketError, match="all candidate tau physical"):
            critical_tau(*geometry, 1e-300, 1e300)
    else:
        assert abs(critical_tau(*geometry, 1e-300, 1e300) - want) <= 1e-14 * want


# -- early-stopped builds ------------------------------------------------------

_README = dict(L0=0.0, Lf=0.3, R0=1.0, eps=0.3)  # the README contraction


@cache
def _readme_builds(tau):
    """Adiabatic Moore functions and, per mirror, its build on the default
    window and the times of each `_solve` call, for the README
    geometry."""
    pair = make_reference("contraction", tau=tau, **_README)
    am = AdiabaticMoore.build(pair)
    window = default_window(pair)
    builds = {}
    for side in ("left", "right"):
        solves = []

        def recording(am_, side_, times, *args):
            solves.append(times)
            return _solve(am_, side_, times, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sta, "_solve", recording)
            builds[side] = (build_effective(am, side, *window), solves)
    return am, builds


@pytest.mark.parametrize(
    "tau, superluminal",
    [(0.2, True), (0.7, True), (1.0125, True), (1.0164, False), (1.2, False)],
)
def test_early_stop_keeps_the_superluminal_verdict(tau, superluminal):
    """tau_c of this geometry is 1.01594: the two middle values sit on
    either side of it.  Each build's
    verdict, however early its refinement stopped, is that of the exact
    implicit slopes on a dense grid of solved samples."""
    am, builds = _readme_builds(tau)
    verdicts = []
    for side in ("left", "right"):
        eff = builds[side][0]
        t = np.linspace(eff.times[0], eff.times[-1], 4001)
        x = _solve(am, side, t, eff(t))
        slopes, _, _ = sta._implicit_jet(am, side, t, x)
        assert (eff.max_speed_sampled > 1.0) == (np.max(np.abs(slopes)) > 1.0)
        verdicts.append(eff.max_speed_sampled > 1.0)
    assert any(verdicts) == superluminal


@pytest.mark.parametrize("tau, solves", [(0.3, 1), (1.2, 2)])
def test_superluminal_build_stops_on_its_starting_grid(tau, solves):
    """A superluminal build returns the starting grid's interpolant after
    its one solve; a subluminal one still solves its verification round."""
    for side in ("left", "right"):
        eff, calls = _readme_builds(tau)[1][side]
        assert len(calls) == solves
        assert np.array_equal(eff.times, calls[0])


def test_early_stopped_curve_is_an_unrealizable_effective_trajectory():
    eff = _readme_builds(0.2)[1]["left"][0]
    assert isinstance(eff, EffectiveTrajectory)
    assert eff.realizable is False
    # the nodes are solved samples whichever round the build stopped in
    assert eff.residual_sup <= 1e-9


class _LuminalMoore(_StubMoore):
    """Stub with G(z) = z^3 and F(w) = w.  The left solution has speed
    (1 - 3u^2) / (1 + 3u^2) with u = t + x: at most 1, and exactly 1 at the
    node t = 0, where x = 0."""

    pair = SimpleNamespace(
        L0=0.0, Lf=0.0, R0=1.0, Rf=1.0, d0=1.0, motion_start=-1.0, motion_end=1.0,
        left=MirrorPath(np.array([0.0, 1.0]), np.zeros((1, 8))),
    )

    def G(self, z, order=0):
        z = np.asarray(z, dtype=float)
        return (z**3, 3.0 * z**2, 6.0 * z, np.full_like(z, 6.0))[order]

    def F(self, w, order=0):
        w = np.asarray(w, dtype=float)
        return (w, np.ones_like(w), np.zeros_like(w), np.zeros_like(w))[order]


def test_node_speed_of_exactly_one_does_not_stop_refinement():
    eff = build_effective(_LuminalMoore(), "left", -1.0, 1.0, step=0.25)
    assert len(eff.times) > 9  # refined beyond the starting grid
    assert eff.max_speed_sampled == 1.0


@pytest.mark.parametrize("side", ["left", "right"])
def test_unconverged_refinement_raises(contraction12, side):
    """A subluminal build whose last refinement round still misses its
    midpoint solves (step = tau) fails, naming the side, the miss and the
    tolerance, instead of returning the unrefined curve."""
    s = contraction12
    with pytest.raises(ConvergenceError, match=rf"effective {side} .* \(refine_tol 1e-08\)"):
        build_effective(s.am, side, *s.window, step=s.pair.tau)


def _build_by_argsort(am, side, t_lo, t_hi, step, refine_tol=1e-8):
    """build_effective's refinement loop with each round's refined
    midpoints merged by concatenation and an argsort of the times."""
    x0, xf = getattr(am.pair, side).edges
    on, off = am.pair.motion_start - abs(x0), am.pair.motion_end + abs(xf)
    times = sta._motion_nodes(t_lo, t_hi, max(2, int(np.ceil((t_hi - t_lo) / step))), on, off)
    positions = _solve(am, side, times, getattr(am.pair, side)(times))
    rounds = 0
    while True:
        slopes, curvatures, residual = sta._implicit_jet(am, side, times, positions)
        rows = sta._quintic_rows(times, positions, slopes, curvatures)
        eff = EffectiveTrajectory(times, rows, x0, xf, residual)
        mids = 0.5 * (times[:-1] + times[1:])
        predicted = eff(mids)
        solved = _solve(am, side, mids, predicted)
        bad = np.abs(predicted - solved) > refine_tol
        if not bad.any():
            return eff, rounds
        rounds += 1
        times = np.concatenate([times, mids[bad]])
        positions = np.concatenate([positions, solved[bad]])
        order = np.argsort(times)
        times, positions = times[order], positions[order]


@pytest.mark.parametrize("side", ["left", "right"])
def test_refined_nodes_merge_as_a_sort_would(contraction12, side):
    """A build that refines (README geometry, step tau/16: two rounds)
    inserts each refined midpoint after its interval's first node, which
    leaves the nodes and the interpolant bitwise those of sorting the
    concatenated nodes."""
    s = contraction12
    step = s.pair.tau / 16.0
    want, rounds = _build_by_argsort(s.am, side, *s.window, step)
    assert rounds == 2
    got = build_effective(s.am, side, *s.window, step=step)
    assert got.times.tobytes() == want.times.tobytes()
    assert got.table()[1].tobytes() == want.table()[1].tobytes()
    assert got.residual_sup == want.residual_sup


def _motion_window(pair, side):
    """[on, off] of one side: before on, and after off, both Moore arguments
    t +- x of the side's edge value x lie outside the reference motion."""
    x0, xf = getattr(pair, side).edges
    return pair.motion_start - abs(x0), pair.motion_end + abs(xf)


def _assert_solves_to_edge(am, side, t, edge):
    ref = getattr(am.pair, side)
    x = _solve(am, side, t, ref(t))
    assert np.max(np.abs(x - edge)) <= 1e-14 * max(1.0, abs(edge))


@pytest.mark.parametrize("scenario", ["contraction12", "contraction40"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_effective_build_drops_only_static_nodes(request, scenario, side):
    """The build keeps the default grid's nodes across [on, off], bitwise;
    the nodes it drops would solve to the reference edge values."""
    s = request.getfixturevalue(scenario)
    pair, (lo, hi) = s.pair, s.window
    times = getattr(s.eff_pair, side).times
    on, off = _motion_window(pair, side)
    assert times[0] <= on < times[1]
    assert times[-2] < off <= times[-1]
    grid = np.linspace(lo, hi, int(np.ceil((hi - lo) / (pair.tau / 512.0))) + 1)
    kept = (grid >= times[0]) & (grid <= times[-1])
    assert np.isin(grid[kept], times).all()
    edges = getattr(pair, side).edges
    for dropped, edge in zip((grid < times[0], grid > times[-1]), edges):
        assert dropped.any()
        _assert_solves_to_edge(s.am, side, grid[dropped], edge)


@settings(max_examples=40, deadline=None)
@given(flat_c3_tables(), flat_c3_tables(), st.sampled_from(["left", "right"]), st.data())
def test_effective_edges_exact_on_staggered_custom_motion(left, right, side, data):
    """Custom mirrors that start and stop moving at different times: outside
    [on, off] the defining equation solves to the edge values, and a build
    on any window spans [on, off] with nodes of that window's grid."""
    pair = TrajectoryPair(
        MirrorPath(*_mirror_table(left, 0.0)), MirrorPath(*_mirror_table(right, 1.0))
    )
    am = AdiabaticMoore.build(pair, 512)
    on, off = _motion_window(pair, side)
    gaps = st.lists(st.floats(0.0, 3.0), min_size=1, max_size=8)
    edges = getattr(pair, side).edges
    _assert_solves_to_edge(am, side, on - np.array(data.draw(gaps)), edges[0])
    _assert_solves_to_edge(am, side, off + np.array(data.draw(gaps)), edges[1])

    t_lo = data.draw(st.floats(on - 3.0, off + 3.0))
    t_hi = t_lo + data.draw(st.floats(0.1, 4.0))
    times = build_effective(am, side, t_lo, t_hi, step=0.05).times
    # the end knots are the grid nodes next to on and off, outside them
    # (up to rounding in the node arithmetic); refinement may add midpoints
    # of the end segments, so times[1] and times[-2] need not be grid nodes
    h = (t_hi - t_lo) / max(2, int(np.ceil((t_hi - t_lo) / 0.05)))
    slack = 1e-9 * h
    assert times[0] <= on < times[0] + h + slack
    assert times[-1] - h - slack < off <= times[-1]
    k = (times[[0, -1]] - t_lo) / h
    assert_allclose(k, np.round(k), atol=1e-6)


def test_critical_timescale_needs_a_crossing():
    # tau_c = 1.016 lies below the first range and above the second
    with pytest.raises(CavstaError, match="all candidate tau physical"):
        critical_tau("contraction", 0.0, 0.3, 1.0, 0.3, 5.0, 9.0)
    with pytest.raises(CavstaError, match="no candidate tau physical"):
        critical_tau("contraction", 0.0, 0.3, 1.0, 0.3, 0.2, 0.9)


def test_effective_pair_presents_trajectory_protocol(contraction12):
    eff = contraction12.eff_pair
    assert eff.L0 == pytest.approx(0.0, abs=1e-10)
    assert eff.R0 == pytest.approx(1.0, abs=1e-10)
    assert eff.d0 == pytest.approx(1.0, abs=1e-10)
    assert eff.df == pytest.approx(0.4, abs=1e-10)
    # the effective cavity squeezes tighter than the reference mid-protocol
    assert 0.0 < eff.gap_min() <= 0.4 + 1e-9
    t = np.linspace(*contraction12.window, 50)
    assert np.all(eff.gap(t) > 0.0)


def test_effective_pair_timescale_is_its_motion_window(contraction12):
    """An effective pair's tau is the length of its motion window, which
    outlasts the reference protocol, and the default window and effective
    step follow that window."""
    eff = contraction12.eff_pair
    start, end = eff.motion_start, eff.motion_end
    assert eff.tau == end - start > 1.2
    x0, xf = max(abs(eff.L0), abs(eff.R0)), max(abs(eff.Lf), abs(eff.Rf))
    assert default_window(eff) == (start - (x0 + eff.tau), end + max(3 * eff.df, xf + eff.df))
    am = AdiabaticMoore.build(eff)
    lo, hi = contraction12.window
    curve = build_effective(am, "left", lo, hi)
    explicit = build_effective(am, "left", lo, hi, step=eff.tau / 512)
    assert np.array_equal(curve.times, explicit.times)
    assert curve.realizable and curve.residual_sup < 1e-9


def test_default_window_starts_before_the_effective_motion():
    """A cavity at x < 0: the left effective mirror starts moving at
    -|L0| = -2, before the reference motion, and the default window starts
    one tau earlier, not at -(R0 + tau) = 0.1 after the motion began."""
    pair = make_reference("contraction", L0=-2.0, Lf=-1.7, R0=-1.0, eps=0.3, tau=0.9)
    lo, hi = default_window(pair)
    assert (lo, hi) == pytest.approx((-2.9, 3.9), abs=1e-12)
    left = build_effective(AdiabaticMoore.build(pair), "left", lo, hi)
    assert lo < left.motion_start <= -2.0


def test_effective_gap_min_is_exact(contraction12):
    eff = contraction12.eff_pair
    lo, hi = contraction12.window
    dense = eff.gap(np.linspace(lo, hi, 10_000))
    gmin = eff.gap_min()
    assert gmin <= dense.min()
    # the minimum sits inside the window, at a candidate of the merged table
    breaks, rows = _merged_gap_coeffs(eff.left.table(), eff.right.table())
    ts, vals = piecewise_extremes(breaks, rows)
    i = int(np.argmin(vals))
    assert gmin == vals[i] < min(eff.d0, eff.df)
    assert abs(eff.gap(ts[i]) - gmin) <= 1e-12
