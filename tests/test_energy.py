"""Renormalized energy density, cavity energy, and adiabaticity."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import simpson

from cavsta.energy import (
    _connected_parts,
    _map_parts,
    ThermalState,
    adiabatic_energy,
    density,
    energy_record,
    eval_mode,
    thermal_Z,
    total_energy,
)
from cavsta.errors import DensityError
from cavsta.moore_adiabatic import AdiabaticMoore
from cavsta.moore_exact import ExactMoore
from cavsta.sta import EffectiveTrajectory, build_effective, default_window
from cavsta.trajectory import MirrorPath, TrajectoryPair, _reference_path, make_reference


def test_thermal_sum_basics():
    assert thermal_Z(0.0) == 0.0
    x = np.array([0.3, 0.7, 1.1, 2.0, 4.0])
    z = np.array([thermal_Z(v) for v in x])
    assert np.all(np.diff(z) > 0)
    assert np.all(z > 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ThermalState(-1.0, 1.0), r"^temperature must be nonnegative, got -1\.0$"),
        (lambda: ThermalState(0.0, 0.0), r"^initial length must be positive, got 0\.0$"),
        (lambda: ThermalState(1.0, -2.0), r"^initial length must be positive, got -2\.0$"),
        (lambda: thermal_Z(-0.5), r"^thermal argument must be finite and nonnegative, got -0\.5$"),
        (lambda: thermal_Z(math.inf), r"^thermal argument must be finite and nonnegative, got inf$"),
        (lambda: thermal_Z(1e200), r"^thermal sum overflows the float range at argument 1e\+200$"),
    ],
    ids=["negative_T", "zero_d0", "negative_d0", "negative_Z_argument", "infinite_Z_argument",
         "overflowing_Z"],
)
def test_thermal_refusals_name_their_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_thermal_sum_closed_form_at_half():
    # sum n pi / (e^{2 pi n} - 1) = pi/24 - 1/8, a classical Lambert-series value
    assert thermal_Z(0.5) == pytest.approx(np.pi / 24.0 - 0.125, abs=1e-15)


def test_thermal_sum_high_temperature_limit():
    # Z(x) -> pi x^2 / 6 - x/2 + ... for large x
    x = 50.0
    assert thermal_Z(x) == pytest.approx(np.pi * x * x / 6.0 - x / 2.0, rel=1e-3)


@pytest.mark.parametrize("x", [2e4, 1e6, 3e153, 7e153])
def test_thermal_sum_far_above_one_is_the_closed_form(x):
    """Far above x = 1 the dual series' tail is below double precision, so
    Z is pi x^2/6 - x/2 + pi/24; the direct sum stopped converging near
    x = 1.07e4.  Past x = 3.8e153 the tail's factor 4 pi x^2 overflows,
    which once made Z NaN."""
    assert thermal_Z(x) == pytest.approx(np.pi * x * x / 6.0 - x / 2.0 + np.pi / 24.0, rel=1e-14)


@pytest.mark.parametrize(
    "x, Z", [(1e-3, 0.0), (5.0, 10.720869083857048), (60.0, 1855.0864918477755)]
)
def test_thermal_sum_keeps_its_bits(x, Z):
    """The overflow guards leave Z bit for bit where it was finite, with
    the dual-series tail in use (x = 5) and vanished (x = 60).  At x = 1e-3
    the direct sum's e^{pi/x} overflows, once with a RuntimeWarning."""
    assert thermal_Z(x) == Z


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1e308))
def test_thermal_sum_is_never_nan(x):
    """Every finite argument gives a finite Z or a ValueError, never NaN."""
    try:
        Z = thermal_Z(x)
    except ValueError as exc:
        assert str(exc).startswith("thermal sum overflows")
    else:
        assert math.isfinite(Z)


def test_thermal_sum_is_continuous_across_its_series_switch():
    """x = 1 keeps the direct sum's value, bit for bit; the dual series
    just above it agrees."""
    assert thermal_Z(1.0) == 0.15445464580288432
    assert thermal_Z(np.nextafter(1.0, 2.0)) == pytest.approx(thermal_Z(1.0), rel=1e-15)


def test_kinetic_weight_combines_vacuum_and_thermal():
    st = ThermalState(0.5, 1.0)
    assert st.kinetic_weight == pytest.approx(-0.125, abs=1e-15)
    cold = ThermalState(0.0, 1.0)
    assert cold.kinetic_weight == pytest.approx(-np.pi / 24.0, abs=1e-16)


def test_static_density_uniform(static_unit):
    pair, moore = static_unit
    st = ThermalState(1.0, pair.d0)
    x = np.linspace(0.0, 1.0, 41)
    d = density(moore, x, 0.8, st)
    assert_allclose(d, st.kinetic_weight / pair.d0 ** 2, rtol=1e-12)


def test_static_energy_closed_form(static_unit):
    pair, moore = static_unit
    for T in (0.0, 1.0, 5.0):
        st = ThermalState(T, pair.d0)
        E = total_energy(moore, pair, 0.37, st)
        assert E == pytest.approx(st.kinetic_weight / pair.d0, rel=1e-12, abs=1e-15)


def test_density_positions_validated(contraction12):
    s = contraction12
    st = ThermalState(0.0, 1.0)
    with pytest.raises(DensityError):
        density(s.exact_ref, -0.5, 0.5, st)
    with pytest.raises(DensityError):
        density(s.exact_ref, 1.2, 0.5, st)


def test_vacuum_energy_rises_during_contraction(contraction12):
    s = contraction12
    st = ThermalState(0.0, 1.0)
    E0 = total_energy(s.exact_ref, s.pair, -1.5, st)
    E_final = total_energy(s.exact_ref, s.pair, 2.4, st)
    # the cavity shrinks to df = 0.4, so |Casimir energy| grows
    assert E_final < E0 < 0.0


def test_quadrature_insensitive_to_base_resolution(contraction12):
    s = contraction12
    st = ThermalState(1.0, 1.0)
    coarse = total_energy(s.exact_ref, s.pair, 0.9, st, points=501)
    fine = total_energy(s.exact_ref, s.pair, 0.9, st, points=4001)
    assert coarse == pytest.approx(fine, rel=1e-9)


def test_adiabatic_energy_scales_inversely_with_length():
    st = ThermalState(0.0, 1.0)
    assert adiabatic_energy(0.5, st) == pytest.approx(2.0 * adiabatic_energy(1.0, st))
    with pytest.raises(ValueError):
        adiabatic_energy(0.0, st)
    with pytest.raises(ValueError):
        adiabatic_energy(-1.0, st)


def test_mode_validation(static_unit):
    _, moore = static_unit
    with pytest.raises(ValueError):
        eval_mode(moore, 0, 0.5, 0.0)
    with pytest.raises(ValueError):
        eval_mode(moore, 1.5, 0.5, 0.0)


def test_static_modes_are_standing_waves(static_unit):
    pair, moore = static_unit
    x = np.linspace(0.0, 1.0, 21)
    psi = eval_mode(moore, 1, x, 0.3)
    # |psi_1| = sin(pi x)/sqrt(pi) for the unit cavity
    assert_allclose(np.abs(psi), np.abs(np.sin(np.pi * x)) / np.sqrt(np.pi), atol=1e-12)


def test_energy_record_layout(contraction12):
    s = contraction12
    times = np.linspace(-0.5, 2.0, 7)
    states = [ThermalState(T, 1.0) for T in (0.0, 1.0)]
    ref = energy_record(times, states, s.exact_ref, s.pair)
    eff = energy_record(times, states, s.exact_eff, s.eff_pair)
    assert ref.E.shape == (2, 7)
    assert eff.Q.shape == (2, 7)
    assert np.all(np.isfinite(ref.E))
    assert np.all(np.isfinite(eff.Q))
    # pre-motion samples are exactly adiabatic
    assert ref.Q[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_energy_record_handles_missing_solver(contraction12):
    s = contraction12
    times = np.linspace(-0.5, 1.0, 4)
    states = [ThermalState(0.0, 1.0)]
    rec = energy_record(times, states, None, s.pair, at=times)
    for value in (rec.E, rec.Q, rec.F, rec.G, rec.residual):
        assert np.all(np.isnan(value))
    assert rec.F.shape == rec.G.shape == times.shape
    assert np.all(np.isfinite(rec.E_ad))


@pytest.mark.parametrize("run", ["reference", "effective"])
def test_energy_record_moore_samples_are_the_solvers(contraction12, run):
    """F and G at `at`, traced in the energy batch, are bitwise the exact
    solver's own values, and the residuals read off the cavity-end nodes
    are bitwise `ExactMoore.residuals` over the same times."""
    s = contraction12
    moore = s.exact_ref if run == "reference" else s.exact_eff
    times = s.times(65)
    rec = energy_record(times, [ThermalState(0.0, 1.0)], moore, moore.pair, at=times)
    assert np.array_equal(rec.F, moore.solve_F(times)[0])
    assert np.array_equal(rec.G, moore.solve_G(times)[0])
    assert rec.residual == moore.residuals(times)


@pytest.mark.parametrize("scenario", ["contraction12", "contraction40"])
def test_one_kink_search_per_exact_moore(request, scenario, monkeypatch):
    """The energy record asks each exact Moore pair for its kinks once, over
    both maps' arguments; a window's kinks are a wider window's, filtered."""
    s = request.getfixturevalue(scenario)
    calls = []
    kink_args = ExactMoore.kink_args

    def counting_kink_args(self, lo, hi):
        calls.append(self)
        return kink_args(self, lo, hi)

    monkeypatch.setattr(ExactMoore, "kink_args", counting_kink_args)
    moore_ref, moore_eff = ExactMoore(s.pair), ExactMoore(s.eff_pair)
    states = [ThermalState(0.0, 1.0)]
    for moore in (moore_ref, moore_eff):
        energy_record(s.times(40), states, moore, moore.pair, points=201)
    assert len(calls) == 2
    assert calls[0] is moore_ref and calls[1] is moore_eff
    lo, hi = s.window
    for moore in (moore_ref, moore_eff):
        wide = kink_args(moore, lo - 5.0, hi + 20.0)
        assert wide[0].size and wide[1].size
        for a, b in ((lo, hi), (lo - 1.0, hi + 1.0), (0.0, 0.5 * hi)):
            for k, all_k in zip(kink_args(moore, a, b), wide):
                assert np.array_equal(k, all_k[(all_k > a) & (all_k < b)])


def test_energy_record_independent_of_discretization(contraction12):
    s = contraction12
    times = s.times(65)
    states = [ThermalState(T, 1.0) for T in (0.0, 1.0)]
    for moore, pair in ((s.exact_ref, s.pair), (s.exact_eff, s.eff_pair)):
        base = energy_record(times, states, moore, pair, points=2001)
        fine = energy_record(times, states, moore, pair, points=4002)
        assert np.all(np.abs(base.E - fine.E) <= 1e-7 * np.abs(base.E_ad))


# known defect: at tau = 1.2 the default effective step (tau/512) is too
# coarse for this bound; halving it moves E_eff mid-protocol by 4.9e-9
# (T = 0) and 2.7e-8 (T = 1) of E_ad, whatever the advance-integral panel
# count.  Below that, the 8192-panel advance table sets a floor near 2e-8.
_STEP_FLOOR = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="E_eff moves 2.7e-8 |E_ad| (T = 1) under step halving at tau = 1.2"
)


@pytest.mark.parametrize("tau", (pytest.param(1.2, marks=_STEP_FLOOR), 40.0))
def test_effective_energy_independent_of_effective_discretization(tau):
    """E_eff does not depend on how finely the effective trajectories are
    sampled: half the step and a tenfold tighter refinement tolerance move
    it by at most 1e-8 of the adiabatic energy (contraction12 geometry, and
    the same contraction at tau = 40)."""
    pair = make_reference("contraction", L0=0.0, Lf=0.3, R0=1.0, eps=0.3, tau=tau)
    am = AdiabaticMoore.build(pair)
    lo, hi = default_window(pair)
    times = np.linspace(lo, hi, 33)
    states = [ThermalState(T, pair.d0) for T in (0.0, 1.0)]
    records = []
    for step, refine_tol in ((tau / 512.0, 1e-8), (tau / 1024.0, 1e-9)):
        eff = TrajectoryPair(
            *(build_effective(am, side, lo, hi, step, refine_tol) for side in ("left", "right"))
        )
        records.append(energy_record(times, states, ExactMoore(eff), eff))
    base, fine = records
    assert np.all(np.abs(base.E - fine.E) <= 1e-8 * np.abs(base.E_ad))


def _reference_record(pair, times):
    """The energy record of the pair's own exact run at T = 0 and 1."""
    states = [ThermalState(T, pair.d0) for T in (0.0, 1.0)]
    return energy_record(times, states, ExactMoore(pair), pair)


def _negated(path):
    knots, rows, before, after = path.table()
    return MirrorPath(knots, -rows, edges=(-before, -after))


_FRAME_CASES = {  # family, Lf, eps, tau; L0 = 0, R0 = 1
    "contraction": ("contraction", 0.3, 0.3, 1.2),
    "expansion": ("expansion", -0.3, -0.3, 1.2),
    "rigid": ("rigid", 0.3, -0.3, 1.2),
    "contraction40": ("contraction", 0.3, 0.3, 40.0),
}


@pytest.mark.parametrize("case", _FRAME_CASES)
def test_reference_energy_is_invariant_under_reflection(case):
    """Moore's equations are covariant under x -> -x: the mirror image of a
    pair, L' = -R and R' = -L, has the same default window and bitwise the
    same E_ref and Q_ref.  The image's cavity lies at x < 0, where the F
    arguments t - L rise above t + R, and every kink there must be a node."""
    family, Lf, eps, tau = _FRAME_CASES[case]
    pair = make_reference(family, Lf=Lf, eps=eps, tau=tau)
    image = TrajectoryPair(_negated(pair.right), _negated(pair.left))
    window = default_window(pair)
    assert default_window(image) == window
    times = np.linspace(*window, 200)
    want, got = _reference_record(pair, times), _reference_record(image, times)
    assert np.array_equal(got.E, want.E)
    assert np.array_equal(got.Q, want.Q)


@pytest.mark.parametrize("case", _FRAME_CASES)
def test_effective_curves_are_mirror_images(case):
    """The image pair's effective curves are the mirror images of the
    pair's: its left curve is -(right curve) and its right curve -(left
    curve), on bitwise the same knots, to 1e-12 in position on the default
    window and in max speed, with the same realizability."""
    family, Lf, eps, tau = _FRAME_CASES[case]
    pair = make_reference(family, Lf=Lf, eps=eps, tau=tau)
    image = TrajectoryPair(_negated(pair.right), _negated(pair.left))
    window = default_window(pair)
    left, right, image_left, image_right = (
        build_effective(AdiabaticMoore.build(p), side, *window)
        for p in (pair, image)
        for side in ("left", "right")
    )
    t = np.linspace(*window, 4001)
    for got, want in ((image_left, right), (image_right, left)):
        assert got.times.tobytes() == want.times.tobytes()
        assert np.max(np.abs(got(t) + want(t))) <= 1e-12
        assert abs(got.max_speed_sampled - want.max_speed_sampled) <= 1e-12
        assert got.realizable == want.realizable


@pytest.mark.parametrize("family", ["contraction", "rigid"])
@pytest.mark.parametrize("shift", [-2.0, -0.5, 3.0])
def test_reference_energy_is_invariant_under_translation(family, shift):
    """The reference field does not depend on where x = 0 is: a pair moved
    by `shift`, on the same sample times, has the same E_ref to 1e-12 of
    E_ad.  A shift of -2 puts the cavity at x < 0."""
    _, Lf, eps, tau = _FRAME_CASES[family]
    pair = make_reference(family, Lf=Lf, eps=eps, tau=tau)
    moved = TrajectoryPair(
        *(_reference_path(*(x + shift for x in path.edges), tau) for path in (pair.left, pair.right))
    )
    times = np.linspace(*default_window(pair), 200)
    want, got = _reference_record(pair, times), _reference_record(moved, times)
    assert np.all(np.abs(got.E - want.E) <= 1e-12 * np.abs(want.E_ad))


def test_total_energy_matches_density_quadrature(contraction12):
    """The integration-by-parts primitives against plain Simpson of the
    pointwise density (the h''' form) across the cavity."""
    s = contraction12
    for T in (0.0, 1.0):
        st = ThermalState(T, 1.0)
        for t in (0.3, 0.6, 0.9, 2.0):
            x = np.linspace(s.pair.left(t), s.pair.right(t), 20001)
            want = simpson(density(s.exact_ref, x, t, st), x=x)
            assert total_energy(s.exact_ref, s.pair, t, st) == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("T", [0.0, 1.0, 5.0])
@pytest.mark.parametrize("side", ["ref", "eff"])
def test_total_energy_is_the_one_sample_energy_record(contraction12, side, T):
    """`total_energy` builds no energy of its own: before, inside and after
    the motion it is bit for bit the one-sample, one-state record."""
    s = contraction12
    pair, moore = (s.pair, s.exact_ref) if side == "ref" else (s.eff_pair, s.exact_eff)
    st = ThermalState(T, pair.d0)
    start, end = pair.motion_start, pair.motion_end
    for t in (start - 0.4, start + 0.3 * (end - start), 0.5 * (start + end), end + 0.4):
        rec = energy_record(np.array([t]), [st], moore, pair)
        assert total_energy(moore, pair, t, st) == rec.E[0, 0]


def _disjoint_samples(s):
    """42 times a step of 2 apart across the tau = 40 window: every cavity
    is shorter than 1, so no two sample cavities meet."""
    return np.linspace(*s.window, 42)


def _cavities(pair, times, which):
    """The arguments [lo, hi] one map integrates over at each time."""
    L, R = pair.left(times), pair.right(times)
    return (times + L, times + R) if which == "G" else (times - R, times - L)


def test_energy_traces_only_sample_cavities(contraction40, monkeypatch):
    """With disjoint cavities, every argument the energy record traces lies
    in some sample cavity of its map or is a Moore sample at the times, and
    there are under 60 % as many as a full grid's nodes and midpoints."""
    s = contraction40
    times = _disjoint_samples(s)
    points = 2001
    traced = []
    for which in ("G", "F"):
        solve = getattr(ExactMoore, f"solve_{which}")

        def recording(self, args, order=3, which=which, solve=solve):
            traced.append((self, which, np.asarray(args)))
            return solve(self, args, order)

        monkeypatch.setattr(ExactMoore, f"{which}_jet", recording)
    states = [ThermalState(0.0, 1.0)]
    energy_record(times, states, s.exact_ref, s.pair, points, at=times)
    energy_record(times, states, s.exact_eff, s.eff_pair, points)
    assert len(traced) == 4
    for moore, which, args in traced:
        if moore is s.exact_ref:  # the reference run's Moore samples ride last
            assert np.array_equal(args[-times.size :], times)
            args = args[: -times.size]
        lo, hi = _cavities(moore.pair, times, which)
        in_cavity = (args[:, None] >= lo) & (args[:, None] <= hi)
        assert np.all(in_cavity.any(axis=1))
        assert args.size < 0.6 * (2 * points + 1)


def test_cavity_integrals_sum_only_their_own_panels(contraction40):
    """Each sample's kinetic and anomaly integrals equal math.fsum of the
    Simpson increments of the panels inside its own cavity: a cumulative
    primitive running across earlier cavities would carry their rounding."""
    s = contraction40
    times = _disjoint_samples(s)
    for moore in (s.exact_ref, s.exact_eff):
        z_kinks, w_kinks = moore.kink_args(-50.0, 50.0)
        for which, kinks in (("G", z_kinks), ("F", w_kinks)):
            seen = {}

            def recording(x, order=3, jet=getattr(moore, f"{which}_jet")):
                seen["x"], seen["jet"] = x, jet(x, order)
                return seen["jet"]

            lo, hi = _cavities(moore.pair, times, which)
            kinks = kinks[(kinks > lo[0]) & (kinks < hi[-1])]
            d0 = moore.pair.d0
            anom, kin, _ = _map_parts(recording, kinks, lo, hi, 2001, np.empty(0), d0)
            x = seen["x"]
            h1, h2 = (dict(zip(x, h)) for h in seen["jet"][1:3])
            for j in range(times.size):
                # inside one cavity the traced arguments alternate between
                # nodes and the midpoints of the panels they bound
                xs = np.sort(x[(x >= lo[j]) & (x <= hi[j])])
                nodes, mids = xs[0::2], xs[1::2]
                assert nodes[0] == lo[j] and nodes[-1] == hi[j]
                assert np.array_equal(mids, 0.5 * (nodes[:-1] + nodes[1:]))
                width = np.diff(nodes) / 6.0

                def increments(g):
                    return width * (g(nodes[:-1]) + 4.0 * g(mids) + g(nodes[1:]))

                def kinetic(v):
                    return np.array([h1[a] for a in v]) ** 2

                def ratio(v):
                    return np.array([h2[a] / h1[a] for a in v])

                want_kin = 0.5 * math.fsum(increments(kinetic))
                assert abs(kin[j] - want_kin) <= 1e-15 * abs(want_kin)
                dr = ratio(nodes[-1:])[0] - ratio(nodes[:1])[0]
                rr = 0.5 * math.fsum(increments(lambda v: ratio(v) ** 2))
                want_anom = -(dr - rr) / (24.0 * np.pi)
                scale = (abs(dr) + rr) / (24.0 * np.pi)
                assert abs(anom[j] - want_anom) <= 1e-15 * scale


def _stub_moore(zero_lo, zero_hi):
    """Moore maps with G' = 0 on [zero_lo, zero_hi] and 1 elsewhere, F' = 1,
    no higher derivatives and no kinks."""

    def jet(x, zero, order):
        h1 = np.where((x >= zero[0]) & (x <= zero[1]), 0.0, 1.0)
        return (x, h1, np.zeros_like(x), np.zeros_like(x))[: order + 1]

    return SimpleNamespace(
        G_jet=lambda z, order=3: jet(z, (zero_lo, zero_hi), order),
        F_jet=lambda w, order=3: jet(w, (np.inf, -np.inf), order),
        kink_args=lambda lo, hi: (np.empty(0), np.empty(0)),
    )


def test_density_guard_sees_every_integrated_argument(contraction40):
    """A vanishing Moore derivative inside a sample cavity is refused; one in
    the gap between two disjoint cavities, where nothing is integrated, is
    never traced.  The first two G cavities are [-41, -40] and about
    [-39, -38]."""
    s = contraction40
    times = _disjoint_samples(s)
    lo, hi = _cavities(s.pair, times, "G")
    assert hi[0] == -40.0 and -39.1 < lo[1] < -38.9
    states = [ThermalState(0.0, 1.0)]
    with pytest.raises(DensityError):
        energy_record(times, states, _stub_moore(-40.6, -40.4), s.pair)
    rec = energy_record(times, states, _stub_moore(-39.6, -39.4), s.pair)
    assert np.all(np.isfinite(rec.E))


def _parts_by_argsort(lo, hi):
    """Connected parts from the intervals sorted by start (stable) and the
    running max of their ends."""
    order = np.argsort(lo, kind="stable")
    starts, ends = lo[order], np.maximum.accumulate(hi[order])
    first = np.concatenate([[True], starts[1:] > ends[:-1]])
    last = np.concatenate([first[1:], [True]])
    return starts[first], ends[last]


# quarter-integer ends in a narrow range draw ties, nested intervals and
# intervals that touch, without -0.0
_intervals = st.lists(
    st.tuples(st.integers(-12, 12), st.integers(0, 8)), min_size=1, max_size=30
)


@settings(max_examples=300, deadline=None)
@given(_intervals)
def test_connected_parts_are_the_running_max_ones(intervals):
    """Sorting the starts and the ends on their own gives bitwise the parts
    of the stable argsort by start and the running max of the ends."""
    lo = np.array([a for a, _ in intervals], dtype=float) / 4.0
    hi = lo + np.array([w for _, w in intervals], dtype=float) / 4.0
    got, want = _connected_parts(lo, hi), _parts_by_argsort(lo, hi)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_energy_record_asks_no_path_for_third_order(contraction40, monkeypatch):
    """The energy record needs h' and h'' only: its traces ask the mirror
    paths of both pairs for jets to second order at most."""
    orders = []
    for cls in (MirrorPath, EffectiveTrajectory):
        jet = cls.__dict__["jet"]

        def recording(self, t, order=3, jet=jet):
            orders.append(order)
            return jet(self, t, order)

        monkeypatch.setattr(cls, "jet", recording)
    s = contraction40
    times = s.times(40)
    states = [ThermalState(0.0, 1.0)]
    energy_record(times, states, s.exact_ref, s.pair, at=times)
    energy_record(times, states, s.exact_eff, s.eff_pair)
    assert 2 in orders and max(orders) == 2
