"""Exact Moore functions from backward characteristic tracing."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cavsta.energy import eval_mode
from cavsta.errors import SuperluminalError
from cavsta.moore_exact import ExactMoore, mirror_residuals
from cavsta.sta import EffectiveTrajectory
from cavsta.trajectory import MirrorPath, TrajectoryPair, make_reference

from util import drop_near, fd_jets, one_hop_kink_args, split_path


def test_static_cavity_moore_is_identity(static_unit):
    """For a motionless unit cavity G(z) = z and F(w) = w for all arguments:
    every round trip advances the phase by exactly the period."""
    _, moore = static_unit
    z = np.linspace(-3.0, 7.0, 101)
    assert_allclose(moore.solve_G(z)[0], z, atol=1e-12)
    assert_allclose(moore.solve_F(z)[0], z, atol=1e-12)
    # derivatives of the identity
    assert_allclose(moore.solve_G(z)[1], 1.0, atol=1e-12)
    assert_allclose(moore.solve_G(z)[2], 0.0, atol=1e-10)


def test_functional_equations_hold(contraction12):
    s = contraction12
    t = s.times(400)
    res_l, res_r = s.exact_ref.residuals(t)
    assert res_l < 1e-12
    assert res_r < 1e-12


def test_diagnostics_trace_to_first_order_only(contraction12, monkeypatch):
    """`residuals`, `trace_depth` and `eval_mode` read only map values and
    bounce counts, so no path jet they ask for goes above order 1, an exact
    solver's lowest; their results are the bits of order-3 traces."""
    s = contraction12
    t = s.times(60)
    want = {}
    for moore, pair in ((s.exact_ref, s.pair), (s.exact_eff, s.eff_pair)):
        L, R = pair.left(t), pair.right(t)
        x = np.linspace(pair.left(0.6), pair.right(0.6), 9)
        G = moore.solve_G(np.concatenate([t + L, t + R]))[0]
        F = moore.solve_F(np.concatenate([t - L, t - R]))[0]
        G_x, F_x = moore.solve_G(0.6 + x)[0], moore.solve_F(0.6 - x)[0]
        psi = 1j / np.sqrt(12.0 * np.pi) * (np.exp(-3j * np.pi * G_x) - np.exp(-3j * np.pi * F_x))
        want[moore] = (
            mirror_residuals(*np.split(G, 2), *np.split(F, 2)),
            [moore._trace(t, which) for which in ("G", "F")],
            (x, psi),
        )
    orders = []
    for cls in (MirrorPath, EffectiveTrajectory):  # each binds its own jet

        def counting(self, t, order=3, jet=cls.jet):
            orders.append(order)
            return jet(self, t, order)

        monkeypatch.setattr(cls, "jet", counting)
    for moore, (residual, traces, (x, psi)) in want.items():
        assert moore.residuals(t) == residual
        for which, (full, n) in zip(("G", "F"), traces):
            depth, arg = moore.trace_depth(t, which)
            assert np.array_equal(depth, n) and np.array_equal(arg, full[0])
        assert np.array_equal(eval_mode(moore, 3, x, 0.6), psi)
    assert orders and max(orders) == 1


def test_map_inversion_round_trip(contraction12):
    s = contraction12
    moore = s.exact_ref
    z = np.linspace(-1.0, 3.0, 57)
    t_adv, _ = moore._invert("right", 1.0, z, 0)
    assert_allclose(t_adv + s.pair.right(t_adv), z, atol=1e-12)
    t_ret, _ = moore._invert("left", -1.0, z, 0)
    assert_allclose(t_ret - s.pair.left(t_ret), z, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.0, 0.4),
    st.floats(0.0, 0.3),
    st.floats(1.5, 20.0),
    st.sampled_from(["left", "right"]),
    st.data(),
)
def test_map_inversion_round_trip_on_random_protocols(eps, Lf, tau, mirror, data):
    """Subluminal contractions (speeds <= 35/16 * 0.4/1.5 < 0.6): both map
    inverses land on their target, inside and outside the motion window."""
    pair = make_reference("contraction", L0=0.0, Lf=Lf, R0=1.0, eps=eps, tau=tau)
    moore = ExactMoore(pair)
    path = getattr(pair, mirror)
    target = st.one_of(st.floats(-2.0, tau + 2.0), st.floats(-1e3, 1e3))
    z = np.array(data.draw(st.lists(target, min_size=1, max_size=16)))
    tol = 1e-12 * np.maximum(1.0, np.abs(z))
    t, _ = moore._invert(mirror, 1.0, z, 0)
    assert np.all(np.abs(t + path(t) - z) <= tol)
    t, _ = moore._invert(mirror, -1.0, z, 0)
    assert np.all(np.abs(t - path(t) - z) <= tol)
    t, _ = moore._invert(mirror, 1.0, float(z[0]), 0)
    assert t.shape == (1,) and abs(t[0] + path(t[0]) - z[0]) <= tol[0]


def test_pre_motion_inversion_is_exact_shift(contraction12):
    moore = contraction12.exact_ref
    # for targets mapping before motion onset the inverse is target - R0
    z = np.array([-2.0, -0.5, 0.3])
    t, _ = moore._invert("right", 1.0, z, 0)
    assert_allclose(t, z - 1.0, atol=1e-13)


def test_trace_depth_counts_round_trips(static_unit):
    _, moore = static_unit
    # unit cavity period 2: argument 2n + r traces back n bounces
    for z, want in ((0.5, 0), (2.3, 1), (4.9, 2), (6.1, 3)):
        n, arg = moore.trace_depth(z)
        assert n == want
        assert arg == pytest.approx(z - 2 * want, abs=1e-12)


def test_trace_depth_monotone(contraction12):
    moore = contraction12.exact_ref
    n, _ = moore.trace_depth(np.array([0.5, 1.5, 2.5, 4.0, 6.0]))
    assert np.all(np.diff(n) >= 0)
    assert n[0] == 0 and n[-1] >= 3


def test_derivatives_match_finite_differences(contraction12):
    moore = contraction12.exact_ref
    zk, _ = moore.kink_args(-1.6, 3.3)
    z = drop_near(np.linspace(-1.5, 3.2, 121), zk, 5e-3)
    jet = moore.G_jet(z)
    d1, d2, _ = fd_jets(lambda x: moore.G_jet(x)[0], z, 5e-4)
    assert_allclose(jet[1], d1, rtol=0, atol=1e-7)
    assert_allclose(jet[2], d2, rtol=0, atol=1e-5 * max(1.0, np.max(np.abs(jet[2]))))


def test_superluminal_pair_refused():
    pair = make_reference("contraction", L0=0.0, Lf=0.3, R0=1.0, eps=0.3, tau=0.2)
    assert pair.left.max_speed() > 1.0
    with pytest.raises(SuperluminalError):
        ExactMoore(pair)


def test_kink_arguments_descend_from_breaks(contraction12):
    s = contraction12
    moore = s.exact_ref
    z_k, w_k = moore.kink_args(-3.0, 5.0)
    # seeds: left breaks through t - L(t), right breaks through t + R(t)
    for b in (0.0, 1.2):
        assert np.min(np.abs(w_k - (b - s.pair.left(b)))) < 1e-12
        assert np.min(np.abs(z_k - (b + s.pair.right(b)))) < 1e-12
    # everything returned lies inside the requested window
    assert np.all((z_k > -3.0) & (z_k < 5.0))
    assert np.all((w_k > -3.0) & (w_k < 5.0))
    # later generations keep arriving roughly one period apart
    assert z_k.size >= 4 and w_k.size >= 4


def test_effective_pair_accepted(contraction12):
    """The exact solver must run on interpolated (effective) trajectories."""
    s = contraction12
    t = s.times(300)
    res_l, res_r = s.exact_eff.residuals(t)
    assert max(res_l, res_r) < 1e-12


def test_effective_traces_stop_where_the_reference_traces_do(contraction40):
    """The effective pair's motion starts about one light-crossing before the
    reference pair's, not at the window start, so its backward walks reach
    the static closed form within a bounce or two of the reference's."""
    s = contraction40
    t = s.times(400)
    for which in ("G", "F"):
        ref = s.exact_ref.trace_depth(t, which)[0].max()
        eff = s.exact_eff.trace_depth(t, which)[0].max()
        assert eff <= ref + 2


def test_lower_order_jets_are_the_leading_orders(contraction40):
    """A jet to order 1 or 2 is bitwise the leading entries of the full
    jet, on both pairs, for arguments from before the motion to many
    bounces deep; orders outside 1..3 are refused."""
    s = contraction40
    z = np.concatenate([s.times(200), [-50.0, 0.0, 100.0]])
    for moore in (s.exact_ref, s.exact_eff):
        for which in ("G", "F"):
            solve = getattr(moore, f"solve_{which}")
            full = solve(z)
            for order in (1, 2):
                got = solve(z, order)
                assert len(got) == order + 1
                for g, w in zip(got, full):
                    assert g.tobytes() == w.tobytes()
            for order in (0, 4):
                with pytest.raises(ValueError, match="order must be in 1..3"):
                    solve(z, order)


def test_scalar_interface(contraction12):
    moore = contraction12.exact_ref
    out = moore.solve_G(0.37)
    assert all(isinstance(v, float) for v in out)


def test_jets_keep_the_argument_shape(contraction12):
    """On a (2, 2) argument the effective pair's exact jets have the shape of
    the adiabatic ones (the same functions, by the STA identity), and each is
    the flat call reshaped, bitwise; so are the trace depths.  An empty
    argument gives empty arrays of its shape."""
    s = contraction12
    z = np.array([[0.3, 1.1], [2.6, 4.0]])
    for which in ("G", "F"):
        exact = getattr(s.exact_eff, f"{which}_jet")(z)
        adiabatic = getattr(s.am, f"{which}_jet")(z)
        assert [v.shape for v in exact] == [v.shape for v in adiabatic] == [z.shape] * 4
        flat = getattr(s.exact_eff, f"{which}_jet")(z.ravel())
        for got, want in zip(exact, flat):
            assert np.array_equal(got, want.reshape(z.shape))
        depth = s.exact_eff.trace_depth(z, which)
        for got, want in zip(depth, s.exact_eff.trace_depth(z.ravel(), which)):
            assert got.shape == z.shape and np.array_equal(got, want.reshape(z.shape))
    n, arg = s.exact_eff.trace_depth(0.37)
    assert isinstance(n, int) and isinstance(arg, float)
    assert [v.shape for v in s.exact_eff.solve_G(np.empty(0))] == [(0,)] * 4
    assert [v.shape for v in s.exact_eff.trace_depth(np.empty((0, 3)))] == [(0, 3)] * 2


def test_residuals_batch_is_bitwise_unbatched(contraction12):
    """residuals traces each map once over both mirrors' arguments; every
    element's trace is independent of the batch, so values are unchanged."""
    s = contraction12
    t = s.times(300)
    for moore, pair in ((s.exact_ref, s.pair), (s.exact_eff, s.eff_pair)):
        L, R = pair.left(t), pair.right(t)
        g_l, g_r = moore.solve_G(t + L)[0], moore.solve_G(t + R)[0]
        f_l, f_r = moore.solve_F(t - L)[0], moore.solve_F(t - R)[0]
        g = moore.solve_G(np.concatenate([t + L, t + R]))[0]
        assert np.array_equal(g, np.concatenate([g_l, g_r]))
        want = (float(np.max(np.abs(g_l - f_l))), float(np.max(np.abs(g_r - f_r - 2.0))))
        assert moore.residuals(t) == want


def test_one_path_lookup_per_inversion(contraction12, monkeypatch):
    """Each map inversion reads the path once, for the residual check and
    the jet the trace needs; the Newton loop runs on the map's own table."""
    moore = contraction12.exact_ref
    counts = {"lookups": 0, "inversions": 0}

    def counting(cls, name, key):
        orig = getattr(cls, name)

        def wrapped(*args, **kw):
            counts[key] += 1
            return orig(*args, **kw)

        monkeypatch.setattr(cls, name, wrapped)

    counting(MirrorPath, "jet", "lookups")
    counting(MirrorPath, "__call__", "lookups")
    counting(ExactMoore, "_invert", "inversions")
    z = np.linspace(-1.0, 6.0, 97)
    for solve in (moore.solve_G, moore.solve_F):
        counts.update(lookups=0, inversions=0)
        solve(z)
        assert counts["inversions"] > 0
        assert counts["lookups"] == counts["inversions"]


_CUTS = np.array([0.25, 0.6, 0.61, 1.0])
_REF = make_reference("contraction", L0=0.0, Lf=0.3, R0=1.0, eps=0.3, tau=1.2)
_SPLIT = ExactMoore(
    TrajectoryPair(split_path(_REF.left, _CUTS), split_path(_REF.right, _CUTS))
)


@st.composite
def map_targets(draw, images):
    """Targets of one map: exactly on a boundary image, inside the table's
    span of images, or far outside it; a scalar or an array."""
    lo, hi = float(images[0]), float(images[-1])
    one = st.one_of(
        st.sampled_from([float(v) for v in images]),
        st.floats(lo, hi),
        st.floats(-1e3, lo),
        st.floats(hi, 1e3),
    )
    if draw(st.booleans()):
        return draw(one)
    return np.array(draw(st.lists(one, min_size=1, max_size=16)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_inversion_round_trips_on_multi_segment_tables(contraction12, data):
    """Effective paths (quintic segments by the thousand) and a five-segment
    re-expansion of a reference path: every target inverts to the round-trip
    bound, the returned jet is the path's own jet at the root, and an
    order-0 request returns the same roots and positions."""
    assert len(contraction12.eff_pair.right.table()[0]) > 1000
    for moore in (contraction12.exact_eff, _SPLIT):
        mirror = data.draw(st.sampled_from(["left", "right"]))
        sign = data.draw(st.sampled_from([1.0, -1.0]))
        path = getattr(moore.pair, mirror)
        breaks = path.table()[0]
        z = data.draw(map_targets(breaks + sign * path(breaks)))
        t, jet = moore._invert(mirror, sign, z)
        tol = 1e-12 * np.maximum(1.0, np.abs(z))
        assert np.all(np.abs(t + sign * path(t) - z) <= tol)
        want = path.jet(t)
        assert len(jet) == 4 and all(np.array_equal(j, w) for j, w in zip(jet, want))
        t0, (x0,) = moore._invert(mirror, sign, z, 0)
        assert np.array_equal(t0, t) and np.array_equal(x0, jet[0])


def test_kink_walk_hops_twice_per_round(contraction12, contraction40, monkeypatch):
    """Two hops per round give the one-hop walk's kinks bit for bit, on a
    five-segment table, an effective pair and the tau = 40 pairs, in half
    the map inversions."""
    calls = []
    invert = ExactMoore._invert

    def counting(self, *args, **kw):
        calls.append(1)
        return invert(self, *args, **kw)

    monkeypatch.setattr(ExactMoore, "_invert", counting)
    lo40, hi40 = contraction40.window
    for moore, lo, hi in (
        (_SPLIT, -3.0, 8.0),
        (contraction12.exact_eff, *contraction12.window),
        (contraction40.exact_ref, lo40 - 2.0, hi40 + 2.0),
        (contraction40.exact_eff, lo40 - 2.0, hi40 + 2.0),
    ):
        calls.clear()
        got = moore.kink_args(lo, hi)
        two_hop = len(calls)
        calls.clear()
        want = one_hop_kink_args(moore, lo, hi)
        assert want[0].size and want[1].size
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert two_hop <= len(calls) // 2 + 1


def test_onset_boundary_rays_are_static(contraction12, contraction40):
    """At the onset images start + R(start) (G) and start - L(start) (F),
    and one ulp below them, the backward ray is static: no bounce, and the
    solve is the static closed form (arg + sgn*L0)/d0 bit for bit."""
    for s in (contraction12, contraction40):
        for moore in (s.exact_ref, s.exact_eff):
            pair = moore.pair
            start = pair.motion_start
            for which, image, sgn in (
                ("G", start + float(pair.right(start)), -1.0),
                ("F", start - float(pair.left(start)), 1.0),
            ):
                for arg in (image, np.nextafter(image, -np.inf)):
                    assert moore.trace_depth(arg, which) == (0, arg)
                    want = ((arg + sgn * pair.L0) / pair.d0, 1.0 / pair.d0, 0.0, 0.0)
                    assert moore._solve(arg, which) == want


class _Understated:
    """A path that reports a subluminal top speed it does not have."""

    def __init__(self, path):
        self._path = path

    def __call__(self, t, order=0):
        return self._path(t, order)

    def __getattr__(self, name):
        return getattr(self._path, name)

    def max_speed(self):
        return 0.5


def test_non_increasing_boundary_images_refused():
    """t - L(t) decreases across a left segment that outruns light, so the
    map table refuses the path even when its reported speed is subluminal."""
    fast = make_reference("contraction", L0=0.0, Lf=0.3, R0=1.0, eps=0.3, tau=0.2)
    pair = SimpleNamespace(left=_Understated(fast.left), right=_Understated(fast.right))
    with pytest.raises(SuperluminalError, match="boundaries"):
        ExactMoore(pair)
