"""Exact Moore functions from backward characteristic tracing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cavsta.errors import SuperluminalError
from cavsta.moore_exact import ExactMoore
from cavsta.trajectory import make_reference

from util import drop_near, fd_jets


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


def test_map_inversion_round_trip(contraction12):
    s = contraction12
    moore = s.exact_ref
    z = np.linspace(-1.0, 3.0, 57)
    t_adv = moore.invert_advanced("right", z)
    assert_allclose(t_adv + s.pair.right(t_adv), z, atol=1e-12)
    t_ret = moore.invert_retarded("left", z)
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
    t = moore.invert_advanced(mirror, z)
    assert np.all(np.abs(t + path(t) - z) <= tol)
    t = moore.invert_retarded(mirror, z)
    assert np.all(np.abs(t - path(t) - z) <= tol)
    t = moore.invert_advanced(mirror, float(z[0]))
    assert isinstance(t, float) and abs(t + path(t) - z[0]) <= tol[0]


def test_pre_motion_inversion_is_exact_shift(contraction12):
    moore = contraction12.exact_ref
    # for targets mapping before motion onset the inverse is target - R0
    z = np.array([-2.0, -0.5, 0.3])
    assert_allclose(moore.invert_advanced("right", z), z - 1.0, atol=1e-13)


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


def test_scalar_interface(contraction12):
    moore = contraction12.exact_ref
    out = moore.solve_G(0.37)
    assert all(isinstance(v, float) for v in out)
