"""First-order (adiabatic) Moore functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cavsta.moore_adiabatic import AdiabaticMoore, adiabatic_residual, mirror_jets
from cavsta.trajectory import make_reference

from test_tables import _same, _some, arguments
from util import drop_near, fd_jets


def test_static_branch_is_linear(contraction12):
    am = contraction12.am
    z = np.linspace(-2.0, 0.0, 21)
    # before motion L=0, R=1: both functions reduce to z/d0 (+- anchoring)
    assert_allclose(am.G(z), z, atol=1e-15)
    assert_allclose(am.F(z), z, atol=1e-15)


def test_post_motion_branch_is_linear(contraction12):
    am = contraction12.am
    pair = contraction12.pair
    z = np.linspace(1.2, 3.0, 13)
    slope = np.diff(am.G(z)) / np.diff(z)
    assert_allclose(slope, 1.0 / pair.df, rtol=1e-12)


def test_difference_encodes_boundary_conditions(contraction12):
    """G_ad - F_ad = 1 - (R+L)/(R-L) must hold exactly at every argument."""
    am = contraction12.am
    pair = contraction12.pair
    z = np.linspace(-1.5, 2.5, 301)
    q = (pair.right(z) + pair.left(z)) / (pair.right(z) - pair.left(z))
    assert_allclose(am.G(z) - am.F(z), 1.0 - q, atol=1e-13)


def test_residual_decays_quadratically():
    taus = [8.0, 16.0, 32.0]
    res = []
    for tau in taus:
        pair = make_reference("contraction", L0=0.0, Lf=0.3, R0=1.0, eps=0.3, tau=tau)
        am = AdiabaticMoore.build(pair)
        t = np.linspace(-1.0, tau + 1.0, 500)
        res.append(max(adiabatic_residual(am, t)))
    assert res[0] / res[1] == pytest.approx(4.0, rel=0.25)
    assert res[1] / res[2] == pytest.approx(4.0, rel=0.25)


def test_jets_match_finite_differences(contraction12):
    am = contraction12.am
    z = drop_near(np.linspace(-0.5, 1.7, 91), [0.0, 1.2], 5e-3)
    jet = am.G_jet(z)
    d1, d2, _ = fd_jets(lambda x: am.G(x), z, 5e-4)
    assert_allclose(jet[1], d1, rtol=0, atol=1e-8)
    assert_allclose(jet[2], d2, rtol=0, atol=1e-5)
    _, _, d3 = fd_jets(lambda x: am.G(x), z, 5e-4)
    scale = np.max(np.abs(jet[3]))
    assert_allclose(jet[3], d3, rtol=0, atol=1e-4 * max(1.0, scale))


def test_advance_integral_continuous_at_window_edges(contraction12):
    am = contraction12.am
    for edge in (0.0, 1.2):
        below = am.advance(edge - 1e-9)
        above = am.advance(edge + 1e-9)
        assert abs(above - below) < 1e-7


def test_scalar_and_vector_forms(contraction12):
    am = contraction12.am
    z = np.array([-0.3, 0.4, 1.5])
    vec = am.G(z)
    for zi, vi in zip(z, vec):
        assert am.G(float(zi)) == pytest.approx(vi, rel=0, abs=0)
    assert isinstance(am.G(0.4), float)


def test_invalid_requests_rejected(contraction12):
    am = contraction12.am
    with pytest.raises(ValueError):
        am.jet("H", 0.0)
    with pytest.raises(ValueError):
        am.G(0.0, order=4)
    for order in (-1, 4):
        with pytest.raises(ValueError):
            am.jet("F", 0.0, order)
    # "GF" splits its arguments in two halves
    with pytest.raises(ValueError):
        am.jet("GF", np.zeros(3))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mirror_jets_are_the_single_map_jets(contraction12, data):
    """One "GF" pass gives G_ad at t + x and F_ad at t - x bit for bit, and
    `adiabatic_residual`, read off such a pass, is the four-call formula."""
    am = contraction12.am
    t = np.atleast_1d(data.draw(arguments(_some(am._nodes))))
    offsets = st.one_of(st.just(0.0), st.floats(-1.0, 2.0))
    x = np.array(data.draw(st.lists(offsets, min_size=t.size, max_size=t.size)))
    for k in range(4):
        g, f = mirror_jets(am, t, x, k)
        assert _same(g, am.jet("G", t + x, k))
        assert _same(f, am.jet("F", t - x, k))
    G, F = (lambda z: am.jet("G", z, 0)[0]), (lambda w: am.jet("F", w, 0)[0])
    L, R = am.pair.left(t), am.pair.right(t)
    res_l = np.max(np.abs(G(t + L) - F(t - L)))
    res_r = np.max(np.abs(G(t + R) - F(t - R) - 2.0))
    assert adiabatic_residual(am, t) == (float(res_l), float(res_r))
