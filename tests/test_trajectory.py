"""Mirror path tables and the reference protocol families."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cavsta.errors import ContinuityError, GeometryError
from cavsta.trajectory import MirrorPath, TrajectoryPair, make_reference

from util import fd_jets, path_range


# a left mirror moved from 0 to 1 in unit time is the step delta itself
DELTA = make_reference("contraction", L0=0.0, Lf=1.0, R0=2.0, eps=0.0, tau=1.0).left


def test_smoothstep_endpoints_and_flat_jets():
    for x, want in ((0.0, 0.0), (1.0, 1.0), (0.5, 0.5)):
        assert DELTA(x) == pytest.approx(want, abs=1e-15)
    # constant extension needs three vanishing derivatives at both ends
    for order in (1, 2, 3):
        assert DELTA(0.0, order) == 0.0
        assert DELTA(1.0, order) == 0.0


def test_smoothstep_symmetry_and_peak_slope():
    x = np.linspace(0.0, 1.0, 101)
    assert_allclose(DELTA(x) + DELTA(1.0 - x), 1.0, atol=1e-14)
    # slope 140 x^3 (1-x)^3 peaks at the midpoint with value 35/16
    assert DELTA(0.5, 1) == pytest.approx(35.0 / 16.0, abs=1e-14)
    assert np.max(DELTA(x, 1)) <= 35.0 / 16.0 + 1e-12


def test_smoothstep_derivatives_match_fd():
    x = np.linspace(0.05, 0.95, 37)
    d1, d2, _ = fd_jets(DELTA, x, 1e-4)
    assert_allclose(DELTA(x, 1), d1, atol=1e-9)
    assert_allclose(DELTA(x, 2), d2, atol=1e-5)
    # third differences amplify roundoff as h^-3, so step up h
    _, _, d3 = fd_jets(DELTA, x, 2e-3)
    assert_allclose(DELTA(x, 3), d3, atol=5e-2)


def test_reference_contraction_endpoints_exact():
    pair = make_reference("contraction", L0=0.0, Lf=0.3, R0=1.0, eps=0.3, tau=1.2)
    # the constant extensions are pinned, not re-evaluated from coefficients
    assert pair.Lf == 0.3
    assert pair.Rf == 0.7
    assert pair.left(5.0) == 0.3
    assert pair.right(-5.0) == 1.0
    assert pair.d0 == 1.0
    assert pair.df == pytest.approx(0.4, abs=1e-15)


def test_reference_speed_is_scaled_step_slope():
    pair = make_reference("contraction", L0=0.0, Lf=0.3, R0=1.0, eps=0.3, tau=1.2)
    want = 0.3 * (35.0 / 16.0) / 1.2
    assert pair.left.max_speed() == pytest.approx(want, rel=1e-12)
    assert pair.right.max_speed() == pytest.approx(want, rel=1e-12)


def test_reference_gap_minimum_at_final_length():
    pair = make_reference("contraction", L0=0.0, Lf=0.3, R0=1.0, eps=0.3, tau=1.2)
    # both mirrors close in together, so the gap decreases monotonically
    assert pair.gap_min() == pytest.approx(0.4, rel=1e-12)


def test_path_bounds_cover_motion():
    pair = make_reference("contraction", L0=0.0, Lf=0.3, R0=1.0, eps=0.3, tau=1.2)
    for path, (lo, hi) in ((pair.left, (0.0, 0.3)), (pair.right, (0.7, 1.0))):
        blo, bhi = path_range(path)
        # bounds must cover the true range; a few ulps of slack are fine
        assert blo <= lo + 1e-12 and bhi >= hi - 1e-12
        assert blo == pytest.approx(lo, abs=1e-12)
        assert bhi == pytest.approx(hi, abs=1e-12)


def test_path_jet_matches_call_orders():
    pair = make_reference("expansion", L0=0.0, Lf=-0.25, R0=1.0, eps=-0.25, tau=0.9)
    t = np.linspace(-0.3, 1.2, 57)
    jet = pair.right.jet(t)
    for k in range(4):
        assert_allclose(jet[k], pair.right(t, k), rtol=0, atol=0)


def test_path_orders_outside_0_to_3_rejected():
    path = make_reference("contraction", L0=0.0, Lf=0.3, R0=1.0, eps=0.3, tau=1.2).left
    for order in (-1, 4):
        with pytest.raises(ValueError):
            path(0.5, order)
        with pytest.raises(ValueError):
            path.jet(0.5, order)


def test_path_derivatives_vanish_outside_motion():
    pair = make_reference("contraction", L0=0.0, Lf=0.3, R0=1.0, eps=0.3, tau=1.2)
    for order in (1, 2, 3):
        assert pair.left(-0.1, order) == 0.0
        assert pair.left(1.3, order) == 0.0


def test_scalar_and_vector_evaluation_agree():
    pair = make_reference("contraction", L0=0.0, Lf=0.3, R0=1.0, eps=0.3, tau=1.2)
    t = np.array([-1.0, 0.3, 0.6, 2.0])
    vec = pair.left(t)
    for ti, vi in zip(t, vec):
        assert pair.left(float(ti)) == vi
    assert isinstance(pair.left(0.3), float)


def test_family_constraints_rejected():
    with pytest.raises(GeometryError):
        make_reference("contraction", L0=0.0, Lf=0.0, R0=1.0, eps=-0.3, tau=1.0)
    with pytest.raises(GeometryError):
        make_reference("expansion", L0=0.0, Lf=0.1, R0=1.0, eps=-0.3, tau=1.0)
    with pytest.raises(GeometryError):
        make_reference("expansion", eps=0.2, tau=1.0)
    with pytest.raises(GeometryError):
        make_reference("rigid", L0=0.1, eps=-0.3, tau=1.0)
    with pytest.raises(GeometryError):
        make_reference("rigid", Lf=0.7, eps=-0.3, tau=1.0)
    with pytest.raises(GeometryError):
        make_reference("spinning", tau=1.0)
    with pytest.raises(GeometryError):
        make_reference("contraction", tau=-1.0)
    with pytest.raises(GeometryError):
        make_reference("contraction", L0=1.0, R0=0.5, tau=1.0)


def test_discontinuous_table_rejected():
    breaks = np.array([0.0, 1.0, 2.0])
    coeffs = np.zeros((2, 8))
    coeffs[1, 0] = 0.5  # value jumps at t=1
    with pytest.raises(ContinuityError):
        MirrorPath(breaks, coeffs)


def test_nonflat_entry_rejected():
    # a linear ramp cannot join the constant extension smoothly
    breaks = np.array([0.0, 1.0])
    coeffs = np.zeros((1, 8))
    coeffs[0, 1] = 1.0
    with pytest.raises(ContinuityError):
        MirrorPath(breaks, coeffs)


def test_edge_pin_must_match_polynomial():
    breaks = np.array([0.0, 1.0])
    coeffs = np.zeros((1, 8))
    coeffs[0, 0] = 0.2
    with pytest.raises(ContinuityError):
        MirrorPath(breaks, coeffs, edges=(0.2, 0.7))
    path = MirrorPath(breaks, coeffs, edges=(0.2, 0.2))
    assert path.edges == (0.2, 0.2)


def test_bad_tables_rejected():
    with pytest.raises(GeometryError):
        MirrorPath(np.array([0.0]), np.zeros((1, 8)))
    with pytest.raises(GeometryError):
        MirrorPath(np.array([0.0, 0.0]), np.zeros((1, 8)))
    with pytest.raises(GeometryError):
        MirrorPath(np.array([0.0, 1.0]), np.zeros((2, 8)))
    with pytest.raises(GeometryError):
        MirrorPath(np.array([0.0, 1.0]), np.full((1, 8), np.nan))


def test_crossing_mirrors_rejected():
    rowL = np.zeros((1, 8))
    rowL[0, 0] = 0.9
    rowR = np.zeros((1, 8))
    rowR[0, 0] = 0.1
    left = MirrorPath(np.array([0.0, 1.0]), rowL)
    right = MirrorPath(np.array([0.0, 1.0]), rowR)
    with pytest.raises(GeometryError):
        TrajectoryPair(left, right, 1.0)
