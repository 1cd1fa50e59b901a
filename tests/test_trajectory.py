"""Mirror path tables and the reference protocol families."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cavsta.errors import ContinuityError, GeometryError
from cavsta.trajectory import MirrorPath, PiecewisePath, TrajectoryPair, make_reference

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
    with pytest.raises(GeometryError, match="contraction must not grow the cavity"):
        make_reference("contraction", L0=0.0, Lf=0.0, R0=1.0, eps=-0.3, tau=1.0)
    with pytest.raises(GeometryError, match=r"^expansion requires Lf = eps\*R0 = -0\.3, got 0\.1$"):
        make_reference("expansion", L0=0.0, Lf=0.1, R0=1.0, eps=-0.3, tau=1.0)
    with pytest.raises(GeometryError, match=r"^expansion requires eps < 0, got 0\.2$"):
        make_reference("expansion", eps=0.2, tau=1.0)
    with pytest.raises(GeometryError, match=r"^rigid motion requires L0 = 0$"):
        make_reference("rigid", L0=0.1, eps=-0.3, tau=1.0)
    with pytest.raises(GeometryError, match=r"^rigid motion requires Lf = -eps\*R0 = 0\.3, got 0\.7$"):
        make_reference("rigid", Lf=0.7, eps=-0.3, tau=1.0)
    with pytest.raises(GeometryError, match="unknown family 'spinning'"):
        make_reference("spinning", tau=1.0)
    with pytest.raises(GeometryError, match="tau must be positive, got -1.0"):
        make_reference("contraction", tau=-1.0)
    with pytest.raises(GeometryError, match="need R0 > L0, got R0=0.5, L0=1.0"):
        make_reference("contraction", L0=1.0, R0=0.5, tau=1.0)


@pytest.mark.parametrize(
    "family, kw, message",
    [
        ("rigid", dict(eps=0.2), r"^rigid motion requires eps < 0, got 0\.2$"),
        ("rigid", dict(eps=0.0), r"^rigid motion requires eps < 0, got 0\.0$"),
        ("custom", {}, r"^custom family takes explicit MirrorPaths; build a TrajectoryPair directly$"),
        ("contraction", dict(Lf=0.8, eps=0.3), r"^final geometry collapses: Rf=0\.7, Lf=0\.8$"),
    ],
    ids=["rigid_positive_eps", "rigid_zero_eps", "custom", "final_collapse"],
)
def test_reference_refusals_name_their_fault(family, kw, message):
    with pytest.raises(GeometryError, match=message):
        make_reference(family, tau=1.0, **kw)


def test_outward_families_default_to_their_pinned_final_left_position():
    """Without Lf, expansion ends its left mirror at eps*R0 and rigid
    motion at -eps*R0, the values an explicit Lf must match."""
    for family, L0, pinned in (("expansion", 0.5, -0.3 * 2.0), ("rigid", 0.0, 0.3 * 2.0)):
        pair = make_reference(family, L0=L0, R0=2.0, eps=-0.3, tau=1.0)
        assert (pair.L0, pair.Lf, pair.R0, pair.Rf) == (L0, pinned, 2.0, 2.0 * 1.3)
        assert pair.left(1.0) == pinned
        explicit = make_reference(family, L0=L0, Lf=pinned, R0=2.0, eps=-0.3, tau=1.0)
        assert explicit.left.table()[1].tobytes() == pair.left.table()[1].tobytes()
    # rigid motion keeps the cavity length
    assert make_reference("rigid", R0=2.0, eps=-0.3, tau=1.0).df == pytest.approx(2.0)


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
    with pytest.raises(GeometryError, match="path needs at least one segment"):
        MirrorPath(np.array([0.0]), np.zeros((1, 8)))
    with pytest.raises(GeometryError, match="segment boundaries must strictly increase"):
        MirrorPath(np.array([0.0, 0.0]), np.zeros((1, 8)))
    with pytest.raises(GeometryError, match="2 coefficient rows for 1 segments"):
        MirrorPath(np.array([0.0, 1.0]), np.zeros((2, 8)))
    with pytest.raises(GeometryError, match="non-finite path data"):
        MirrorPath(np.array([0.0, 1.0]), np.full((1, 8), np.nan))
    for width in (0, 9):
        with pytest.raises(GeometryError, match=f"need 1 to 8 coefficients per row, got {width}"):
            MirrorPath(np.array([0.0, 1.0]), np.zeros((1, width)))


def test_narrow_rows_are_evaluated_as_given():
    """A table narrower than 8 coefficients gives the bytes of its
    zero-padded twin, for every order, inside and outside its knots."""
    rng = np.random.default_rng(7)
    knots, t = np.array([0.0, 0.5, 1.5]), np.linspace(-0.5, 2.0, 51)
    for width in range(1, 8):
        rows = rng.uniform(-1.0, 1.0, (2, width))
        padded = np.hstack([rows, np.zeros((2, 8 - width))])
        narrow, wide = (PiecewisePath(knots, r, 0.1, 0.2) for r in (rows, padded))
        assert narrow.max_speed() == wide.max_speed()
        for got, want in zip(narrow.jet(t), wide.jet(t)):
            assert got.tobytes() == want.tobytes()


def test_crossing_mirrors_rejected():
    rowL = np.zeros((1, 8))
    rowL[0, 0] = 0.9
    rowR = np.zeros((1, 8))
    rowR[0, 0] = 0.1
    left = MirrorPath(np.array([0.0, 1.0]), rowL)
    right = MirrorPath(np.array([0.0, 1.0]), rowR)
    with pytest.raises(GeometryError):
        TrajectoryPair(left, right)
