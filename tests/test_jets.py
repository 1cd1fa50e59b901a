"""Derivative-jet algebra: composition, inversion, quotients.

Oracles are elementary functions whose derivatives are known in closed
form, so every rule is checked against hand-differentiated expressions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cavsta.jets import compose, divide, inverse_derivs, reciprocal


def exp_jet(z):
    e = np.exp(z)
    return (e, e, e, e)


def sin_jet(z):
    return (np.sin(z), np.cos(z), -np.sin(z), -np.cos(z))


def cube_jet(z):
    return (z ** 3, 3.0 * z ** 2, 6.0 * z, 6.0 * np.ones_like(z))


def test_compose_exp_of_sine():
    z = np.linspace(-1.0, 2.0, 41)
    g = sin_jet(z)
    jet = compose(exp_jet(g[0]), g)
    # d/dz e^{sin z} = cos z e^{sin z}, etc.
    e = np.exp(np.sin(z))
    c, s = np.cos(z), np.sin(z)
    assert_allclose(jet[0], e, rtol=1e-14)
    assert_allclose(jet[1], c * e, rtol=1e-13)
    assert_allclose(jet[2], (c * c - s) * e, rtol=0, atol=1e-12)
    assert_allclose(jet[3], (c ** 3 - 3.0 * s * c - c) * e, rtol=0, atol=1e-12)


def test_compose_with_identity_is_identity():
    z = np.linspace(0.2, 1.4, 11)
    ident = (z, np.ones_like(z), np.zeros_like(z), np.zeros_like(z))
    jet = compose(cube_jet(z), ident)
    for a, b in zip(jet, cube_jet(z)):
        assert_allclose(a, b, rtol=0, atol=0)


def test_inverse_derivs_of_exp_give_log_jets():
    t = np.linspace(0.1, 1.5, 23)
    y = np.exp(t)
    i1, i2, i3 = inverse_derivs(y, y, y)
    # t(y) = log y: derivatives 1/y, -1/y^2, 2/y^3
    assert_allclose(i1, 1.0 / y, rtol=1e-14)
    assert_allclose(i2, -1.0 / y ** 2, rtol=1e-13)
    assert_allclose(i3, 2.0 / y ** 3, rtol=1e-13)


def test_inverse_then_compose_is_identity():
    t = np.linspace(0.3, 2.0, 17)
    m = (np.sinh(t), np.cosh(t), np.sinh(t), np.cosh(t))
    inv = inverse_derivs(m[1], m[2], m[3])
    jet = compose(m, (t, inv[0], inv[1], inv[2]))
    assert_allclose(jet[1], 1.0, rtol=1e-12)
    assert_allclose(jet[2], 0.0, atol=1e-11)
    assert_allclose(jet[3], 0.0, atol=1e-10)


def test_divide_sine_by_exp():
    z = np.linspace(-0.5, 1.5, 19)
    q = divide(sin_jet(z), exp_jet(z))
    # sin z e^{-z} differentiated by hand
    e = np.exp(-z)
    s, c = np.sin(z), np.cos(z)
    assert_allclose(q[0], s * e, rtol=1e-14)
    assert_allclose(q[1], (c - s) * e, rtol=0, atol=1e-13)
    assert_allclose(q[2], -2.0 * c * e, rtol=0, atol=1e-12)
    assert_allclose(q[3], (2.0 * s + 2.0 * c) * e, rtol=0, atol=1e-12)


def test_reciprocal_matches_divide():
    z = np.linspace(0.4, 1.8, 13)
    v = cube_jet(z)
    one = (np.ones_like(z), np.zeros_like(z), np.zeros_like(z), np.zeros_like(z))
    r = reciprocal(v)
    q = divide(one, v)
    for a, b in zip(r, q):
        assert_allclose(a, b, rtol=1e-13)


def test_product_of_jet_and_reciprocal_is_one():
    z = np.linspace(0.5, 2.0, 9)
    v = (np.cosh(z), np.sinh(z), np.cosh(z), np.sinh(z))
    r = reciprocal(v)
    # (v * 1/v)'' and ''' vanish; build the product jet with Leibniz
    p1 = v[1] * r[0] + v[0] * r[1]
    p2 = v[2] * r[0] + 2.0 * v[1] * r[1] + v[0] * r[2]
    p3 = v[3] * r[0] + 3.0 * v[2] * r[1] + 3.0 * v[1] * r[2] + v[0] * r[3]
    assert_allclose(v[0] * r[0], 1.0, rtol=1e-14)
    assert_allclose(p1, 0.0, atol=1e-13)
    assert_allclose(p2, 0.0, atol=1e-12)
    assert_allclose(p3, 0.0, atol=1e-12)


def _signed(lo: float):
    return st.floats(lo, 10.0).flatmap(lambda a: st.sampled_from([a, -a]))


# random jet entries: 0 or 1e-3 <= |a| <= 10 (no underflow in the products),
# the leading term bounded away from 0
_lead = _signed(0.1)
_entry = st.one_of(st.just(0.0), _signed(1e-3))


@settings(max_examples=300, deadline=None)
@given(_entry, _lead, _entry, _entry)
def test_map_composed_with_its_inverse_is_identity(m0, m1, m2, m3):
    m = (m0, m1, m2, m3)
    inv = (0.5, *inverse_derivs(m1, m2, m3))  # the inverse's value is arbitrary
    # bounds scale with the terms each order sums: m after its inverse,
    # then the inverse after m
    sums = (
        (abs(m2) / m1**2, abs(m3 / m1**3) + m2 * m2 / m1**4),
        (abs(m2 / m1), abs(m3 / m1) + m2 * m2 / m1**2),
    )
    for jet, (s2, s3) in zip((compose(m, inv), compose(inv, m)), sums):
        assert abs(jet[1] - 1.0) <= 1e-15
        assert abs(jet[2]) <= 1e-14 * s2
        assert abs(jet[3]) <= 1e-14 * s3


@settings(max_examples=300, deadline=None)
@given(_lead, _entry, _entry, _entry)
def test_reciprocal_is_an_involution(v0, v1, v2, v3):
    v = (v0, v1, v2, v3)
    back = reciprocal(reciprocal(v))
    scale = (
        abs(v0),
        abs(v1),
        abs(v2) + v1 * v1 / abs(v0),
        abs(v3) + abs(v1 * v2 / v0) + abs(v1) ** 3 / v0**2,
    )
    for k in range(4):
        assert abs(back[k] - v[k]) <= 1e-14 * scale[k], k
