"""Derivative jets up to third order: (value, f', f'', f''') tuples of
arrays, or their leading entries.

The exact Moore solver and the adiabatic closed forms both need first
through third derivatives propagated through compositions, inversions and
quotients.  Everything here is plain Faa di Bruno truncated at order 3; the
quotient rule solves the Leibniz triangle for the quotient's derivatives,
which is tidier than expanding u/v directly.  Every function also takes
shorter jets and returns that many orders, each entry computed exactly as
in the full jet, so a caller that needs fewer orders computes none of the
rest.
"""

from __future__ import annotations

__all__ = ["compose", "inverse_derivs", "divide", "reciprocal"]


def compose(outer, inner):
    """Jet of f(g(z)) given `outer` = jet of f at g(z) and `inner` = jet of g,
    to the order of the shorter of the two.

    Only the derivative entries of `inner` are used; the composed value is
    outer[0] (f evaluated at the inner value already).
    """
    n = min(len(outer), len(inner))
    q = [outer[0]]
    if n > 1:
        f1, g1 = outer[1], inner[1]
        q.append(f1 * g1)
    if n > 2:
        f2, g2 = outer[2], inner[2]
        q.append(f2 * g1 * g1 + f1 * g2)
    if n > 3:
        q.append(outer[3] * g1 ** 3 + 3.0 * f2 * g1 * g2 + f1 * inner[3])
    return tuple(q)


def inverse_derivs(m1, *higher):
    """Derivatives of the inverse map t(y) given dm/dt derivatives at t, as
    many as are given (one to three).

    For y = m(t): t' = 1/m', t'' = -m''/m'^3, t''' = 3 m''^2/m'^5 - m'''/m'^4.
    """
    i1 = 1.0 / m1
    if not higher:
        return (i1,)
    m2 = higher[0]
    i2 = i1 * i1
    out = (i1, -m2 * i2 * i1)
    if len(higher) > 1:
        out += (3.0 * m2 * m2 * i2 * i2 * i1 - higher[1] * i2 * i2,)
    return out


def divide(u, v):
    """Jet of u/v from jets of u and v (v[0] must be nonzero), to the order
    of the shorter of the two."""
    n = min(len(u), len(v))
    q = [u[0] / v[0]]
    if n > 1:
        q.append((u[1] - q[0] * v[1]) / v[0])
    if n > 2:
        q.append((u[2] - q[0] * v[2] - 2.0 * q[1] * v[1]) / v[0])
    if n > 3:
        q.append((u[3] - q[0] * v[3] - 3.0 * q[1] * v[2] - 3.0 * q[2] * v[1]) / v[0])
    return tuple(q)


def reciprocal(v):
    """Jet of 1/v, to the order of v."""
    r0 = 1.0 / v[0]
    r = [r0]
    if len(v) > 1:
        r.append(-v[1] * r0 * r0)
    if len(v) > 2:
        r.append((-v[2] + 2.0 * v[1] * v[1] * r0) * r0 * r0)
    if len(v) > 3:
        r.append((-v[3] + 6.0 * v[1] * v[2] * r0 - 6.0 * v[1] ** 3 * r0 * r0) * r0 * r0)
    return tuple(r)
