"""Third-order derivative jets: (value, f', f'', f''') tuples of arrays.

The exact Moore solver and the adiabatic closed forms both need first
through third derivatives propagated through compositions, inversions and
quotients.  Everything here is plain Faa di Bruno truncated at order 3; the
quotient rule solves the Leibniz triangle for the quotient's derivatives,
which is tidier than expanding u/v directly.  `divide` and `reciprocal`
also take shorter jets and return that many orders, each entry computed
exactly as in the full jet.
"""

from __future__ import annotations

__all__ = ["compose", "inverse_derivs", "divide", "reciprocal"]


def compose(outer, inner):
    """Jet of f(g(z)) given `outer` = jet of f at g(z) and `inner` = jet of g.

    Only the derivative entries of `outer` are used; the composed value is
    outer[0] (f evaluated at the inner value already).
    """
    f0, f1, f2, f3 = outer
    g1, g2, g3 = inner[1], inner[2], inner[3]
    return (
        f0,
        f1 * g1,
        f2 * g1 * g1 + f1 * g2,
        f3 * g1 ** 3 + 3.0 * f2 * g1 * g2 + f1 * g3,
    )


def inverse_derivs(m1, m2, m3):
    """Derivatives of the inverse map t(y) given dm/dt derivatives at t.

    For y = m(t): t' = 1/m', t'' = -m''/m'^3, t''' = 3 m''^2/m'^5 - m'''/m'^4.
    """
    i1 = 1.0 / m1
    i2 = i1 * i1
    return (i1, -m2 * i2 * i1, 3.0 * m2 * m2 * i2 * i2 * i1 - m3 * i2 * i2)


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
