"""End-to-end acceptance checks.

One test per acceptance criterion.  Each prints a single PASS or FAIL line
carrying the measured figure next to its tolerance (visible with pytest -s,
or in the captured stdout of a failing run).
"""

import numpy as np
import pytest

from cavsta.energy import ThermalState, adiabatic_energy, density, eval_mode, total_energy
from cavsta.errors import SuperluminalError
from cavsta.moore_adiabatic import AdiabaticMoore, adiabatic_residual
from cavsta.moore_exact import ExactMoore
from cavsta.sta import (
    EffectivePair,
    build_effective,
    critical_tau,
    default_window,
    limit_trajectory,
)
from cavsta.trajectory import make_reference

from util import drop_near, fd_jets

TEMPERATURES = (0.0, 1.0, 5.0)


def _verdict(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'}  [{detail}]")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def tau04_scenarios():
    """Fast protocols (tau = 0.4) whose effective curves chase the limit
    trajectory: an asymmetric squeeze and a rigid translation."""
    out = {}
    for key, family, kw in (
        ("squeeze", "contraction", dict(L0=0.0, Lf=0.5, R0=1.0, eps=-0.3)),
        ("translate", "rigid", dict(L0=0.0, Lf=0.4, R0=1.0, eps=-0.4)),
    ):
        pair = make_reference(family, tau=0.4, **kw)
        am = AdiabaticMoore.build(pair)
        lo, hi = default_window(pair)
        out[key] = (
            pair,
            build_effective(am, "left", lo, hi),
            build_effective(am, "right", lo, hi),
            (lo, hi),
        )
    return out


def test_static_energy_closed_form(static_unit):
    """Motionless cavity: E = (-pi/24 + Z(T d0))/d0 and Q = 1 to 1e-9."""
    pair, moore = static_unit
    worst_e, worst_q = 0.0, 0.0
    for T in TEMPERATURES:
        st = ThermalState(T, pair.d0)
        E_closed = adiabatic_energy(pair.d0, st)
        for t in (-0.7, 0.37, 1.9):
            E = total_energy(moore, pair, t, st)
            worst_e = max(worst_e, abs(E - E_closed) / abs(E_closed))
            worst_q = max(worst_q, abs(E / E_closed - 1.0))
    _verdict(
        "static energy closed form",
        worst_e <= 1e-9 and worst_q <= 1e-9,
        f"relative energy error {worst_e:.2e}, |Q-1| {worst_q:.2e}, tolerance 1e-9",
    )


def test_shortcut_restores_adiabaticity(trio12):
    """After the protocol the shortcut lands on Q = 1 to 1e-3 while the
    reference misses by more than 0.05, for contraction, expansion, and
    rigid translation at every probe temperature."""
    worst_eff, worst_ref = 0.0, np.inf
    for s in trio12.values():
        hi = s.window[1]
        for T in TEMPERATURES:
            st = ThermalState(T, s.pair.d0)
            E_ad = adiabatic_energy(s.pair.df, st)
            q_eff = total_energy(s.exact_eff, s.eff_pair, hi, st) / E_ad
            q_ref = total_energy(s.exact_ref, s.pair, hi, st) / E_ad
            worst_eff = max(worst_eff, abs(q_eff - 1.0))
            worst_ref = min(worst_ref, abs(q_ref - 1.0))
    _verdict(
        "shortcut restores adiabaticity",
        worst_eff < 1e-3 and worst_ref > 0.05,
        f"max |Q_eff - 1| {worst_eff:.2e} (< 1e-3), "
        f"min |Q_ref - 1| {worst_ref:.4f} (> 0.05)",
    )


def test_moore_residuals_and_decay(trio12):
    """Exact Moore functions satisfy both functional equations to 1e-6 on
    reference and effective pairs; the adiabatic residual decays like
    1/tau^2 (log-log slope within -2 +- 0.2)."""
    worst = 0.0
    for s in trio12.values():
        t = s.times(400)
        worst = max(worst, *s.exact_ref.residuals(t), *s.exact_eff.residuals(t))
    taus = [5.0, 10.0, 20.0, 40.0, 80.0]
    res = []
    for tau in taus:
        pair = make_reference("contraction", L0=0.0, Lf=0.3, R0=1.0, eps=0.3, tau=tau)
        am = AdiabaticMoore.build(pair)
        grid = np.linspace(-1.0, tau + 1.0, 800)
        res.append(max(adiabatic_residual(am, grid)))
    slope = float(np.polyfit(np.log(taus), np.log(res), 1)[0])
    _verdict(
        "moore residuals and adiabatic decay",
        worst < 1e-6 and -2.2 <= slope <= -1.8,
        f"sup residual {worst:.2e} (< 1e-6), decay slope {slope:.3f} (-2 +- 0.2)",
    )


def test_limit_curve_tracking(trio12, tau04_scenarios):
    """Limit-curve identities and sub-critical tracking: both sides share
    one limit velocity, a rigid translation has exactly zero, the
    contraction intercept matches its closed form, and fast effective
    curves stay within 0.05 R0 of the limit away from its breakpoints."""
    ok = True
    details = []

    lim_l, lim_r = limit_trajectory(0.0, 0.3, 1.0, 0.7)
    ok &= lim_l.v_lim == lim_r.v_lim
    ok &= abs(lim_r.v_lim + 3.0 / 7.0) <= 1e-12
    ok &= abs(lim_r.intercept - 11.0 / 14.0) <= 1e-12
    details.append(
        f"v_lim {lim_r.v_lim:.12f} vs -3/7, intercept {lim_r.intercept:.12f} vs 11/14"
    )

    rig = trio12["rigid"].pair
    lim_rl, lim_rr = limit_trajectory(rig.L0, rig.Lf, rig.R0, rig.Rf)
    ok &= lim_rl.v_lim == 0.0 and lim_rr.v_lim == 0.0
    details.append(f"rigid v_lim {lim_rr.v_lim!r}")

    tau = 0.4
    worst = 0.0
    for pair, eff_l, eff_r, (lo, hi) in tau04_scenarios.values():
        lims = limit_trajectory(pair.L0, pair.Lf, pair.R0, pair.Rf)
        t = np.linspace(lo, hi, 1500)
        for eff, lim in ((eff_l, lims[0]), (eff_r, lims[1])):
            keep = np.ones(t.shape, dtype=bool)
            for b in lim.breakpoints:
                keep &= np.abs(t - b) > tau
            worst = max(worst, float(np.max(np.abs(eff(t[keep]) - lim(t[keep])))))
    ok &= worst <= 0.05
    details.append(f"fast-protocol tracking distance {worst:.4f} (<= 0.05 R0)")
    _verdict("limit curve tracking", ok, "; ".join(details))


def test_exact_matches_adiabatic_for_slow_motion(contraction12):
    """Two-sided consistency: the exact Moore functions of the effective
    pair reproduce the adiabatic pair to 1e-6, and for a slow reference
    (tau = 40) the adiabatic energy density matches the exact one to 1e-3
    of its sup magnitude."""
    s = contraction12
    z = np.linspace(s.window[0], s.window[1], 801)
    dev_moore = max(
        float(np.max(np.abs(s.exact_eff.solve_G(z)[0] - s.am.G(z)))),
        float(np.max(np.abs(s.exact_eff.solve_F(z)[0] - s.am.F(z)))),
    )

    tau = 40.0
    pair = make_reference("contraction", L0=0.0, Lf=0.3, R0=1.0, eps=0.3, tau=tau)
    am = AdiabaticMoore.build(pair)
    moore = ExactMoore(pair)
    worst = 0.0
    for T in TEMPERATURES:
        st = ThermalState(T, pair.d0)
        sup_err, sup_scale = 0.0, 0.0
        for t in (0.25 * tau, 0.5 * tau, 0.75 * tau, tau + 1.0):
            xl, xr = float(pair.left(t)), float(pair.right(t))
            xs = np.linspace(xl + 1e-6, xr - 1e-6, 401)
            d_ex = density(moore, xs, t, st)
            d_ad = density(am, xs, t, st)
            sup_err = max(sup_err, float(np.max(np.abs(d_ad - d_ex))))
            sup_scale = max(sup_scale, float(np.max(np.abs(d_ex))))
        worst = max(worst, sup_err / sup_scale)
    _verdict(
        "exact matches adiabatic for slow motion",
        dev_moore <= 1e-6 and worst <= 1e-3,
        f"effective-pair Moore deviation {dev_moore:.2e} (<= 1e-6), "
        f"slow-density sup-rel error {worst:.2e} (<= 1e-3)",
    )


def test_analytic_derivatives(contraction12):
    """Analytic jets match centered finite differences to 1e-4 of each
    order's own scale, away from kink arguments: exact and adiabatic Moore
    functions to third order, mirror paths and effective trajectories to
    second."""
    s = contraction12
    h, pad = 5e-4, 5e-3
    worst = 0.0

    zk, wk = s.exact_ref.kink_args(-1.6, 3.3)
    bk = np.union1d(s.pair.left.breaks, s.pair.right.breaks)
    for which, kinks in (("G", np.union1d(zk, bk)), ("F", np.union1d(wk, bk))):
        z = drop_near(np.linspace(-1.5, 3.2, 121), kinks, pad)
        for jetf in (getattr(s.exact_ref, which + "_jet"), getattr(s.am, which + "_jet")):
            jet = jetf(z)
            fd = fd_jets(lambda x: jetf(x)[0], z, h)
            for order in (1, 2, 3):
                scale = max(1.0, float(np.max(np.abs(jet[order]))))
                worst = max(
                    worst, float(np.max(np.abs(jet[order] - fd[order - 1]))) / scale
                )

    t = drop_near(np.linspace(-0.3, 1.5, 97), bk, pad)
    for path in (s.pair.left, s.pair.right):
        jet = path.jet(t)
        fd = fd_jets(lambda x: path(x), t, h)
        for order in (1, 2):
            scale = max(1.0, float(np.max(np.abs(jet[order]))))
            worst = max(
                worst, float(np.max(np.abs(jet[order] - fd[order - 1]))) / scale
            )

    eff = s.eff_pair.right
    tt = drop_near(np.linspace(eff.times[0], eff.times[-1], 101), eff.breaks, pad)
    fd = fd_jets(lambda x: eff(x), tt, h)
    for order in (1, 2):
        scale = max(1.0, float(np.max(np.abs(eff(tt, order)))))
        worst = max(
            worst, float(np.max(np.abs(eff(tt, order) - fd[order - 1]))) / scale
        )

    _verdict(
        "analytic derivative consistency",
        worst <= 1e-4,
        f"worst scale-relative FD deviation {worst:.2e} (<= 1e-4)",
    )


def test_modes_vanish_at_mirrors(static_unit, contraction12):
    """Instantaneous mode functions obey the moving Dirichlet conditions
    at both mirrors for k in {1, 2, 5}."""
    worst = 0.0
    cases = ((static_unit[0], static_unit[1]), (contraction12.pair, contraction12.exact_ref))
    for pair, moore in cases:
        for k in (1, 2, 5):
            for t in np.linspace(-0.5, 2.0, 9):
                xl, xr = float(pair.left(t)), float(pair.right(t))
                worst = max(worst, abs(eval_mode(moore, k, xl, t)))
                worst = max(worst, abs(eval_mode(moore, k, xr, t)))
    _verdict(
        "mode boundary conditions",
        worst < 1e-12,
        f"max |psi_k| at the mirrors {worst:.2e} (< 1e-12)",
    )


def test_critical_timescale():
    """Closed-form tau_c in (0.2, 1.2), builds 0.05 either side; the crossing is
    monotone (shorter protocols superluminal, longer ones physical) and a
    sub-critical protocol is flagged and refused by the exact solver."""
    geo = dict(L0=0.0, Lf=0.3, R0=1.0, eps=0.3)
    tc = critical_tau(
        "contraction", geo["L0"], geo["Lf"], geo["R0"], geo["eps"], 0.2, 1.2, tol=1e-3
    )

    def max_speed(tau):
        pair = make_reference("contraction", tau=tau, **geo)
        am = AdiabaticMoore.build(pair)
        lo, hi = default_window(pair)
        return max(
            build_effective(am, side, lo, hi).max_speed()
            for side in ("left", "right")
        )

    above = max_speed(tc + 0.05)
    below = max_speed(tc - 0.05)

    pair_sub = make_reference("contraction", tau=0.4, **geo)
    am_sub = AdiabaticMoore.build(pair_sub)
    lo, hi = default_window(pair_sub)
    eff_sub = EffectivePair(
        build_effective(am_sub, "left", lo, hi),
        build_effective(am_sub, "right", lo, hi),
    )
    flagged = not eff_sub.realizable
    refused = False
    if flagged:
        try:
            ExactMoore(eff_sub)
        except SuperluminalError:
            refused = True
    _verdict(
        "critical timescale",
        0.2 < tc < 1.2 and below >= 1.0 > above and flagged and refused,
        f"tau_c {tc:.4f} in (0.2, 1.2), max speed {below:.3f} just below vs "
        f"{above:.3f} just above, sub-critical flagged {flagged} and refused {refused}",
    )
