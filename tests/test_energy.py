"""Renormalized energy density, cavity energy, and adiabaticity."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import simpson

from cavsta.energy import (
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
from cavsta.sta import build_effective, default_window
from cavsta.trajectory import TrajectoryPair, make_reference


def test_thermal_sum_basics():
    assert thermal_Z(0.0) == 0.0
    x = np.array([0.3, 0.7, 1.1, 2.0, 4.0])
    z = np.array([thermal_Z(v) for v in x])
    assert np.all(np.diff(z) > 0)
    assert np.all(z > 0)


def test_thermal_sum_closed_form_at_half():
    # sum n pi / (e^{2 pi n} - 1) = pi/24 - 1/8, a classical Lambert-series value
    assert thermal_Z(0.5) == pytest.approx(np.pi / 24.0 - 0.125, abs=1e-15)


def test_thermal_sum_high_temperature_limit():
    # Z(x) -> pi x^2 / 6 - x/2 + ... for large x
    x = 50.0
    assert thermal_Z(x) == pytest.approx(np.pi * x * x / 6.0 - x / 2.0, rel=1e-3)


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
    rec = energy_record(times, states, s.exact_ref, s.pair, s.exact_eff, s.eff_pair)
    assert rec.E_ref.shape == (2, 7)
    assert rec.Q_eff.shape == (2, 7)
    assert np.all(np.isfinite(rec.E_ref))
    assert np.all(np.isfinite(rec.Q_eff))
    # pre-motion samples are exactly adiabatic
    assert rec.Q_ref[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_energy_record_handles_missing_solver(contraction12):
    s = contraction12
    times = np.linspace(-0.5, 1.0, 4)
    states = [ThermalState(0.0, 1.0)]
    rec = energy_record(times, states, None, s.pair, None, None)
    assert np.all(np.isnan(rec.E_ref))
    assert np.all(np.isnan(rec.E_eff))
    assert np.all(np.isfinite(rec.E_ad_ref))
    assert np.all(np.isnan(rec.E_ad_eff))


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
    energy_record(s.times(40), states, moore_ref, s.pair, moore_eff, s.eff_pair, points=201)
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
    args = (times, states, s.exact_ref, s.pair, s.exact_eff, s.eff_pair)
    base = energy_record(*args, points=2001)
    fine = energy_record(*args, points=4002)
    for E, E_fine, E_ad in (
        (base.E_ref, fine.E_ref, base.E_ad_ref),
        (base.E_eff, fine.E_eff, base.E_ad_eff),
    ):
        assert np.all(np.abs(E - E_fine) <= 1e-7 * np.abs(E_ad))


# known defect: at tau = 1.2 the default effective step (tau/512) is too
# coarse for this bound; halving it moves E_eff mid-protocol by 3.7e-8
# (T = 0) and 2.0e-7 (T = 1) of E_ad, whatever the advance-integral panel
# count.  Below that, the 8192-panel advance table sets a floor near 2e-8.
_STEP_FLOOR = pytest.mark.xfail(
    strict=True, reason="E_eff moves 3.7e-8 |E_ad| under step halving at tau = 1.2"
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
        records.append(energy_record(times, states, moore_eff=ExactMoore(eff), pair_eff=eff))
    base, fine = records
    assert np.all(np.abs(base.E_eff - fine.E_eff) <= 1e-8 * np.abs(base.E_ad_eff))


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
