"""Shared fixtures: the pipelines are expensive, so geometry setups that
several test modules probe read-only are built once per session."""

import numpy as np
import pytest

from cavsta.moore_adiabatic import AdiabaticMoore
from cavsta.moore_exact import ExactMoore
from cavsta.sta import EffectivePair, build_effective, default_window
from cavsta.trajectory import MirrorPath, TrajectoryPair, make_reference


class Scenario:
    """One fully built protocol: reference pair, adiabatic and exact Moore
    functions, effective pair and its exact Moore functions."""

    def __init__(self, family, **kw):
        self.pair = make_reference(family, **kw)
        self.am = AdiabaticMoore.build(self.pair)
        self.window = default_window(self.pair)
        lo, hi = self.window
        self.eff_pair = EffectivePair(
            build_effective(self.am, "left", lo, hi),
            build_effective(self.am, "right", lo, hi),
        )
        self.exact_ref = ExactMoore(self.pair)
        self.exact_eff = ExactMoore(self.eff_pair)

    def times(self, n=400):
        return np.linspace(self.window[0], self.window[1], n)


@pytest.fixture(scope="session")
def contraction12():
    """Contraction with both mirrors moving, tau=1.2 (subluminal)."""
    return Scenario("contraction", L0=0.0, Lf=0.3, R0=1.0, eps=0.3, tau=1.2)


@pytest.fixture(scope="session")
def contraction40():
    """The same contraction slowed to tau=40: few, deep backward traces."""
    return Scenario("contraction", L0=0.0, Lf=0.3, R0=1.0, eps=0.3, tau=40.0)


@pytest.fixture(scope="session")
def trio12(contraction12):
    """The three protocol families at tau=1.2, all subluminal."""
    return {
        "contraction": contraction12,
        "expansion": Scenario("expansion", L0=0.0, Lf=-0.3, R0=1.0, eps=-0.3, tau=1.2),
        "rigid": Scenario("rigid", L0=0.0, Lf=0.3, R0=1.0, eps=-0.3, tau=1.2),
    }


@pytest.fixture(scope="session")
def static_unit():
    """Motionless unit cavity [0, 1] with its exact Moore functions."""
    rowL = np.zeros((1, 8))
    rowR = np.zeros((1, 8))
    rowR[0, 0] = 1.0
    left = MirrorPath(np.array([0.0, 1.0]), rowL, edges=(0.0, 0.0))
    right = MirrorPath(np.array([0.0, 1.0]), rowR, edges=(1.0, 1.0))
    pair = TrajectoryPair(left, right)
    return pair, ExactMoore(pair)
