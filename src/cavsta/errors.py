"""Exception hierarchy shared across the package."""


class CavstaError(Exception):
    """Base class for all package-specific failures."""


class GeometryError(CavstaError):
    """Invalid cavity geometry (mirrors cross, degenerate length, bad family)."""


class ContinuityError(CavstaError):
    """A piecewise path violates the required C^3 continuity."""


class SuperluminalError(CavstaError):
    """A mirror path reaches or exceeds the speed of light."""


class BracketError(CavstaError):
    """A root could not be bracketed; no physical solution in range."""


class ConvergenceError(CavstaError):
    """An iterative solve failed to reach its tolerance."""


class DensityError(CavstaError):
    """Energy density undefined (vanishing Moore derivative or x outside cavity)."""
