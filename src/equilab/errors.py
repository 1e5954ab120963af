"""Exception types shared across the package.

Everything derives from EquilabError so callers can catch broadly; the
validation errors also subclass ValueError so they behave like ordinary
argument errors in scripts.
"""


class EquilabError(Exception):
    pass


class DimensionError(EquilabError, ValueError):
    """Shape or size constraint violated (mismatch, empty, over the cap)."""


class NonFiniteError(EquilabError, ValueError):
    """NaN or infinity where finite values are required."""


class ConvergenceError(EquilabError):
    """An iterative routine hit its sweep/iteration cap before converging."""


class RankDeficientError(EquilabError):
    """Smallest retained singular value fell below the rank tolerance.

    Carries the extreme singular values so callers can report or relax.
    """

    def __init__(self, sigma_max, sigma_min, rank_tol):
        self.sigma_max = float(sigma_max)
        self.sigma_min = float(sigma_min)
        self.rank_tol = float(rank_tol)
        super().__init__(
            f"numerically rank deficient: sigma_max={self.sigma_max!r}, "
            f"sigma_min={self.sigma_min!r}, rank_tol={self.rank_tol!r}"
        )


class ZeroRowError(EquilabError, ValueError):
    """A row, column or diagonal entry (see .axis) that a scaling divides
    by is zero."""

    def __init__(self, index, axis="row"):
        self.index = int(index)
        self.axis = axis
        what = "diagonal entry" if axis == "diagonal" else axis
        super().__init__(f"{what} {index} is zero")


class NotSymmetricError(EquilabError, ValueError):
    pass


class NotPositiveDefiniteError(EquilabError):
    """A symmetric matrix that must be positive definite is not."""


class InaccurateSolveError(EquilabError):
    """A linear solve's residual exceeded its tolerance."""


class NonFiniteActivationError(EquilabError):
    """Forward pass produced NaN/inf; carries the offending layer index."""

    def __init__(self, layer_index, stage="activation"):
        self.layer_index = int(layer_index)
        self.stage = stage
        super().__init__(f"non-finite values in layer {layer_index} ({stage})")


class GradientCheckError(EquilabError):
    """Analytic gradient and finite differences disagree beyond tolerance."""


class EmptyResultError(EquilabError):
    """An experiment produced no usable data points (all excluded)."""


class ArmMismatchError(EquilabError):
    """Training arms that must share initial weights or data order did not."""


class ConfigError(EquilabError, ValueError):
    """Malformed experiment config (unknown keys, bad values)."""
