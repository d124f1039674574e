"""Exception and warning types used across the library."""


class DwlabError(Exception):
    """Base class for all errors raised by this package."""


class SingularEvaluation(DwlabError):
    """The singular (spherical-angle) right-hand side was evaluated too close
    to a pole of the sphere; switch to the desingularized system."""


class PoleEvaluation(DwlabError):
    """The local wavenumber is undefined: the magnetization is at (or within
    the guard of) one of the poles +/- e3."""


class EquilibriumInput(DwlabError):
    """The explicit chart flow was asked to start at an equilibrium; the
    solution is the constant one and the closed-form formula degenerates."""


class PoleCrossing(DwlabError):
    """The closed-form chart solution passes through (or too close to) a pole
    of the complex tangent on the requested interval."""


class OrientationError(DwlabError):
    """Parameters describe a left-moving wall (``Regime.reflected``), and
    the operation needs a right-moving one, h >= beta/alpha."""


class CurvePole(DwlabError):
    """Stability curves are undefined: the applied field coincides with a pole
    of the Gamma+/- expressions (h = +/- mu)."""


class InvariantLine(DwlabError):
    """The chart Hamiltonian is evaluated on (or within the guard of) its
    invariant line q = -/+ s/2, where it is undefined."""


class ChartMiss(DwlabError):
    """A profile expected to terminate on the theta = pi chart does not reach
    it within tolerance."""


class MelnikovDomainError(DwlabError):
    """The Melnikov integrals are requested outside their domain of decay
    0 <= s0 < 2*sqrt(-mu)/alpha."""


class RegimeError(DwlabError):
    """An operation was invoked for a parameter regime it does not cover."""


class SpectralMismatch(DwlabError):
    """An equilibrium does not have the spectral structure (exactly one
    unstable eigenvalue) required for unstable-manifold shooting."""


class NoConnection(DwlabError):
    """A shot from the theta = 0 chart stalled before reaching the theta = pi
    chart within the integration budget."""


class StepFailure(DwlabError):
    """A time/space integrator could not complete a step (step underflow or
    stability-bound violation)."""


class BlowUp(DwlabError):
    """A trajectory left the admissible region (|p| + |q| exceeded the blow-up
    bound)."""


class NoConvergence(DwlabError):
    """Newton iteration failed to reach the residual tolerance."""


class SingularJacobian(DwlabError):
    """The sparse LU of a Newton matrix failed."""


class PhaseDegeneracy(DwlabError):
    """The 2x2 Gram matrix of the freezing phase conditions is singular; the
    frame speed/frequency cannot be extracted."""


class ConfigError(DwlabError):
    """A run configuration document failed validation."""


class CenterConditionViolated(UserWarning):
    """The chart Hamiltonian was evaluated off the center condition; the value
    is returned but is not a conserved quantity there."""
