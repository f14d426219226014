"""Exception types raised across the toolkit."""


class CcfgError(Exception):
    """Base class for all toolkit errors."""


class DegenerateForce(CcfgError):
    """Center of pressure is undefined: no normal force across the patch."""


class NegativeNormalForce(CcfgError):
    """A contact normal force was negative (separating) where compression was required."""


class NoFeasibleMode(CcfgError):
    """No enumerated contact-mode hypothesis passed the feasibility checks."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class JammedConfiguration(CcfgError):
    """A mode is feasible only with unbounded contact forces."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class InvariantViolation(CcfgError):
    """A resolved step broke static balance, the friction cone, friction
    complementarity or non-penetration.

    `invariant` names the first check that failed and `residuals` holds the
    worst measured value of every check: balance residual (N, N*m), cone
    excess (N), complementarity residual (N*m/s) and penetration depth (m,
    negative when penetrating).
    """

    def __init__(self, message, invariant, residuals):
        super().__init__(message)
        self.invariant = invariant
        self.residuals = residuals


class NotReady(CcfgError):
    """Wrench-cone estimate queried before enough samples were ingested."""


class DuplicateId(CcfgError):
    """A factor-graph variable id was added twice."""


class UnknownVariable(CcfgError):
    """A variable id the factor graph does not hold, referenced by a factor
    or passed to `FactorGraph.get`: it never existed, or `slide_window`
    deleted it."""


class NonFiniteResidual(CcfgError):
    """FactorGraph.solve found non-finite residuals at its initial point.

    A singular or rank-deficient H does not raise: the damped steps go on.
    """
