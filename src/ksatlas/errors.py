"""Exception hierarchy shared by all ksatlas modules.

Two families matter for the CLI exit codes: ValidationError (bad inputs,
exit 2) and ResourceError (budget / size / convergence, exit 3).
"""


class AtlasError(Exception):
    """Base class for all ksatlas errors."""


class ValidationError(AtlasError):
    """Malformed or inconsistent input."""


class ResourceError(AtlasError):
    """A configured budget or iteration cap was exceeded."""


# -- scenario ---------------------------------------------------------------

class InvalidEdge(ValidationError):
    pass


class TooFewOutcomes(ValidationError):
    pass


class DuplicateMeasurement(ValidationError):
    pass


class MissingContextTable(ValidationError):
    pass


class NegativeProbability(ValidationError):
    pass


class ScenarioMismatch(ValidationError):
    pass


# -- polytope ---------------------------------------------------------------

class BudgetExceeded(ResourceError):
    pass


class InvalidLimit(ValidationError):
    """A count below its least value (a negative budget or size limit, no
    iteration, no part): no input could fit it."""


class NoDisturbanceViolated(ValidationError):
    pass


# -- graphs -----------------------------------------------------------------

class SizeLimitExceeded(ResourceError):
    pass


class ConvergenceFailure(ResourceError):
    pass


class InvalidTolerance(ValidationError):
    pass


# -- quantum ----------------------------------------------------------------

class InvalidModel(ValidationError):
    pass


class NonCommutingContext(ValidationError):
    pass


class NotAPOVM(ValidationError):
    pass


class RankDeficiencyAmbiguous(ValidationError):
    pass


class NotDichotomic(ValidationError):
    pass


class InvalidSet(ValidationError):
    pass


# -- bridge -----------------------------------------------------------------

class NotABellScenario(ValidationError):
    pass


class InvalidPartition(ValidationError):
    pass


class UndersizedPart(ValidationError):
    pass


class TooSmall(ValidationError):
    pass


class SicVerificationFailed(ValidationError):
    pass


# -- cli --------------------------------------------------------------------

class UsageError(AtlasError):
    pass
