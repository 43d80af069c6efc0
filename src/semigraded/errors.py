"""Exception hierarchy shared by all modules."""


class WorkbenchError(Exception):
    """Base class for every error this package raises deliberately."""


class NotAssociative(WorkbenchError):
    def __init__(self, triple, message=None):
        self.triple = triple
        super().__init__(message or f"associativity fails at triple {triple}")


class WrongOrder(WorkbenchError):
    pass


class OrderTooLarge(WorkbenchError):
    pass


class UnknownTag(WorkbenchError):
    pass


class GradingViolation(WorkbenchError):
    def __init__(self, pair, message=None):
        self.pair = pair
        super().__init__(message or f"grading law fails at basis pair {pair}")


class UnknownName(WorkbenchError):
    pass


class BadParam(WorkbenchError):
    pass


class PreconditionFailed(WorkbenchError):
    pass


class NonSplit(WorkbenchError):
    """The center of a semisimple algebra has no rational eigen-splitting.

    Raised instead of silently approximating; carries the offending block.
    """

    def __init__(self, block_dim, message=None):
        self.block_dim = block_dim
        super().__init__(message or f"center block of dimension {block_dim} does not split over Q")


class RadicalNotGraded(WorkbenchError):
    pass


class NilpotentAlgebra(WorkbenchError):
    pass


class ResourceLimit(WorkbenchError):
    def __init__(self, message, context=None):
        self.context = context
        super().__init__(message)


class EmptySequence(WorkbenchError):
    pass


class TooManyParts(WorkbenchError):
    pass


class UnsupportedAlgebra(WorkbenchError):
    pass


class HypothesisViolated(WorkbenchError):
    pass


class BetaInvalid(WorkbenchError):
    pass


class SizeMismatch(WorkbenchError):
    pass


class NegativeCoordinate(WorkbenchError):
    pass


class QTooSmall(WorkbenchError):
    pass


class Infeasible(WorkbenchError):
    pass


class NoConvergence(WorkbenchError):
    pass
