"""Domain errors.

Exit code conventions for the command line layer: 2 for malformed input
or an invalid request, 3 for a model family the kit does not support.
Any other exception is a defect and exits with 4; the two defects the
kit detects itself, ``ModeDisagreement`` and ``OracleDefect``, are such
exceptions on purpose.
"""


class UlrichKitError(Exception):
    """Base class for every error that a property of the input or of the
    model raises; the kit's own defects stand outside it."""

    exit_code = 2


class MalformedModel(UlrichKitError):
    pass


class UnsupportedModel(UlrichKitError):
    exit_code = 3


class UnsupportedQuadricDim(UlrichKitError):
    exit_code = 3


class UnsupportedProduct(UlrichKitError):
    exit_code = 3


class NoOracle(UlrichKitError):
    exit_code = 3


class NoRestrictionRule(UlrichKitError):
    exit_code = 3


class NoDualRule(UlrichKitError):
    exit_code = 3


class UnknownK0Rank(UlrichKitError):
    exit_code = 3


class ModelMismatch(UlrichKitError):
    pass


class MalformedDescriptor(UlrichKitError):
    pass


class UnknownSlopeZero(UlrichKitError):
    # degree-zero semistable data without the triviality bit
    pass


class Indeterminate(UlrichKitError):
    pass


class IncompleteTable(UlrichKitError):
    pass


class NotUlrich(UlrichKitError):
    pass


class NotUlrichInput(UlrichKitError):
    pass


class NonDivisibleRank(UlrichKitError):
    pass


class ZeroExt(UlrichKitError):
    pass


class NonpositiveT(UlrichKitError):
    pass


class MissingConvention(UlrichKitError):
    pass


class NoSlope(UlrichKitError):
    pass


class EmptyGrid(UlrichKitError):
    pass


class ModeDisagreement(Exception):
    """The direct and sheafwise Ulrich checks returned different verdicts.

    This is a defect in the kit, never a property of the input; it must
    surface instead of being swallowed.
    """


class OracleDefect(Exception):
    """An internal cross-check (for example Serre duality) failed: a
    defect in the kit, like ``ModeDisagreement``."""


class ParseError(UlrichKitError):
    pass
