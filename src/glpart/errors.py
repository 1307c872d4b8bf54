"""Exception types shared across the package."""


class GlpartError(Exception):
    """Base class for every error raised by this package."""


class GraphFormatError(GlpartError):
    """Malformed instance text (bad counts, bad ids, unreadable lines)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DemandError(GlpartError):
    """Terminal or demand vector is malformed for the given graph."""


class PreconditionError(GlpartError):
    """Input violates a documented precondition.

    Carries a machine-readable witness when one exists (a missing chord,
    a small separator, a forbidden induced subgraph).
    """

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class SolverStallError(GlpartError):
    """The growth loop found open parts but no frontier vertex.

    This cannot happen on inputs that satisfy the solver preconditions; it
    surfaces when validation was skipped on a bad instance.
    """


class CapError(GlpartError):
    """Instance exceeds a size cap that guards an exponential helper."""


class PipelineInvariantError(GlpartError):
    """An internal guarantee of the contraction pipeline failed.

    Indicates the input was outside the supported class even though the
    up-front checks were skipped or fooled.
    """
