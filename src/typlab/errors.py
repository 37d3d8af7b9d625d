"""Exception hierarchy for typlab.

Every error raised by the library derives from :class:`TyplabError`, so
callers (and the CLI) can catch one base class and still report the precise
failure mode.
"""


class TyplabError(Exception):
    """Base class for all typlab errors."""


class NotSquareError(TyplabError):
    """A matrix argument is not square."""


class NotHermitianError(TyplabError):
    """A matrix violates conjugate symmetry beyond tolerance."""

    def __init__(self, max_asymmetry: float, tolerance: float):
        self.max_asymmetry = max_asymmetry
        self.tolerance = tolerance
        super().__init__(
            f"matrix is not Hermitian: max |M - M^dagger| = {max_asymmetry:.3e} "
            f"exceeds tolerance {tolerance:.1e}"
        )


class ConvergenceError(TyplabError):
    """The eigenvalue solver failed to converge or produced an invalid result."""


class DimensionMismatchError(TyplabError):
    """Operands have incompatible dimensions."""


class InvalidDimensionError(TyplabError):
    """A dimension or spacing parameter is outside its valid range."""


class OddDimensionError(TyplabError):
    """An even dimension was required (equal counts of +1 and -1 entries)."""


class ParameterError(TyplabError, ValueError):
    """A numeric or named parameter is outside its valid range.

    Also a :class:`ValueError`, the builtin error for a bad argument value.
    """


class NotDiagonalError(TyplabError):
    """An observable is not of the supported form: a sign vector, the 1-d
    diagonal of a diagonal observable with every entry exactly +1 or -1
    (:class:`~typlab.ensembles.OmegaParams` checks it), or a matrix was
    passed where such a vector is read."""


class TooFewTrajectoriesError(TyplabError):
    """Ensemble statistics need at least two trajectories."""


class NonHermitianResidueError(TyplabError):
    """An expectation value carried an imaginary part beyond tolerance."""


class ConfigParseError(TyplabError):
    """A config file is syntactically or semantically invalid."""


class CsvFormatError(TyplabError):
    """A CSV input does not match the documented format."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"{message} (row {row})"
        super().__init__(message)
