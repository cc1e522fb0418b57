"""Exception hierarchy shared by the whole package.

Every error raised on purpose derives from :class:`LskError`, so callers (and
the CLI) can separate domain failures from programming errors.
"""


class LskError(Exception):
    """Base class for all library errors."""


class ShapeError(LskError):
    """Tensor or parameter dimensions are inconsistent with the operation."""


class PlanError(LskError):
    """A kernel-decomposition sequence violates a construction constraint."""


class FormatError(LskError):
    """Base class for file-format failures."""


class BadMagicError(FormatError):
    """The file does not start with the expected magic bytes."""


class TruncatedFileError(FormatError):
    """The file ends before the declared payload is complete."""


class DimOverflowError(FormatError):
    """Declared dimensions are zero or too large to represent safely."""


class ManifestError(FormatError):
    """A weight-file manifest is malformed or internally inconsistent."""


class WeightMismatchError(LskError):
    """Loaded weights do not match the shapes a configuration expects."""


class DivergenceError(LskError):
    """Training produced a non-finite loss.

    ``step`` is the 0-based gradient step at which divergence was detected.
    """

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"loss became non-finite at step {step}")


class AnalysisError(LskError):
    """Activation records or annotations cannot be analysed as requested."""
