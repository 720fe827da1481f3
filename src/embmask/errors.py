"""Exception types shared across the package."""


class EmbmaskError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatchError(EmbmaskError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(EmbmaskError, ValueError):
    """Non-finite values where finite ones are required."""


class UsageError(EmbmaskError, ValueError):
    """An operation was called in a way its contract forbids."""


class ContractError(EmbmaskError, RuntimeError):
    """A frozen-model or trainability contract was violated."""


class ConfigError(EmbmaskError, ValueError):
    """Invalid or unparseable configuration."""


class CorruptFileError(EmbmaskError, ValueError):
    """A persisted artifact failed validation on load."""


class CsvParseError(EmbmaskError, ValueError):
    """A CSV dataset failed strict parsing."""


class DegenerateDataError(EmbmaskError, ValueError):
    """The dataset cannot support the requested training task."""
