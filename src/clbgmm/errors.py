"""Exception hierarchy and JSON type tests shared across the toolkit."""


class ClbgmmError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(ClbgmmError):
    """Bad input: malformed manifest, misaligned tables, invalid config."""


class NumericalError(ClbgmmError):
    """Numerical failure during model fitting or scoring."""


def is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)
