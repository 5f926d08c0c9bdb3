"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: bad dimensions, out-of-range knobs, unknown keys."""


class DataSchemaError(ValueError):
    """A dataset file does not match the expected column schema."""


class DataParseError(ValueError):
    """A dataset file contains a cell that cannot be parsed."""


class GenerationError(ValueError):
    """A synthetic-data profile is degenerate and cannot produce data."""


class NumericError(ArithmeticError):
    """A numeric operation produced or received non-finite values.

    `clients` lists the positions, within a stacked training call, of the
    clients at fault; it is empty when no client is singled out.
    """

    def __init__(self, message: str, clients: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        self.clients = clients

