"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Bad input (a config value, a profile, a dataset file); the CLI exits 2."""


class NumericError(ArithmeticError):
    """A numeric operation produced or received non-finite values.

    `clients` lists the positions, within a stacked training call, of the
    clients at fault; it is empty when no client is singled out.
    """

    def __init__(self, message: str, clients: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        self.clients = clients

