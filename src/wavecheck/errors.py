"""Exception types shared across the package; each keeps a builtin base too."""


class WavecheckError(Exception):
    """Base of every error here: the CLI exits 2 with its message."""


class ParameterError(WavecheckError, ValueError):
    """A scalar argument is outside its documented domain."""


class ShapeError(WavecheckError, ValueError):
    """Vector or table length does not match the grid it claims to live on."""


class DomainError(WavecheckError, ValueError):
    """A coordinate or index falls outside the grid / table domain."""


class NumericDomainError(WavecheckError, ArithmeticError):
    """A radicand or other intermediate left its mathematical domain."""


class CflViolationError(WavecheckError, RuntimeError):
    """The requested run violates the configured Courant-number margin."""


class UnsupportedFeatureError(WavecheckError, NotImplementedError):
    """The request needs machinery deliberately left out (see docs)."""


class NonFiniteError(WavecheckError, ArithmeticError):
    """A binary64 run produced inf/nan; carries the first offending node."""

    def __init__(self, i: int, k: int):
        super().__init__(f"non-finite value first produced at node (i={i}, k={k})")
        self.i = i
        self.k = k
