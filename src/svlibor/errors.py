"""Exception types shared across the package."""


class SvLiborError(Exception):
    """Base class for domain errors raised by this package."""


class CurveError(SvLiborError, ValueError):
    """Invalid discount curve input (for example non-positive bond prices)."""


class ParseError(SvLiborError, ValueError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class InvariantError(SvLiborError, ValueError):
    """A domain invariant failed; the message starts with the field name."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class DecompositionError(SvLiborError, ValueError):
    """Correlation matrix could not be Cholesky-factorized."""


class DegenerateDriftError(SvLiborError, ValueError):
    """An effective mean-reversion speed came out non-positive."""

    def __init__(self, label: str, value: float):
        self.label = label
        self.value = value
        super().__init__(
            f"effective mean reversion {label} = {value:.6g} is not positive; "
            "the affine volatility proxy loses mean reversion"
        )


class StrikeError(SvLiborError, ValueError):
    """Strike outside the supported (displaced) domain."""


class ArbitrageBoundError(SvLiborError, ValueError):
    """Target price violates static no-arbitrage bounds."""


class CorrelationError(SvLiborError, ValueError):
    """Instantaneous correlation undefined because a denominator vanishes."""


class QuadratureError(SvLiborError, ArithmeticError):
    """Numerical integration did not reach the requested accuracy."""


class SimulationError(SvLiborError, ArithmeticError):
    """Path simulation produced a non-finite state."""
