"""Exception types raised across the package."""


class Error(Exception):
    """Base class for every error this library raises deliberately."""


class ZeroInverse(Error):
    """Attempted inversion of the zero field element."""


class NonCanonical(Error):
    """Decoded or supplied value is not a reduced residue."""


class BadConfig(Error):
    """Configuration text is missing a field or cannot be parsed."""


class InvalidCurve(Error):
    """Curve parameters failed validation."""


class UnsupportedWidth(Error):
    """Recoding width outside the supported range."""


class TableMismatch(Error):
    """Precomputation table does not fit the scalar or curve it was used with."""


class MessageTooLarge(Error):
    """Plaintext exceeds the configured message bound."""


class NotFound(Error):
    """Reverse mapping exhausted its search bound without a match."""


class BadEncoding(Error):
    """Wire bytes are structurally malformed."""


class OffCurvePoint(Error):
    """Decoded coordinates do not satisfy the curve equation."""


class BadScenario(Error):
    """Aggregation scenario file is malformed or inconsistent."""
