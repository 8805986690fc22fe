"""Error taxonomy shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, precondition failures (infeasible pools, exceeded enumeration
caps) with 3, and numeric failures (divergence, non-finite values) with 4.
"""


class UscrlError(Exception):
    """Base class for package errors."""


class ConfigError(UscrlError):
    """Invalid configuration value or malformed config structure."""


class FormatError(ConfigError):
    """Malformed input file (bad magic, truncated payload, count mismatch)."""


class PreconditionError(UscrlError):
    """Operation preconditions not met by the data (e.g. no feasible class)."""


class SizeError(PreconditionError):
    """Requested exact enumeration exceeds the configured cap."""

    def __init__(self, count: int, cap: int, what: str = "tuple enumeration"):
        self.count = count
        self.cap = cap
        super().__init__(f"{what}: {count} terms exceeds cap {cap}")


class NumericError(UscrlError):
    """Numeric failure at runtime (divergence, non-finite values)."""
