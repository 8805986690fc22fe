"""Error taxonomy shared across the package.

Each class carries the process exit code and the stderr prefix the CLI
reports it with: configuration problems exit with 2, precondition
failures (infeasible pools, exceeded enumeration caps) with 3, and
numeric failures (divergence, non-finite values) with 4.
"""


class UscrlError(Exception):
    """Base class for package errors."""

    exit_code, prefix = 2, "error"


class ConfigError(UscrlError):
    """Invalid configuration value or malformed config structure."""

    exit_code, prefix = 2, "config error"


class FormatError(ConfigError):
    """Malformed input file (bad magic, truncated payload, count mismatch)."""


class PreconditionError(UscrlError):
    """Operation preconditions not met by the data (e.g. no feasible class)."""

    exit_code, prefix = 3, "precondition error"


class SizeError(PreconditionError):
    """Requested exact enumeration exceeds the configured cap."""


def count_text(count: int) -> str:
    """A term count for a message: in decimal up to 2048 bits, else as the
    power of two its bit length gives. Python refuses to print an int past
    its int-to-str digit limit (4,300 digits by default, never below 640),
    and 2^2048 has 617 digits."""
    bits = count.bit_length()
    return str(count) if bits <= 2048 else f"at least 2^{bits - 1}"


class NumericError(UscrlError):
    """Numeric failure at runtime (divergence, non-finite values)."""

    exit_code, prefix = 4, "numeric error"
