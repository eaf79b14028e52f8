"""Exception types shared across the package."""


class WeakBiasError(Exception):
    """Base class for package-specific errors."""


class UsageError(WeakBiasError):
    """The caller asked for something incoherent (bad parameter combinations)."""


class InputError(WeakBiasError):
    """Bad input data: malformed files, schema violations, unknown ids or words."""


class NumericError(WeakBiasError):
    """Training or inference produced non-finite values."""


def not_utf8(path: str, exc: UnicodeDecodeError) -> InputError:
    """The error for a text file holding a byte that is not UTF-8. A text
    reader decodes a buffer at a time, so it names the file, not a line."""
    return InputError(
        f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x}: {exc.reason}"
    )
