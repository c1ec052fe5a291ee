"""Small shared utilities: validation helpers."""

from repro.util.validation import (
    check_positive,
    check_square,
    check_symmetric,
    require,
)

__all__ = [
    "check_positive",
    "check_square",
    "check_symmetric",
    "require",
]
