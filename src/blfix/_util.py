"""Small shared helpers."""

import json
import math
import os
import tempfile

from .errors import InvalidArgument, ParseError


def check_positive(name: str, value: float) -> None:
    """Raise InvalidArgument unless value is a finite positive number."""
    if not (math.isfinite(value) and value > 0.0):
        raise InvalidArgument(f"{name} must be finite and positive")


def check_nonnegative(name: str, value: float) -> None:
    """Raise InvalidArgument unless value is a finite nonnegative number."""
    if not (math.isfinite(value) and value >= 0.0):
        raise InvalidArgument(f"{name} must be finite and nonnegative")


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file in the same directory plus rename.

    A failure mid-write never leaves a partial file at the destination.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _reject_constant(token: str):
    raise ParseError(f"non-finite number {token!r} is not allowed")


def read_json(path: str, convert):
    """Read the JSON file at path and return convert(obj) of its content.

    NaN and Infinity are rejected. Malformed input raises ParseError naming the
    file: text that is not UTF-8, bad or too deeply nested JSON, and entries
    that convert cannot use (a ValueError or TypeError inside it, such as a
    non-numeric entry or a ragged row).
    """
    try:
        with open(path) as fh:
            obj = json.loads(fh.read(), parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        return convert(obj)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
