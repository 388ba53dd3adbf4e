"""How blfix fails: the exception types, the argument checks that raise
InvalidArgument, the JSON reader that raises ParseError, and the atomic writer
that never leaves a partial file."""

import contextlib
import json
import math
import os


class BlfixError(Exception):
    """Base class for all blfix errors."""


class CholeskyFailure(BlfixError):
    """A matrix required to be positive definite failed its Cholesky factorization."""


class ConvergenceFailure(BlfixError):
    """An iterative linear-algebra kernel hit its iteration limit."""


class DimensionMismatch(BlfixError):
    """Operands have incompatible dimensions."""


class ShapeMismatch(BlfixError):
    """A structured object (datum, matrix file) has inconsistent shapes."""


class ParseError(BlfixError):
    """A file could not be parsed; the message carries line/field context."""


class TooLarge(BlfixError):
    """A brute-force guard tripped; the instance is beyond desk scale."""


class InvalidShape(BlfixError):
    """Requested generator sizes cannot produce a valid datum."""


class InvalidArgument(BlfixError):
    """An argument is outside its documented domain."""


class ValidationFailed(BlfixError):
    """The datum failed the hard validation checks required for solving."""


class StepFailure(BlfixError):
    """An iterate overflowed or hit an invalid operation; the message names the iteration."""


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

    A failure mid-write never leaves a partial file at the destination. An
    OSError that names a file is raised again naming path, not the temp file.
    The temp file is created with mode 0666 less the umask, as open() would.
    """
    directory, tmp = os.path.dirname(os.path.abspath(path)), ""
    try:
        while not tmp:  # a fresh random name; O_EXCL never takes over an existing file
            name = os.path.join(directory, f".tmp-{os.urandom(6).hex()}~")
            with contextlib.suppress(FileExistsError):
                fd, tmp = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), name
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename is not None:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token!r} is not allowed")


def read_json(path: str, convert):
    """Read the JSON file at path and return convert(obj) of its content.

    Malformed input raises ParseError naming the file: text that is not
    UTF-8, bad or too deeply nested JSON, NaN or Infinity, a boolean anywhere
    (no field is one, and numpy would read true as 1.0), and entries that
    convert cannot use (a ValueError, TypeError or OverflowError inside it,
    such as a non-numeric entry, a ragged row or an integer beyond the doubles).
    """
    try:
        with open(path) as fh:
            obj = json.loads(fh.read(), parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, or a NaN or Infinity
        raise ParseError(f"{path}: {exc}") from exc
    todo = [obj]
    while todo:
        item = todo.pop()
        if isinstance(item, bool):
            raise ParseError(f"{path}: boolean {json.dumps(item)} is not allowed")
        if isinstance(item, list):
            todo.extend(item)
        elif isinstance(item, dict):
            todo.extend(item.values())
    try:
        return convert(obj)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
