"""Document and field checks shared by the JSON loaders.

Each helper returns the converted value or raises :class:`ParseError`
naming where in the file the bad value sits, so a malformed document ends
in a one-line message rather than a ``KeyError`` or ``ValueError``.
"""

import gzip
import itertools
import json
import math
import zlib

import numpy as np

from .errors import ParseError, VersionMismatch

# the largest count or width gxplain accepts: numpy or Python refuse a
# larger array or list with a traceback, not with MemoryError
MAX_SIZE = 2**31 - 1


def _shown(value) -> str:
    """``repr(value)`` cut to 60 characters, so that an error naming a
    refused value stays one short line whatever its size."""
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _listed(values) -> str:
    """The first three ``values`` through :func:`_shown` and a count of
    the rest, so that an error naming many values stays one short line."""
    shown = ", ".join(map(_shown, values[:3]))
    rest = len(values) - 3
    return f"{shown} and {rest} more" if rest > 0 else shown


def read_document(fh, where: str, version: int) -> dict:
    """The top-level JSON object read from the binary file ``fh``.

    Raises:
        ParseError: the bytes are not UTF-8, not JSON, nested too
            deeply to decode, or corrupt gzip data, or the top level is
            not an object.
        VersionMismatch: ``format_version`` is not ``version``.
    """
    try:
        doc = json.loads(fh.read().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{where}: not UTF-8 text ({exc})") from exc
    except ValueError as exc:  # bad JSON, or an integer of too many digits
        raise ParseError(f"{where}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{where}: JSON nested too deeply ({exc})") from exc
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise ParseError(f"{where}: truncated or corrupt ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected a JSON object at top level")
    found = as_int(
        require(doc, "format_version", where), f"{where}: format_version"
    )
    if found != version:
        raise VersionMismatch(
            f"{where}: format_version {_shown(found)}, expected {version}"
        )
    return doc


def require(doc, key: str, where: str):
    """``doc[key]`` of a JSON object."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object")
    if key not in doc:
        raise ParseError(f"{where}: missing field {key!r}")
    return doc[key]


def read_field(doc, key: str, read, where: str):
    """``read(doc[key])`` of a JSON object, located as ``where: key``."""
    return read(require(doc, key, where), f"{where}: {key}")


def as_int(value, where: str) -> int:
    """A JSON integer (booleans and integral floats are not integers)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {_shown(value)}")
    return value


def as_float(value, where: str) -> float:
    """A finite JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {_shown(value)}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(
            f"{where}: expected a finite number, got {_shown(value)}"
        )
    return number


def as_str(value, where: str) -> str:
    """A JSON string."""
    if not isinstance(value, str):
        raise ParseError(f"{where}: expected a string, got {_shown(value)}")
    return value


def as_bool(value, where: str) -> bool:
    """A JSON boolean."""
    if not isinstance(value, bool):
        raise ParseError(
            f"{where}: expected true or false, got {_shown(value)}"
        )
    return value


def as_list(value, where: str) -> list:
    """A JSON array."""
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list, got {_shown(value)}")
    return value


def as_float_array(value, where: str) -> np.ndarray:
    """A (possibly nested) JSON array of finite numbers as a float64
    array."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise ParseError(f"{where}: expected numbers ({exc})") from exc
    if arr.ndim == 0 or arr.dtype.kind not in "iuf":
        raise ParseError(f"{where}: expected a list of numbers")
    # numpy reads a boolean among numbers as 0 or 1; the nesting is
    # regular here, so flattening it takes ndim - 1 steps
    flat = value
    for _ in range(arr.ndim - 1):
        flat = itertools.chain.from_iterable(flat)
    if bool in set(map(type, flat)):
        raise ParseError(f"{where}: expected numbers, got a boolean")
    if not np.isfinite(arr).all():
        raise ParseError(f"{where}: expected finite numbers")
    return arr.astype(np.float64)
