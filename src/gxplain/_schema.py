"""Field checks shared by the JSON loaders.

Each helper returns the converted value or raises :class:`ParseError`
naming where in the file the bad value sits, so a malformed document ends
in a one-line message rather than a ``KeyError`` or ``ValueError``.
"""

import itertools

import numpy as np

from .errors import ParseError


def require(doc, key: str, where: str):
    """``doc[key]`` of a JSON object."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object")
    if key not in doc:
        raise ParseError(f"{where}: missing field {key!r}")
    return doc[key]


def as_int(value, where: str) -> int:
    """A JSON integer (booleans and integral floats are not integers)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def as_float(value, where: str) -> float:
    """A JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    return float(value)


def as_str(value, where: str) -> str:
    """A JSON string."""
    if not isinstance(value, str):
        raise ParseError(f"{where}: expected a string, got {value!r}")
    return value


def as_bool(value, where: str) -> bool:
    """A JSON boolean."""
    if not isinstance(value, bool):
        raise ParseError(f"{where}: expected true or false, got {value!r}")
    return value


def as_list(value, where: str) -> list:
    """A JSON array."""
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list, got {value!r}")
    return value


def as_float_array(value, where: str) -> np.ndarray:
    """A (possibly nested) JSON array of numbers as a float64 array."""
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
    if any(v is True or v is False for v in flat):
        raise ParseError(f"{where}: expected numbers, got a boolean")
    return arr.astype(np.float64)
