"""The one way gxplain writes an output file.

Every writer builds its bytes in memory and hands them to
:func:`write_atomic`: they go to a fresh temporary file beside the target,
which then replaces the target in one ``os.replace``.  A reader never sees
a half-written file, and a failed write leaves the previous file as it was
and no temporary file behind.
"""

import contextlib
import json
import os


# the settings of every gxplain document: compact, no NaN/inf; without
# ``indent`` the stdlib encodes with its C encoder
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def json_value(value) -> str:
    """``value`` as compact JSON, laid out as it is inside
    :func:`json_text`, with no newline: a piece of a document."""
    return _ENCODER.encode(value)


def json_text(doc) -> str:
    """The JSON layout of every gxplain document: compact one-line JSON
    ending in a newline, no NaN/inf.

    ``python -m json.tool FILE`` pretty-prints a document; a ``.gz``
    dataset is this text at gzip level 6 with no time stamp.
    """
    return json_value(doc) + "\n"


def write_atomic(path, data: bytes) -> None:
    """Replace ``path`` with ``data``, all or nothing.

    The temporary name is unique per call, so concurrent writers never
    share one, and it is opened exclusively with the mode a plain
    ``open`` gives (the process umask applies).
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_json(path, doc) -> None:
    write_atomic(path, json_text(doc).encode("utf-8"))
