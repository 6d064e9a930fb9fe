"""The one way gxplain writes an output file.

Every writer builds its bytes in memory and hands them to
:func:`write_atomic`, which makes the target's missing parent directories:
the bytes go to a fresh temporary file beside the target, which then
replaces the target in one ``os.replace``.  A reader never sees a
half-written file, and a failed write leaves the previous file as it was
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
    """Replace ``path`` with ``data``, all or nothing, making the missing
    parent directories first (they stay if the write then fails).

    The temporary file lies beside the target under a name of fixed
    length, unique per call: concurrent writers never share one, and any
    target name the directory allows can be written.  It is opened
    exclusively with the mode a plain ``open`` gives (the process umask
    applies).  A failed write raises an :class:`OSError` naming ``path``.
    """
    path = os.fspath(path)
    parent = os.path.dirname(path)
    tmp = os.path.join(parent, f".gxplain.{os.urandom(8).hex()}.tmp")
    try:
        os.makedirs(parent or os.curdir, exist_ok=True)
        fh = open(tmp, "xb")
        try:
            with fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
    except OSError as exc:
        # the temporary name changes from call to call; the target does not
        raise OSError(exc.errno, exc.strerror, path) from exc


def write_json(path, doc) -> None:
    write_atomic(path, json_text(doc).encode("utf-8"))
