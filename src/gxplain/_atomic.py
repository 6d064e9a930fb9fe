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


def json_text(doc) -> str:
    """The JSON layout of every gxplain document: compact one-line JSON
    ending in a newline, no NaN/inf.

    Without ``indent`` the stdlib writes with its C encoder.
    ``python -m json.tool FILE`` pretty-prints a document; a ``.gz``
    dataset is this text at gzip level 6 with no time stamp.
    """
    return json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n"


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
