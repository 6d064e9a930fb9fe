"""``python -m gxplain``: the ``gxplain`` command without an install."""

import sys

from .cli import main

if __name__ == "__main__":  # not when a spawned worker imports this module
    sys.exit(main())
