"""``python -m mhnnsync``: the command line interface of ``mhnnsync.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
