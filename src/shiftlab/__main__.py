"""``python -m shiftlab``: the same command line as the ``shiftlab`` script."""

import sys

from .cli import main

__all__ = ["main"]

if __name__ == "__main__":
    sys.exit(main())
