"""`python -m cclab`: the same command line as the `cclab` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
