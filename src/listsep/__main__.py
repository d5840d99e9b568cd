"""`python -m listsep`: the same command line as the `listsep` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
