"""`python -m listsep`: the same command line as the `listsep` script."""

import sys

if __name__ == "__main__":
    try:
        from .cli import main
    except MemoryError:
        # Exit 1 would read as a definitive negative verdict; running out of
        # memory is a resource limit (exit 3), as it is inside a command.
        print("error: out of memory", file=sys.stderr)
        sys.exit(3)
    sys.exit(main())
