"""python -m labankit runs the command-line entry point."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
