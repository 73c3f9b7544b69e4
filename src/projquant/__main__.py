"""``python -m projquant``: the command line of `projquant.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
