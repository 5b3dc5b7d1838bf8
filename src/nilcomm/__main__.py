"""``python -m nilcomm``: the command-line interface of ``nilcomm.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
