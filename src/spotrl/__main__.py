"""``python -m spotrl``: the command line of :mod:`spotrl.cli`."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
