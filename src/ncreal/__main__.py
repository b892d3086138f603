"""`python -m ncreal ...` runs the command line front end (see ncreal.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
