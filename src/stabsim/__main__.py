"""`python -m stabsim`: the `stabsim` command (see `stabsim.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
