"""`python -m vratio run|fit ...`: the same command line as the `vratio` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
