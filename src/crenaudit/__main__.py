"""``python -m crenaudit``: the ``crenaudit`` console command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
