"""``python -m nimcore``: the same command line as the ``nimcore`` script."""

import sys

from .cli import main

sys.exit(main())
