"""``python -m geodesy``: the same command line as the ``geodesy`` script."""

import sys

from .cli import main

sys.exit(main())
