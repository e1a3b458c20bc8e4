"""``python -m slsnet``: the same command line as the ``slsnet`` script."""

import sys

from .cli import main

sys.exit(main())
