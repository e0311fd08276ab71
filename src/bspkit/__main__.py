"""``python -m bspkit``: the ``bspkit`` command line, as the installed script runs it."""

import sys

from .cli import main

sys.exit(main())
