"""``python -m finsub``: the finsub command line."""

import sys

from .cli import main

sys.exit(main())
