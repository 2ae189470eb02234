"""`python -m pdomd`: the `pdomd` command line."""

import sys

from .cli import main

sys.exit(main())
