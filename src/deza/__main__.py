"""Run the command-line front end as ``python -m deza``."""

import sys

from .cli import main

sys.exit(main())
