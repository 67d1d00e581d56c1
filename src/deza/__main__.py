"""Run the command-line front end as ``python -m deza``."""

import os
import sys

from .cli import main

code = main()
try:
    sys.stdout.flush()
except BrokenPipeError:
    # the reader closed stdout early: send what is left to the null
    # device, so that the interpreter's own last flush cannot fail too
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    code = 1
sys.exit(code)
