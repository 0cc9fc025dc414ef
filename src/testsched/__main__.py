"""`python -m testsched`: the command-line workbench, runnable from a checkout with src/ on the path."""

import sys

from .cli import main

sys.exit(main())
