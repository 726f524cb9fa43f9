"""`python -m chiralwords`: the same command line as `chiralwords`."""

import sys

from .cli import main

sys.exit(main())
