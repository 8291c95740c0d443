"""``python -m extenders``: the command-line interface of :mod:`extenders.cli`."""

import sys

from .cli import main

sys.exit(main())
