"""``python -m extenders``: the command-line interface of :mod:`extenders.cli`."""

import os
import sys

from .cli import _CLOSED_STDOUT, INPUT_ERROR, main

status = main()
try:
    sys.stdout.flush()
except BrokenPipeError:
    # The reader is gone; without a writable stdout, the flush at exit
    # would fail again and print "Exception ignored".
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if status != INPUT_ERROR:
        print(_CLOSED_STDOUT, file=sys.stderr)
    status = INPUT_ERROR
sys.exit(status)
