"""``python -m extenders``: the command-line interface of :mod:`extenders.cli`."""

from .cli import run

run()
