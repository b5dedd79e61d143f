"""``python -m textrap``: the command line of :mod:`textrap.cli`."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
