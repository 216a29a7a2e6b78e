"""``python -m coiso``: the ``coiso`` command line, runnable from a checkout
without installing the console script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
