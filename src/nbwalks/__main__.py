"""``python -m nbwalks``: the same command line as the ``nbwalks`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
