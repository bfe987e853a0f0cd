"""`python -m memomut`: the `memomut` command."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
