"""``python -m tsbm``: the ``tsbm`` command line."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
