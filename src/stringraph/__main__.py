"""Command line entry point for `python -m stringraph`."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
