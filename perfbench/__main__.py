"""``python3 -m perfbench``: see ``perfbench.cli``."""

import sys

try:
    from perfbench.cli import main
except ImportError as exc:  # no ``repro`` beside us: nothing to measure
    print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
    sys.exit(2)

if __name__ == "__main__":
    sys.exit(main())
