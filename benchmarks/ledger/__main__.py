"""Entry point of both ``python -m benchmarks.ledger`` and the
``BENCHMARK.json`` command ``python3 benchmarks/ledger``."""

import os
import sys
import time

_STARTED = time.perf_counter()
_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
# Run as a directory, sys.path[0] is this package's own directory: its
# modules must be importable as ``benchmarks.ledger.*`` only.
sys.path[:] = [entry for entry in sys.path
               if os.path.abspath(entry or os.getcwd()) != _HERE]
for _entry in (_ROOT, os.path.join(_ROOT, "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.ledger.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(started=_STARTED))
