"""``python -m benchmarks.perf`` / ``python3 benchmarks/perf/__main__.py``."""

import pathlib
import sys

if __name__ == "__main__":
    # run by path, the repo root is not on sys.path yet
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))
    from benchmarks.perf.cli import main

    sys.exit(main())
