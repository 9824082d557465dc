"""``python -m repro`` entry point."""

import os

# Nothing here calls BLAS, but numpy's import starts an OpenBLAS pool
# whose workers spin; set before numpy loads, a value from outside wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
