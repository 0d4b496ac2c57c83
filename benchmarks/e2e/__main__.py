"""Entry point: ``python -m benchmarks.e2e`` from the repository root."""

import os
import sys
from pathlib import Path

from . import BLAS_THREAD_VARS

if __name__ == "__main__":
    # One single-threaded load process: the pins must precede numpy's import.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = Path(__file__).resolve().parents[2] / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"benchmarks.e2e: the program's source is missing: {src / 'repro'}")
    sys.path.insert(0, str(src))

    from .cli import main

    sys.exit(main())
