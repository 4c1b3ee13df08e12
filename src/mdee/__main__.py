"""The `mdee` command: `python -m mdee`, and the script that [project.scripts] installs.

OpenBLAS starts a thread pool when numpy is imported, and a process of more
than one thread does not fork (`parallel.process_count`), so an unpinned
`mdee run` or `mdee oracle` would run in one process. BLAS threads buy
nothing at these matrix sizes, so the command pins each BLAS variable the
caller left unset to one thread before the CLI, and numpy, are imported.
Library callers who import `mdee.cli` keep their own environment.
"""

import os
import sys

for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(variable, "1")

from .cli import main  # noqa: E402  (after the pin, which must precede numpy's import)

if __name__ == "__main__":
    sys.exit(main())
