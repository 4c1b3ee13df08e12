"""Pin BLAS to one thread before any test module imports numpy, as the `mdee` command does.

With OpenBLAS's thread pool running the process has more than one thread and
`parallel.process_count` keeps every trial and oracle loop in one process, so
the suite would neither test the forked route nor get its speed.
`tests/test_parallel.py` checks that the pin took.
"""

import os

for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(variable, "1")
