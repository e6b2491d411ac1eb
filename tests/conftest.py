"""Suite-wide set-up: one BLAS thread, as CI and the benchmark run.

Small dense solves (the test oracles) run far slower when OpenBLAS spreads
them over several threads.  The variables take effect only if they are set
before numpy is first imported, which pytest has not done when it loads this
file; values already set in the environment win.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
