"""Pin BLAS to one thread before any test module imports numpy.

The tests multiply matrices of 64 rows, where a second BLAS thread adds CPU
time and no speed.  This root conftest loads before ``bench/`` and
``tests/`` are collected, so the setting reaches numpy's first import; a
value already set in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
