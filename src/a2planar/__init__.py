"""Exact engine for the A2 spider calculus and its subfactor double complex."""

import os

# The path-side blocks are at most about 80 x 80, too small for BLAS threads
# to pay off.  With the default threads on a shared 2-core host, 2 of 32
# fresh `flat check --n 8 --hmax 4 --vmax 4` runs stalled at 1.2-1.4 s of
# check time against 0.29-0.45 s; with one thread none did.  This must run
# before numpy is first imported; a value set by the caller wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
