"""Multimodal crowdfunding campaign analytics.

Pipeline: ingest campaign snapshots, extract basic / population / text /
image-quality / face features, screen factors per goal band and category
with Bonferroni-corrected Pearson correlations, then classify success with
a from-scratch random forest using early or late fusion.
"""

import os
import sys

# No artifact path uses BLAS, and a process that holds a BLAS or OpenMP thread must not
# fork (parallel.parallel_map does). The thread counts are read when NumPy loads, so
# they can only be defaulted before it does; a value already set is kept.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")
    del _var

__version__ = "0.1.0"
