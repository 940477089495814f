import os
import sys
from pathlib import Path

# One BLAS thread unless the caller chose otherwise, as bench/run.py does, so
# that test timings do not swing with host load.  numpy is not imported yet.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).parent))

FIXTURES = Path(__file__).parent / "fixtures"
