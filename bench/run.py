"""Entry point of the realness benchmark; see bench/README.md.

    python3 bench/run.py --workload sdp_small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from its
src/ directory, never from an installed copy.
"""

import os
import sys
from pathlib import Path

# Fixed before numpy loads OpenBLAS.  One thread keeps timings steady on a
# shared machine; the report records the value with nproc.
BLAS_THREADS = "1"


def main():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "ncreal" / "__init__.py").is_file():
        print(f"no ncreal package under {src}: run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness
    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
