"""Run the perimetric end-to-end benchmark from the repository root:

    python3 perfbench/run.py --workload {tenant_scan,group_bands,wide_principal,family_audit,all}
                             [--seed N] [--seconds S] [--trace 0|1]

The program under test is imported and run from ``src/`` beside this
directory; without it the benchmark exits with an error and no result.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "perimetric" / "cli.py").is_file():
        sys.exit(f"error: no perimetric sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import bench

    sys.exit(bench.main(sys.argv[1:]))
