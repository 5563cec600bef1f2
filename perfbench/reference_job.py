"""A fixed pure-Python job that gauges how fast the host runs right now.

    python3 reference_job.py

The benchmark runs it in a fresh interpreter on the same CPU just before
and just after every timed CLI run, and divides the CLI's times by its
times (see ``bench.measure_cli``). It imports nothing from the program, so
a change to the program cannot move it; only the host can. Its work is of
the CLI's two kinds, because a busy neighbour slows them unequally:

- dicts, sets, sorting and CSV text of a few thousand small records, like
  resolution, ranking and rendering;
- a flat n-squared matrix of ``Fraction`` distances and a strided scan of
  its triples, like the geometry kernels.

It prints one checksum line, which the benchmark checks so that a job that
did not do its work is not taken for a fast host.
"""

import csv
import hashlib
import io
from fractions import Fraction

RECORDS = 3000
MATRIX_SIDE = 140
EXPECTED = "508c0a095e65f462"  # what main() returns


def records() -> str:
    best: dict[tuple[int, int], Fraction] = {}
    for i in range(1, RECORDS):
        key = (i % 61, i % 47)
        d = Fraction(i % 89 + 1, i % 97 + 2) + Fraction(1, 2 ** (i % 7))
        best[key] = min(best[key], d) if key in best else d
    out = io.StringIO()
    writer = csv.writer(out)
    for (a, b), d in sorted(best.items(), key=lambda kv: (-kv[1], kv[0])):
        writer.writerow([f"p-{a:03d}-{b:03d}", f"{float(d):.6f}", str(d)])
    return out.getvalue()


def matrix() -> str:
    n = MATRIX_SIDE
    points = [Fraction(i % 89 + 1, 2 ** (i % 9)) for i in range(n)]
    flat = [abs(a - b) for a in points for b in points]
    broken = 0
    for i in range(0, n, 3):
        row_i = flat[i * n : (i + 1) * n]
        for j in range(i + 1, n, 2):
            row_j = flat[j * n : (j + 1) * n]
            for k in range(j + 1, n, 5):
                broken += row_i[j] > max(row_i[k], row_j[k])
    return f"{broken} {sum(flat)}"


def main() -> str:
    return hashlib.sha256((records() + matrix()).encode()).hexdigest()[:16]


if __name__ == "__main__":
    print(main())
