"""Benchmark the compiled scan kernel against the pure-Python kernel.

Each workload counts one dilated triangle with both kernels, checks the
reports are identical, and times the best of several repeats.  Run as

    python benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import time

from eqlat.ehrhart import frame_system
from eqlat.frame import triangle_vertices
from eqlat.lattice import Triple, plane_basis
from eqlat.oracle import count, has_compiled

WORKLOADS = [
    # (a, b, c), (m, n), dilation
    ((5, 7, 13), (1, 0), 300),
    ((5, 7, 13), (3, 2), 60),
    ((1, 7, 25), (2, 1), 150),
    ((913, 913, 3235), (2, 1), 6),
    # the skew plane basis here overflows the compiled kernel's int64 guard,
    # so only the arbitrary-precision kernel can take it
    ((139, 2461, 2461), (1, 0), 12),
]


def best_time(fn, repeats):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    if not has_compiled():
        print("compiled kernel not built (EQLAT_NO_EXT?); timing the pure kernel only")

    header = f"{'triangle':>34} {'points':>9} {'pure (s)':>10}"
    if has_compiled():
        header += f" {'compiled (s)':>13} {'speedup':>8}"
    print(header)

    for abc, mn, dil in WORKLOADS:
        t = Triple.from_abc(*abc)
        f, _ = frame_system(t)
        p, q = triangle_vertices(f, *mn)
        basis = plane_basis(t)
        label = f"{abc} x{mn} t={dil}"

        t_py, rep_py = best_time(
            lambda: count(p, q, t, dil, basis=basis, kernel="py"), args.repeats
        )
        line = f"{label:>34} {rep_py.total:>9} {t_py:>10.6f}"
        if has_compiled():
            try:
                t_c, rep_c = best_time(
                    lambda: count(p, q, t, dil, basis=basis, kernel="c"), args.repeats
                )
            except ValueError:
                line += f" {'int64 guard':>13} {'-':>8}"
            else:
                if rep_c != rep_py:
                    raise SystemExit(f"kernel disagreement on {label}: {rep_c} vs {rep_py}")
                line += f" {t_c:>13.6f} {t_py / t_c:>7.1f}x"
        print(line)

    if has_compiled():
        print("kernels agreed on every workload both could run")


if __name__ == "__main__":
    main()
