"""Bounded-exhaustive checks on every small instance, past the tier-1 slice.

Runs the checks of ``helpers.check_small_trees`` on every labelled tree with
N <= 6 components at rank 2 and N <= 5 at rank 3 (every class with degrees
in 0..r-1, an equal and a skewed polarization; the brute-force twist search
at N <= 4), and ``helpers.check_small_matrices`` on every 3 x 6 matrix over
F2 and every 2 x 4 matrix over F3.  The sizes are fixed; the script takes no
options and needs only the standard library and the package:

    PYTHONPATH=src python tests/exhaustive.py

It prints one line per size with its counts and seconds, and exits non-zero
with the first failing instance on a mismatch.
"""

import time

import helpers

TREES = [(n, (2,) if n == 6 else (2, 3)) for n in range(1, 7)]
MATRICES = [(2, 3, 6), (3, 2, 4)]
BRUTE_MAX = 4


def main() -> None:
    total = time.perf_counter()
    for n, ranks in TREES:
        start = time.perf_counter()
        counts = helpers.check_small_trees(n, ranks, BRUTE_MAX)
        print(f"N = {n}, r in {list(ranks)}: {counts['trees']} trees, "
              f"{counts['balance runs']} balance runs, "
              f"{counts['brute-force runs']} brute-force runs, "
              f"{time.perf_counter() - start:.1f} s", flush=True)
    for p, rows, cols in MATRICES:
        start = time.perf_counter()
        count = helpers.check_small_matrices(p, rows, cols)
        print(f"{rows} x {cols} over F{p}: {count} matrices, "
              f"{time.perf_counter() - start:.1f} s", flush=True)
    print(f"all checks passed in {time.perf_counter() - total:.1f} s")


if __name__ == "__main__":
    main()
