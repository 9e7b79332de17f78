"""Reference kernel that measures how fast the machine runs right now.

Usage: python3 perfbench/speed.py

For every line read from standard input, the script runs the kernel once
and prints the seconds it took. The kernel is fixed numpy/scipy code that
does not use pxdg: triangular solves with a sparse LU factor, a sparse
matrix-vector product and a large array copy, the memory-bound operations
that dominate pxdg's solves. run.py keeps one such process for a run,
samples it after every repetition, and scales the run's timings by the
median sample (see README.md).
The kernel runs in a process of its own so that its memory stays out of
the peak RSS of the workers run.py starts.
"""

from __future__ import annotations

import sys
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

def _laplacian_2d(m: int) -> sp.csc_matrix:
    e = np.ones(m)
    t = sp.diags([-e[:-1], 2.0 * e, -e[:-1]], [-1, 0, 1])
    eye = sp.identity(m)
    return (sp.kron(eye, t) + sp.kron(t, eye)).tocsc()


class ReferenceKernel:
    def __init__(self):
        self._lu = spla.splu(_laplacian_2d(160))
        self._rhs = np.ones(160 * 160)
        n, per_row = 200_000, 10
        rng = np.random.default_rng(0)
        self._mat = sp.csr_matrix(
            (np.ones(n * per_row),
             (np.repeat(np.arange(n), per_row), rng.integers(0, n, n * per_row))),
            shape=(n, n))
        self._vec = np.ones(n)
        self._big = np.ones(8_000_000)

    def sample(self) -> float:
        """Seconds one pass of the kernel takes."""
        t0 = time.perf_counter()
        for _ in range(8):
            self._lu.solve(self._rhs)
        for _ in range(10):
            self._mat @ self._vec
        for _ in range(2):
            self._big.copy()
        return time.perf_counter() - t0


def main() -> None:
    kernel = ReferenceKernel()
    for _ in sys.stdin:
        print(repr(kernel.sample()), flush=True)


if __name__ == "__main__":
    main()
