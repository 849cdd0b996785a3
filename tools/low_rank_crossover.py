"""Time the solvers' low-rank paths against their dense paths, per rank fraction.

On n uniform 1-D points (n = 40, 80, 160 and 640 by default), each solver
with a low-rank path in vratio.solve solves 15 gammas of the default grid,
scaled as cross-validation scales them, in two ways: with LOW_RANK_MAX_FRAC
set to 1, so that it solves from the factor, and set to 0, so that every
column takes the dense path after the same pivoted Cholesky. The
solvers are those of uLSIF (solve_ridge_square_many) and DRE-VK-RBF
(solve_product_ridge_many) with low_rank=True on RBF Grams, whose rank
falls as sigma2 grows, and DRE-VK-INK (solve_product_ridge_many with the
InkKernel), whose W'KW has the rank the points give it. rank/n is the rank
of the factored matrix over its order: K for RBF and W'KW for INK. With
the cut at 0, the DRE-VK-RBF solve also refuses W'KW's factor and reduces
W'KW.

Prints one row per solve, the best of --repeat timings on one BLAS thread,
and per solver and n the largest rank fraction at which the low-rank path
was faster and the smallest at which it was slower: the crossover that
LOW_RANK_MAX_FRAC's comment records.

    python3 tools/low_rank_crossover.py [--sizes 40 80 160 640] [--repeat 5]
"""

import argparse
import os
import sys
import timeit
from pathlib import Path

# one BLAS thread, as the benchmark runs; set before numpy loads OpenBLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from vratio import solve  # noqa: E402
from vratio.kernels import InkKernel, KernelKind, KernelSpec, cross_gram  # noqa: E402
from vratio.selection import default_gamma_grid  # noqa: E402
from vratio.vmatrix import min_kernel, trace_product  # noqa: E402

# wide enough that the RBF Grams run from rank n down to a few at every size
SIGMA2_GRID = np.logspace(-6.0, 0.0, 25)


def best_ms(fn, frac: float, repeat: int) -> float:
    """The fastest of `repeat` calls of fn with LOW_RANK_MAX_FRAC = frac, in ms."""
    saved = solve.LOW_RANK_MAX_FRAC
    solve.LOW_RANK_MAX_FRAC = frac
    try:
        return 1e3 * min(timeit.repeat(fn, number=1, repeat=repeat))
    finally:
        solve.LOW_RANK_MAX_FRAC = saved


def cases(n: int):
    """(kernel, solver, sigma2, rank, order, solve) for n uniform points."""
    rng = np.random.default_rng(n)
    x = rng.random(n)
    V = min_kernel(x[:, None], x[:, None])
    factor = solve.factor_v_matrix(V)
    b = rng.standard_normal(n)
    bv = V @ b
    grid = default_gamma_grid()
    ink = InkKernel(x, x)
    S = factor.congruence(ink)
    g = grid * trace_product(V, ink) / n
    yield ("ink", "product_many", None, solve.pivoted_cholesky(S).rank, S.shape[0],
           lambda: solve.solve_product_ridge_many(factor, ink, g, bv))
    for sigma2 in SIGMA2_GRID:
        K = cross_gram(KernelSpec(KernelKind.RBF, 1, sigma2), x[:, None], x[:, None])
        rank = solve.pivoted_cholesky(K).rank
        g_sq, g_v = grid * np.sum(K * K) / n, grid * trace_product(V, K) / n
        yield ("rbf", "ridge_square", sigma2, rank, n,
               lambda K=K, g=g_sq: solve.solve_ridge_square_many(K, g, b, low_rank=True))
        yield ("rbf", "product", sigma2, rank, n,
               lambda K=K, g=g_v: solve.solve_product_ridge_many(factor, K, g, bv,
                                                                 low_rank=True))


def crossover(rows) -> tuple:
    """The largest rank fraction at which the low-rank path was faster and
    the smallest at which it was not (None where there is none)."""
    faster = [frac for frac, low, dense in rows if low < dense]
    slower = [frac for frac, low, dense in rows if low >= dense]
    return max(faster, default=None), min(slower, default=None)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[40, 80, 160, 640])
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    print(f"{'kernel':6} {'solver':12} {'n':>4} {'sigma2':>8} {'rank':>4} {'rank/n':>6} "
          f"{'low ms':>8} {'dense ms':>8} {'ratio':>6}")
    summary = {}
    for n in args.sizes:
        for kernel, solver, sigma2, rank, order, fn in cases(n):
            low, dense = best_ms(fn, 1.0, args.repeat), best_ms(fn, 0.0, args.repeat)
            frac = rank / order
            summary.setdefault((kernel, solver, n), []).append((frac, low, dense))
            s2 = "-" if sigma2 is None else f"{sigma2:.1e}"
            print(f"{kernel:6} {solver:12} {n:4d} {s2:>8} {rank:4d} {frac:6.3f} "
                  f"{low:8.3f} {dense:8.3f} {low / dense:6.2f}")
    for (kernel, solver, n), rows in summary.items():
        fast, slow = crossover(rows)
        print(f"crossover {kernel} {solver} n={n}: low-rank faster up to rank/n "
              f"{'-' if fast is None else f'{fast:.3f}'}, slower from "
              f"{'-' if slow is None else f'{slow:.3f}'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
