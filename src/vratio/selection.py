"""k-fold cross-validation of the regularization constant (and RBF bandwidth)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .domain import ScaledSamples, as_points
from .estimators import SYSTEMS, Method, RatioEstimate, fit_system, kernel_spec_for, solve_system
# cross_gram is not called here; benchmarks/test_benchmark.py checks this binding
from .kernels import cross_gram  # noqa: F401
from .kernels import KernelKind, KernelSpec, gram_matrix, rbf_from_sqdist
# solve_regularized is not called here; benchmarks/test_benchmark.py checks this binding
from .solve import solve_regularized  # noqa: F401
from .vmatrix import VMatrices, block, build_v_matrices, v_matrix

# the CV defaults, which `vratio run` and `vratio fit` take from here
DEFAULT_FOLDS = 5
DEFAULT_SEED = 0
DEFAULT_GAMMA_MIN, DEFAULT_GAMMA_MAX, DEFAULT_GAMMA_COUNT = 1e-5, 10.0, 15
DEFAULT_SCALE_GAMMA = True
DEFAULT_SIGMA2_MULTIPLIERS = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0)


class SelectionError(RuntimeError):
    """Every candidate failed to solve."""


def log_grid(lo: float, hi: float, count: int) -> np.ndarray:
    """`count` values from lo to hi, evenly spaced in log; [lo] for a count of 1."""
    if count == 1:
        return np.array([lo])
    return np.logspace(np.log10(lo), np.log10(hi), count)


def default_gamma_grid() -> np.ndarray:
    """Log grid of regularization multipliers.

    By default the grid entries are interpreted relative to the mean
    eigenvalue of the system operator (see CvPlan.scale_gamma), which keeps
    one grid meaningful across dimensions and kernels: the operator norm of
    the overlap-volume matrices shrinks geometrically with the dimension.
    """
    return log_grid(DEFAULT_GAMMA_MIN, DEFAULT_GAMMA_MAX, DEFAULT_GAMMA_COUNT)


def median_sigma2(pooled_points) -> float:
    """Median pairwise squared distance of the pooled scaled data."""
    pts = as_points(pooled_points)
    if pts.shape[0] < 2:
        return 1.0
    med = float(np.median(pdist(pts, "sqeuclidean")))
    if med <= 0.0:
        med = max(float(np.mean(pdist(pts, "sqeuclidean"))), 1e-2)
    return med


def default_sigma2_grid(pooled_points, multipliers=DEFAULT_SIGMA2_MULTIPLIERS) -> np.ndarray:
    return np.asarray(multipliers, dtype=float) * median_sigma2(pooled_points)


def _positive_grid(values, what: str) -> np.ndarray:
    """`values` sorted, or ValueError unless they are nonempty, finite, positive
    and distinct: a repeated value would score the same candidate twice."""
    grid = np.sort(np.asarray(values, dtype=float))
    if grid.size == 0 or not np.all(np.isfinite(grid) & (grid > 0)):
        raise ValueError(f"{what} must be nonempty, finite and positive")
    if np.any(grid[1:] == grid[:-1]):
        raise ValueError(f"{what} must not repeat a value, got {grid.tolist()}")
    return grid


def _check_folds_and_seed(k, seed):
    """ValueError unless the fold count k is an integer of at least 2 and the
    seed a nonnegative integer."""
    # np.array_split would silently truncate a fold count of 2.5 to 2 folds
    if not isinstance(k, (int, np.integer)) or k < 2:
        raise ValueError(f"fold count must be an integer of at least 2, got {k!r}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


@dataclass
class CvPlan:
    """The settings of one cross-validation, checked on construction.

    ValueError for a fold count k that is not an integer of at least 2, a
    seed that is not a nonnegative integer, and a gamma grid, sigma2 grid
    (when given) or tuple of sigma2 multipliers that is empty or holds a
    value that is not finite and positive or a repeated value. The grids
    are stored sorted. The bound k <= min(n, ell) depends on the samples,
    so make_folds checks it.
    """

    k: int = DEFAULT_FOLDS
    gamma_grid: np.ndarray = field(default_factory=default_gamma_grid)
    sigma2_grid: np.ndarray | None = None  # RBF only; None -> median heuristic grid
    seed: int = DEFAULT_SEED
    # interpret gamma_grid as multipliers of tr(M)/n for the method's system
    # matrix M; False means absolute values
    scale_gamma: bool = DEFAULT_SCALE_GAMMA
    # used when sigma2_grid is None: multipliers of the median pairwise
    # squared distance of the pooled scaled data
    sigma2_multipliers: tuple = DEFAULT_SIGMA2_MULTIPLIERS

    def __post_init__(self):
        self.gamma_grid = _positive_grid(self.gamma_grid, "gamma_grid")
        if self.sigma2_grid is not None:
            self.sigma2_grid = _positive_grid(self.sigma2_grid, "sigma2_grid")
        _positive_grid(self.sigma2_multipliers, "sigma2_multipliers")
        _check_folds_and_seed(self.k, self.seed)


@dataclass(frozen=True)
class Candidate:
    gamma: float
    sigma2: float | None
    criterion: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class CvReport:
    method: Method
    candidates: list
    selected_gamma: float
    selected_sigma2: float | None
    estimate: RatioEstimate
    failures: int
    values: np.ndarray  # the estimate at its centers, estimate.predict of the denominator points


def make_folds(n: int, ell: int, k: int, seed: int):
    """Independently shuffle both index sets and split each into k near-equal parts.

    Returns (numerator_folds, denominator_folds), each a list of k holdout
    index arrays. ValueError, with CvPlan's messages, for a k that is not an
    integer of at least 2 or a seed that is not a nonnegative integer, and
    for k > min(n, ell).
    """
    _check_folds_and_seed(k, seed)
    if k > min(n, ell):
        raise ValueError(f"k={k} exceeds min(n, ell)={min(n, ell)}")
    rng = np.random.default_rng(seed)
    num_folds = np.array_split(rng.permutation(ell), k)
    den_folds = np.array_split(rng.permutation(n), k)
    return num_folds, den_folds


def _basis(kernel: KernelKind | None, d: int):
    """The function of two point sets that builds a method's matrices in
    cross-validation, the full-data basis of which each fold takes blocks
    and each fold's numerator holdout: the V-matrix for DRE-V, the INK Gram
    (kernels.gram_matrix: an InkKernel operator for 1-D points), or for RBF
    the squared distances, which do not depend on sigma2."""
    if kernel is None:
        return v_matrix
    if kernel is KernelKind.RBF:
        return lambda rows, cols: cdist(rows, cols, "sqeuclidean")
    spec = KernelSpec(kernel, d)
    return lambda rows, cols: gram_matrix(spec, rows, cols)


def _criteria(coef, hold_den, hold_num, n_over_l) -> np.ndarray:
    """Least-squares criterion 0.5 sum r(z')^2 - (n/ell) sum r(z) on the holdout
    points for every column of the n x G coefficient matrix; `hold_den` and
    `hold_num` map coefficients to values at the denominator and numerator
    holdout points."""
    pred_den = hold_den @ coef
    pred_num = hold_num @ coef
    return 0.5 * np.sum(pred_den**2, axis=0) - n_over_l * np.sum(pred_num, axis=0)


def cross_validate(s: ScaledSamples, method: Method, plan: CvPlan) -> CvReport:
    """Grid-search gamma (and sigma2 for RBF) by k-fold CV, then refit on all data.

    The fold criterion sums are deterministic given the plan seed; ties are
    broken toward the larger gamma. Candidates whose solve fails on any fold
    are recorded and excluded from selection; every accepted fold solution
    passes the residual check of `solve`. SelectionError if every candidate
    fails.

    Every method takes one fold path from its entry in estimators.SYSTEMS
    and one basis function of two point sets (_basis); nothing here tests
    the method. A V-matrix, INK or RBF entry depends only on its pair of
    points, so each fold takes its training block (for DRE-V, its V'') and
    denominator holdout as vmatrix.block of the full-data basis, equal
    entry for entry to the matrices of the fold's points, and builds its
    numerator holdout from the points. RBF differs only in its sigma2 map,
    exp(-D / 2 sigma2) of those three parts. Every fold solves the whole
    gamma grid of every sigma2, so a column's bits never depend on what an
    earlier fold failed. `low_rank` is set for the RBF Grams of 1-D points.

    The refit is fit_system on all data at the selected gamma (and sigma2)
    with the full-data matrices, so a draw's estimate depends on CV only
    through the selection. The report's `values` are estimate.predict of
    the denominator points, from the refit's V'' (DRE-V) or Gram. README
    "Cost" has the cost per draw, fold, (fold, sigma2) and gamma.
    """
    system = SYSTEMS[method]
    num_folds, den_folds = make_folds(s.n, s.ell, plan.k, plan.seed)
    rbf = system.kernel is KernelKind.RBF
    sigma2_values = [None]
    if rbf:
        sigma2_grid = plan.sigma2_grid
        if sigma2_grid is None:
            sigma2_grid = default_sigma2_grid(s.pooled(), plan.sigma2_multipliers)
        sigma2_values = [float(v) for v in sigma2_grid]

    basis = _basis(system.kernel, s.d)
    full_vm = build_v_matrices(s) if system.uses_v else None
    # the basis of the full data: V'', the INK Gram or the RBF distances D
    B = full_vm.v_dd if system.kernel is None else basis(s.x_prime, s.x_prime)

    # M as it is, or for RBF the Gram exp(-M / 2 s2) of its squared distances
    def gram(M, s2, out=None):
        return M if s2 is None else rbf_from_sqdist(M, s2, out=out)

    gammas = []
    for s2 in sigma2_values:
        scale = system.scale(s, full_vm, gram(B, s2)) if plan.scale_gamma else 1.0
        gammas.append(plan.gamma_grid * (scale if np.isfinite(scale) and scale > 0.0 else 1.0))
    # criterion sums over the folds, NaN once a fold fails the candidate, and
    # each failed candidate's first message by its (sigma2, gamma) indices
    totals = np.zeros((len(sigma2_values), plan.gamma_grid.size))
    errors = {}

    # the RBF Grams of 1-D points are numerically low rank
    low_rank = rbf and s.d == 1

    for num_hold, den_hold in zip(num_folds, den_folds):
        num_train = np.setdiff1d(np.arange(s.ell), num_hold)
        train = np.setdiff1d(np.arange(s.n), den_hold)
        sub = s.subset(num_train, train)
        vm = None if full_vm is None else VMatrices(block(full_vm.v_dd, train, train),
                                                    block(full_vm.v_dn, train, num_train))
        factor = system.factor(vm)
        # the fold's parts of the basis: its training block (DRE-V's V'' is
        # vm.v_dd) and its denominator and numerator holdouts
        B_train = None if system.kernel is None else block(B, train, train)
        B_den, B_num = block(B, den_hold, train), basis(s.x[num_hold], sub.x_prime)
        for i, s2 in enumerate(sigma2_values):
            K, hold_den, hold_num = gram(B_train, s2), gram(B_den, s2), gram(B_num, s2)
            coef, errs = solve_system(method, sub, vm, factor, K, gammas[i], low_rank)
            totals[i] += _criteria(coef, hold_den, hold_num, s.n / s.ell)
            for j, err in enumerate(errs):
                if err is not None:
                    totals[i, j] = np.nan
                    errors.setdefault((i, j), err)
            # drop this sigma2's Grams before the next sigma2 maps its own
            K = hold_den = hold_num = coef = None
        # drop this fold's matrices and factor before the next fold builds its own
        vm = factor = B_train = B_den = B_num = None

    candidates = [
        Candidate(float(g), s2, float(totals[i, j]), errors.get((i, j)))
        for i, s2 in enumerate(sigma2_values)
        for j, g in enumerate(gammas[i])
    ]
    valid = [c for c in candidates if c.ok]
    if not valid:
        detail = "; ".join(c.error for c in candidates[:5])
        raise SelectionError(f"all {len(candidates)} candidates failed to solve: {detail}")

    # the smallest criterion, then the larger gamma, then the later candidate
    # in grid order (sigma2 then gamma, both ascending)
    best = min(reversed(valid), key=lambda c: (c.criterion, -c.gamma))

    B = gram(B, best.sigma2, out=B)
    estimate = fit_system(method, s, best.gamma, kernel_spec_for(method, s.d, best.sigma2),
                          full_vm, None if system.kernel is None else B)
    return CvReport(
        method=method,
        candidates=candidates,
        selected_gamma=best.gamma,
        selected_sigma2=best.sigma2,
        estimate=estimate,
        failures=sum(1 for c in candidates if not c.ok),
        values=B @ estimate.coef,
    )
