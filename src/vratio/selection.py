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
    passes the residual check of `solve`.

    The method's entry in estimators.SYSTEMS says what to build and how to
    solve; nothing here tests the method. Its kernel picks one basis
    function of two point sets (_basis): the V-matrix for DRE-V, the INK
    Gram, or the RBF squared distances, of which every sigma2's Gram is an
    exp. A V-matrix, INK or RBF entry depends only on its pair of points,
    so a block of a full-data matrix, taken with the fold's sorted training
    indices and holdout indices in fold order, equals the matrix built from
    the fold's points entry for entry. Every fold takes its training
    matrices and its denominator holdout as vmatrix.block of the full-data
    basis and V-matrices, and builds its numerator holdout from the points
    with the basis function, because holding it as a full-data
    denominator-by-numerator matrix raised the peak memory of `vratio fit`
    at n = 800 (benchmark workload fit-1d-large) by 5.7% in a prototype.
    The V-matrices come from vmatrix.build_v_matrices, whose v_matrix picks
    their form from the points: arrays in d > 1, and for 1-D points
    MinKernel operators, whose blocks are the MinKernels of the fold's
    coordinates and whose products are one stable sort and cumulative sums,
    O(n log n + nG) per fold. The form of V'' selects the solver's path.
    The INK Grams come from kernels.gram_matrix, which picks their form
    the same way: for 1-D points InkKernel operators, whose blocks are the
    InkKernels of the fold's coordinates, whose products are one stable
    sort and four cumulative sums, and from whose generators the gamma
    scale tr(V''K) and each fold's W'KW come in closed form.
    The one test of the dimension here passes solve_system `low_rank` for
    the RBF Grams of 1-D points, which are numerically low rank; in d > 1
    they are full rank, and the dense solvers run without a pivoted
    Cholesky of K first. The returned estimate predicts through v_matrix
    and gram_matrix too. The report's `values` are the estimate at its
    centers, the full-data V'' (DRE-V) or Gram applied to its coefficients:
    estimate.predict of the denominator points, without rebuilding either.

    Cost model, with S sigma2 values (1 without RBF), G gammas and k folds:

    * once per draw: the full-data V-matrices V'' and V' (all but uLSIF),
      dense in d > 1 and for 1-D points MinKernel operators (sorts of n and
      ell coordinates); for INK the Gram matrix K (for 1-D points an
      InkKernel, one sort), and for RBF the squared distances D between
      denominator points, which do not depend on sigma2. They serve the
      gamma scaling (one exp of D per sigma2 for RBF; tr(V'') and tr(V''K)
      by vmatrix.trace_product, for a MinKernel one O(n^2) pass over an
      array K per sigma2 and O(n) prefix sums for an InkKernel), every fold
      and the refit (one exp of D, in place, at the selected sigma2).
    * once per fold: the blocks V''[train, train] and V'[train, train_num]
      (all but uLSIF), and for DRE-V the holdout block V''[hold_den, train]
      and the V-matrix of the numerator holdout against the training
      points, v_matrix(x[hold_num], x'[train]): in d > 1 one cross_v of the
      size of the block of V' transposed that it replaces, entry for entry
      equal to it since the overlap volume is symmetric in its two points.
      A block of a MinKernel, and a 1-D holdout's v_matrix, is the
      MinKernel of the picked coordinates, one sort of them. The
      right-hand side V'1 is a product with the block. For INK
      the blocks K[train, train] and K[hold_den, train] and one Gram of the
      numerator holdout against the training points (for 1-D points
      InkKernels of the picked coordinates, one sort each); for RBF the
      blocks D[train, train] and D[hold_den, train] and the squared
      distances of the numerator holdout to the training points. The holdout matrices of
      DRE-V and INK are taken after the fold's solve, which needs the most
      memory (taking every holdout matrix before it raised that peak by
      2.5%). Then the factorisation V'' = W W' that every sigma2 and gamma
      share (all but uLSIF), which drops the zero rows of points on the
      box's upper face and the repeated rows of ties. For a MinKernel V''
      it is the closed form W = E C diag(sqrt h) of the sorted t = 1 - x
      (from the block's own sort, no LAPACK), for an array a pivoted
      Cholesky (dpstrf, n^3/3 flops). For DRE-V with the closed form the
      pencil V''V'' + (gamma/n) V'' then needs nothing more; otherwise the
      tridiagonal reduction of W'W reduces it to T T + (gamma/n) T. A
      MinKernel V'' of which two distinct t, or the smallest t and 0, lie
      closer than solve.NEAR_TIE_GAP (1e-9) takes the pivoted path of its
      dense form for DRE-V, where the closed form loses the residual check.
    * once per (fold, sigma2): for RBF, one exp of the fold's distances into
      one buffer, which holds the training Gram and both holdout matrices.
      For uLSIF and DRE-VK-RBF on 1-D points, whose Grams are numerically
      low rank, a pivoted Cholesky K ~ G G' (dpstrf, O(n^2 r) flops for rank
      r) and one eigendecomposition (dsyevd, O(r^3)) of the r x r Gram Z'Z,
      with its products in O(n r^2): of Z = G for uLSIF, and of Z = W'G for
      DRE-VK, which reverse cumulative sums over the groups of t give in
      O(n r). No dsytrd runs then. A rank above solve.LOW_RANK_MAX_FRAC n
      (0.4 n) takes the dense path below after the dpstrf. Otherwise, for
      uLSIF and DRE-VK one Householder tridiagonal reduction (dsytrd,
      4n^3/3 flops) that serves every gamma: of K for uLSIF, so that
      KK + gamma I = Q (T T + gamma I) Q', and of W'KW for DRE-VK, to which
      the non-symmetric V''K is similar, so that V''K + gamma I reduces to
      T + gamma I. W'KW costs two triangular products (2n^3 flops), or for
      1-D points O(n^2) cumulative sums of an RBF K along both axes in
      descending t, and for the INK InkKernel O(n + r^2): prefix sums of its
      generators read at the group ends, and one (r x 3)(3 x r) product,
      whose lower triangle, the one dpstrf and dsytrd read, is W'KW.
      For 1-D points DRE-VK first tries W'KW ~ Z Z' by a pivoted
      Cholesky (dpstrf, O(n^2 r)) and one dsyevd of the r x r Z'Z, and
      solves every gamma in closed form from it with no dsytrd, as from K
      above; only a rank above 0.4 n reduces W'KW. For INK, W'KW has rank
      95-112 of 639-640 in the folds at n = 800 (benchmark workload
      fit-1d-large), and 31-112 of 159-160 at m = 200, where 141 of 200
      INK folds (seed 7) reduce it after the dpstrf. Then one product of
      each holdout matrix with the n x G coefficient matrix, which scores
      every gamma (for 1-D DRE-V and INK O((n + m) G) cumulative sums for m
      holdout points).
    * per (fold, sigma2, gamma): an O(n) banded Cholesky solve (T T + gamma I
      and T T + (gamma/n) T are pentadiagonal, T + gamma I and the 1-D DRE-V
      system (N + (gamma/n) J) tridiagonal; all gammas go into one LAPACK
      call) and O(n^2) products with Q and W and for the residual check; for
      1-D points V'' enters the residual as an O(n) MinKernel product, so a
      1-D DRE-V column costs O(n) in all, and K enters a 1-D INK residual
      as an O(n) InkKernel product. On the low-rank path the solve is
      O(n r) products with Y = Z V of Z'Z = V diag(lam) V', by the Woodbury
      inverse (I - Y diag(phi) Y') / gamma, in closed form; the residual check
      is the same, against the full K, and refinement uses the same
      low-rank inverse. A 1-D DRE-V column always takes one refinement step
      against that residual, which the double difference J N^-1 J of its
      right-hand side needs for full accuracy.
      On every path, a column that misses the residual bound after two
      refinement steps fails its candidate. Every fold still solves the
      whole gamma grid of every sigma2, failed candidates included, so a
      column's batch, and with it its bits, never depends on what an
      earlier fold failed.

    The refit is fit_system on all data at the selected gamma (and sigma2),
    with the full-data matrices above. It is what the fit_* functions
    compute, so a draw's estimate depends on CV only through the selection.
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
    full_K = None if system.kernel is None or rbf else B  # a Gram that no sigma2 changes
    gammas = []
    for s2 in sigma2_values:
        scale = 1.0
        if plan.scale_gamma:
            scale = system.scale(s, full_vm, rbf_from_sqdist(B, s2) if rbf else full_K)
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
        K = None if full_K is None else block(B, train, train)
        if rbf:
            # rows: training points, denominator holdout, numerator holdout
            dist = np.vstack([block(B, np.concatenate([train, den_hold]), train),
                              basis(s.x[num_hold], sub.x_prime)])
            gram = np.empty_like(dist)
        factor = system.factor(vm)
        for i, s2 in enumerate(sigma2_values):
            if rbf:
                K = rbf_from_sqdist(dist, s2, out=gram)[:sub.n]
            coef, errs = solve_system(method, sub, vm, factor, K, gammas[i], low_rank)
            if rbf:
                hold_den, hold_num = gram[sub.n:s.n], gram[s.n:]
            else:  # built after the solve, which needs the most memory
                hold_den, hold_num = block(B, den_hold, train), basis(s.x[num_hold], sub.x_prime)
            totals[i] += _criteria(coef, hold_den, hold_num, s.n / s.ell)
            for j, err in enumerate(errs):
                if err is not None:
                    totals[i, j] = np.nan
                    errors.setdefault((i, j), err)
        # drop this fold's matrices and factor before the next fold builds its own
        vm = factor = K = coef = hold_den = hold_num = dist = gram = None

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

    if rbf:
        full_K = rbf_from_sqdist(B, best.sigma2, out=B)
    estimate = fit_system(method, s, best.gamma, kernel_spec_for(method, s.d, best.sigma2),
                          full_vm, full_K)
    return CvReport(
        method=method,
        candidates=candidates,
        selected_gamma=best.gamma,
        selected_sigma2=best.sigma2,
        estimate=estimate,
        failures=sum(1 for c in candidates if not c.ok),
        values=(full_vm.v_dd if full_K is None else full_K) @ estimate.coef,
    )
