"""k-fold cross-validation of the regularization constant (and RBF bandwidth)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .domain import ScaledSamples
from .estimators import (
    Method,
    RatioEstimate,
    factor_system,
    fit_system,
    kernel_spec_for,
    solve_system,
)
from .kernels import cross_gram, rbf_from_sqdist
# solve_regularized is not called here; benchmarks/test_benchmark.py checks this binding
from .solve import solve_regularized  # noqa: F401
from .vmatrix import VMatrices, build_v_matrices

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
    pts = np.asarray(pooled_points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] < 2:
        return 1.0
    med = float(np.median(pdist(pts, "sqeuclidean")))
    if med <= 0.0:
        med = max(float(np.mean(pdist(pts, "sqeuclidean"))), 1e-2)
    return med


def default_sigma2_grid(pooled_points, multipliers=DEFAULT_SIGMA2_MULTIPLIERS) -> np.ndarray:
    return np.asarray(multipliers, dtype=float) * median_sigma2(pooled_points)


def _positive_grid(values, what: str) -> np.ndarray:
    """`values` sorted, or ValueError unless they are nonempty, finite and positive."""
    grid = np.sort(np.asarray(values, dtype=float))
    if grid.size == 0 or not np.all(np.isfinite(grid) & (grid > 0)):
        raise ValueError(f"{what} must be nonempty, finite and positive")
    return grid


@dataclass
class CvPlan:
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
        self.gamma_grid = _positive_grid(self.gamma_grid, "gamma grid")
        if self.sigma2_grid is not None:
            self.sigma2_grid = _positive_grid(self.sigma2_grid, "sigma2 grid")
        _positive_grid(self.sigma2_multipliers, "sigma2 multipliers")
        if self.k < 2:
            raise ValueError("fold count must be at least 2")


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


def make_folds(n: int, ell: int, k: int, seed: int):
    """Independently shuffle both index sets and split each into k near-equal parts.

    Returns (numerator_folds, denominator_folds), each a list of k holdout
    index arrays.
    """
    if k > min(n, ell):
        raise ValueError(f"k={k} exceeds min(n, ell)={min(n, ell)}")
    if k < 2:
        raise ValueError("fold count must be at least 2")
    rng = np.random.default_rng(seed)
    num_folds = np.array_split(rng.permutation(ell), k)
    den_folds = np.array_split(rng.permutation(n), k)
    return num_folds, den_folds


def _gamma_scale(method: Method, s: ScaledSamples, vm: VMatrices | None, K) -> float:
    """Mean eigenvalue tr(M)/n of the method's full-data system matrix M.

    For DRE-V the ridge enters as gamma/n, so the scale is
    tr(V'') (making the effective ridge a multiple of tr(V'')/n); for the
    kernel fits M is V''K or KK with the ridge applied directly.
    """
    if method is Method.DRE_V:
        scale = float(np.trace(vm.v_dd))
    elif method is Method.ULSIF_LIKE:
        scale = float(np.sum(K * K)) / s.n
    else:
        scale = float(np.sum(vm.v_dd * K)) / s.n  # tr(V''K), both symmetric
    if not np.isfinite(scale) or scale <= 0.0:
        return 1.0
    return scale


def _block(A: np.ndarray, rows, cols) -> np.ndarray:
    """A[rows][:, cols] in C order, the layout of a matrix built entry by entry."""
    return np.take(A[rows], cols, axis=1)


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

    A V-matrix, INK or RBF entry depends only on its pair of points, so every
    matrix of a fold is a block of a full-data matrix, taken with the fold's
    sorted training indices and holdout indices in fold order. The blocks are
    bit-identical to matrices built from the fold's points.

    Cost model, with S sigma2 values (1 without RBF), G gammas and k folds:

    * once per draw: the full-data V-matrices V'' and V' (all but uLSIF),
      for INK the Gram matrix K, and for RBF the squared distances D between
      denominator points, which do not depend on sigma2. They serve the
      gamma scaling (one exp of D per sigma2 for RBF), every fold and the
      refit (one exp of D, in place, at the selected sigma2).
    * once per fold: the blocks V''[train, train] and V'[train, train_num]
      (all but uLSIF); for DRE-V the holdout blocks V''[hold_den, train] and
      V'[train, hold_num]', equal to the overlap volumes of those pairs since
      max is symmetric; for INK the blocks K[train, train] and
      K[hold_den, train] and one Gram of the numerator holdout against the
      training points; for RBF the blocks D[train, train] and
      D[hold_den, train] and the squared distances of the numerator holdout
      to the training points. The holdout matrices of DRE-V and INK are
      taken after the fold's solve, which needs the most memory. Then the
      factorisation V'' = W W' that every sigma2 and gamma share (all but
      uLSIF), which drops the zero rows of points on the box's upper face
      and the repeated rows of ties. For 1-D points it is the closed form
      W = E C diag(sqrt h) of the sorted t = 1 - x (an O(n log n) sort, no
      LAPACK), else a pivoted Cholesky (dpstrf, n^3/3 flops). For DRE-V
      on 1-D points the pencil V''V'' + (gamma/n) V'' then needs nothing
      more; otherwise the tridiagonal reduction of W'W reduces it to
      T T + (gamma/n) T. 1-D points of which two distinct t, or the smallest
      t and 0, lie closer than solve.NEAR_TIE_GAP (1e-9) take the pivoted
      path for DRE-V, where the closed form loses the residual check.
    * once per (fold, sigma2): for RBF, one exp of the fold's distances into
      one buffer, which holds the training Gram and both holdout matrices.
      For uLSIF and DRE-VK-RBF on 1-D points, whose Grams are numerically
      low rank, a pivoted Cholesky K ~ G G' (dpstrf, O(n^2 r) flops for rank
      r) and one thin SVD in O(n r^2): of G for uLSIF, and of W'G for
      DRE-VK, which reverse cumulative sums over the groups of t give in
      O(n r). No dsytrd runs then. A rank above solve.LOW_RANK_MAX_FRAC n
      (0.4 n) takes the dense path below after the dpstrf. Otherwise, for
      uLSIF and DRE-VK one Householder tridiagonal reduction (dsytrd,
      4n^3/3 flops) that serves every gamma: of K for uLSIF, so that
      KK + gamma I = Q (T T + gamma I) Q', and of W'KW for DRE-VK, to which
      the non-symmetric V''K is similar, so that V''K + gamma I reduces to
      T + gamma I. W'KW costs two triangular products (2n^3 flops), or for
      1-D points O(n^2) cumulative sums of K along both axes in descending
      t. Then one product of each holdout matrix with the
      n x G coefficient matrix, which scores every gamma.
    * per (fold, sigma2, gamma): an O(n) banded Cholesky solve (T T + gamma I
      and T T + (gamma/n) T are pentadiagonal, T + gamma I and the 1-D DRE-V
      system (N + (gamma/n) J) tridiagonal; all gammas go into one LAPACK
      call) and O(n^2) products with Q and W and for the residual check. On
      the low-rank path the solve is O(n r) products with the SVD's U, in
      closed form; the residual check is the same, against the full K, and
      refinement uses the same low-rank inverse. A 1-D DRE-V column always
      takes one refinement step against that residual, which the double
      difference J N^-1 J of its right-hand side needs for full accuracy.
      On every path, a column that misses the residual bound after two
      refinement steps fails its candidate. Every fold still solves the
      whole gamma grid of every sigma2, failed candidates included, so a
      column's batch, and with it its bits, never depends on what an
      earlier fold failed.

    The refit is fit_system on all data at the selected gamma (and sigma2),
    with the full-data matrices above: for DRE-V the folds' own
    solve_system at one gamma, for uLSIF the dense solve_ridge_square_many
    in every dimension, for DRE-VK an LU of V''K + gamma I. It is what the
    fit_* functions compute, so a draw's estimate depends on CV only
    through the selection.
    """
    num_folds, den_folds = make_folds(s.n, s.ell, plan.k, plan.seed)
    uses_rbf = method in (Method.DRE_VK_RBF, Method.ULSIF_LIKE)
    if uses_rbf:
        sigma2_grid = (
            plan.sigma2_grid
            if plan.sigma2_grid is not None
            else default_sigma2_grid(s.pooled(), plan.sigma2_multipliers)
        )
        sigma2_values = [float(v) for v in sigma2_grid]
    else:
        sigma2_values = [None]

    full_vm = None if method is Method.ULSIF_LIKE else build_v_matrices(s)
    ink = kernel_spec_for(method, s.d) if method is Method.DRE_VK_INK else None
    full_K = None if ink is None else cross_gram(ink, s.x_prime, s.x_prime)
    D = cdist(s.x_prime, s.x_prime, "sqeuclidean") if uses_rbf else None
    gammas = []
    for s2 in sigma2_values:
        scale = 1.0
        if plan.scale_gamma:
            K = rbf_from_sqdist(D, s2) if uses_rbf else full_K
            scale = _gamma_scale(method, s, full_vm, K)
        gammas.append(plan.gamma_grid * scale)
    # criterion sums over the folds, NaN once a fold fails the candidate, and
    # each failed candidate's first message by its (sigma2, gamma) indices
    totals = np.zeros((len(sigma2_values), plan.gamma_grid.size))
    errors = {}

    n_over_l = s.n / s.ell
    all_num = np.arange(s.ell)
    all_den = np.arange(s.n)

    for num_hold, den_hold in zip(num_folds, den_folds):
        num_train = np.setdiff1d(all_num, num_hold)
        train = np.setdiff1d(all_den, den_hold)
        sub = s.subset(num_train, train)
        vm = None if full_vm is None else VMatrices(
            _block(full_vm.v_dd, train, train), _block(full_vm.v_dn, train, num_train))
        K = _block(full_K, train, train) if ink is not None else None
        if uses_rbf:
            # rows: training points, denominator holdout, numerator holdout
            dist = np.vstack([_block(D, np.concatenate([train, den_hold]), train),
                              cdist(s.x[num_hold], sub.x_prime, "sqeuclidean")])
            gram = np.empty_like(dist)
        factor = factor_system(method, vm, sub.x_prime)
        for i, s2 in enumerate(sigma2_values):
            if uses_rbf:
                K = rbf_from_sqdist(dist, s2, out=gram)[:sub.n]
            coef, errs = solve_system(method, sub, vm, factor, K, gammas[i])
            # built after the solve, which needs the most memory
            if uses_rbf:
                hold_den, hold_num = gram[sub.n:s.n], gram[s.n:]
            elif ink is not None:
                hold_den = _block(full_K, den_hold, train)
                hold_num = cross_gram(ink, s.x[num_hold], sub.x_prime)
            else:
                hold_den = _block(full_vm.v_dd, den_hold, train)
                hold_num = _block(full_vm.v_dn.T, num_hold, train)  # max is symmetric
            totals[i] += _criteria(coef, hold_den, hold_num, n_over_l)
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

    best = None
    for cand in valid:  # grid order: sigma2 then gamma, both ascending
        if best is None or cand.criterion < best.criterion or (
            cand.criterion == best.criterion and cand.gamma >= best.gamma
        ):
            best = cand

    if uses_rbf:
        full_K = rbf_from_sqdist(D, best.sigma2, out=D)
    estimate = fit_system(method, s, best.gamma, kernel_spec_for(method, s.d, best.sigma2),
                          full_vm, full_K)
    return CvReport(
        method=method,
        candidates=candidates,
        selected_gamma=best.gamma,
        selected_sigma2=best.sigma2,
        estimate=estimate,
        failures=sum(1 for c in candidates if not c.ok),
    )
