"""k-fold cross-validation of the regularization constant (and RBF bandwidth)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import pdist

from .domain import ScaledSamples
from .estimators import (
    Method,
    RatioEstimate,
    fit_dre_v,
    fit_dre_vk,
    fit_ulsif_like,
    kernel_spec_for,
    ulsif_rhs,
    v_rhs,
)
from .kernels import cross_gram
# solve_regularized is not called here; benchmarks/test_benchmark.py checks this binding
from .solve import (  # noqa: F401
    PsdPencilSolver,
    pivoted_cholesky,
    solve_product_ridge_many,
    solve_regularized,
    solve_ridge_square_many,
)
from .vmatrix import VMatrices, build_v_matrices, cross_v

DEFAULT_SIGMA2_MULTIPLIERS = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0)


class SelectionError(RuntimeError):
    """Every candidate failed to solve."""


def default_gamma_grid() -> np.ndarray:
    """Log grid of regularization multipliers.

    By default the grid entries are interpreted relative to the mean
    eigenvalue of the system operator (see CvPlan.scale_gamma), which keeps
    one grid meaningful across dimensions and kernels: the operator norm of
    the overlap-volume matrices shrinks geometrically with the dimension.
    """
    return np.logspace(-5.0, 1.0, 15)


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


@dataclass
class CvPlan:
    k: int = 5
    gamma_grid: np.ndarray = field(default_factory=default_gamma_grid)
    sigma2_grid: np.ndarray | None = None  # RBF only; None -> median heuristic grid
    seed: int = 0
    # interpret gamma_grid as multipliers of tr(M)/n for the method's system
    # matrix M; False means absolute values
    scale_gamma: bool = True
    # used when sigma2_grid is None: multipliers of the median pairwise
    # squared distance of the pooled scaled data
    sigma2_multipliers: tuple = DEFAULT_SIGMA2_MULTIPLIERS

    def __post_init__(self):
        self.gamma_grid = np.sort(np.asarray(self.gamma_grid, dtype=float))
        if self.gamma_grid.size == 0 or np.any(self.gamma_grid <= 0):
            raise ValueError("gamma grid must be nonempty and positive")
        if self.sigma2_grid is not None:
            self.sigma2_grid = np.sort(np.asarray(self.sigma2_grid, dtype=float))
            if self.sigma2_grid.size == 0 or np.any(self.sigma2_grid <= 0):
                raise ValueError("sigma2 grid must be nonempty and positive")
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


def _gram(method: Method, s: ScaledSamples, sigma2):
    """Kernel Gram matrix of the denominator points, or None for DRE-V."""
    spec = kernel_spec_for(method, s.d, sigma2)
    return None if spec is None else cross_gram(spec, s.x_prime, s.x_prime)


def _factor_v(method: Method, vm: VMatrices | None):
    """The fold's factorisation of V'' shared by every sigma2 and gamma: the
    pencil eigh for DRE-V, a pivoted Cholesky for DRE-VK, None for uLSIF."""
    if method is Method.DRE_V:
        return PsdPencilSolver(vm.v_dd)
    if method is Method.ULSIF_LIKE:
        return None
    return pivoted_cholesky(vm.v_dd)


def _solve_all(method: Method, sub: ScaledSamples, vm: VMatrices | None, factor, K, gammas):
    """Fold-fit coefficients for every gamma as the columns of an n x G matrix,
    and per gamma None or the message of its failed residual check."""
    contexts = [f"gamma={g}" for g in gammas]
    if method is Method.DRE_V:
        return factor.solve_many(gammas / sub.n, v_rhs(vm, sub), contexts)
    if method is Method.ULSIF_LIKE:
        return solve_ridge_square_many(K, gammas, ulsif_rhs(sub, K), contexts)
    return solve_product_ridge_many(factor, K, gammas, v_rhs(vm, sub), contexts)


def _fold_criteria(method, sub, vm, factor, sigma2, gammas, hold_num, hold_den, n_over_l):
    """Least-squares criterion 0.5 sum r(z')^2 - (n/ell) sum r(z) on the holdout
    points for every gamma of one (fold, sigma2), and per gamma None or its
    failure message.

    The Gram matrix and the two holdout matrices live only for this call, so
    one (fold, sigma2) system is held at a time.
    """
    coef, errors = _solve_all(method, sub, vm, factor, _gram(method, sub, sigma2), gammas)
    spec = kernel_spec_for(method, sub.d, sigma2)
    if spec is None:
        pred_den = cross_v(hold_den, sub.x_prime) @ coef
        pred_num = cross_v(hold_num, sub.x_prime) @ coef
    else:
        pred_den = cross_gram(spec, hold_den, sub.x_prime) @ coef
        pred_num = cross_gram(spec, hold_num, sub.x_prime) @ coef
    return 0.5 * np.sum(pred_den**2, axis=0) - n_over_l * np.sum(pred_num, axis=0), errors


def _final_fit(method, s, vm, K, gamma, sigma2) -> RatioEstimate:
    """Refit on all data with the solvers of the fit_* functions, reusing the
    full-data V-matrices and, when given, the Gram matrix."""
    if method is Method.DRE_V:
        return fit_dre_v(s, gamma, vm=vm)
    spec = kernel_spec_for(method, s.d, sigma2)
    if method is Method.ULSIF_LIKE:
        return fit_ulsif_like(s, spec, gamma)
    return fit_dre_vk(s, spec, gamma, vm=vm, K=K)


def cross_validate(s: ScaledSamples, method: Method, plan: CvPlan) -> CvReport:
    """Grid-search gamma (and sigma2 for RBF) by k-fold CV, then refit on all data.

    The fold criterion sums are deterministic given the plan seed; ties are
    broken toward the larger gamma. Candidates whose solve fails on any fold
    are recorded and excluded from selection; every accepted fold solution
    passes the residual check of `solve`.

    Cost model, with S sigma2 values (1 without RBF), G gammas and k folds:

    * once per draw: the full-data V-matrices (all but uLSIF), shared by the
      gamma scaling and the refit, and for INK the full-data Gram matrix,
      shared the same way; with RBF one full-data Gram per sigma2 for the
      scaling and one more at the selected sigma2 for the refit.
    * once per fold: the training V-matrices (all but uLSIF) and the
      factorisation of V'' that every sigma2 and gamma share: DRE-V the eigh
      of V'' for the pencil V''V'' + (gamma/n) V''; DRE-VK a pivoted
      Cholesky V'' = W W' (dpstrf), which drops the zero rows of points on
      the box's upper face and the repeated rows of ties.
    * once per (fold, sigma2): the training Gram matrix; for uLSIF and
      DRE-VK one Householder tridiagonal reduction (dsytrd, 4n^3/3 flops
      against about 9n^3 for eigh) that serves every gamma: of K for uLSIF,
      so that KK + gamma I = Q (T T + gamma I) Q', and of W'KW for DRE-VK,
      to which the non-symmetric V''K is similar, so that V''K + gamma I
      reduces to T + gamma I; the two holdout matrices K(holdout, centres)
      (cross_v for DRE-V); and one product of each with the n x G
      coefficient matrix, which scores every gamma.
    * per (fold, sigma2, gamma): an O(n) banded Cholesky solve (T T + gamma I
      is pentadiagonal, T + gamma I tridiagonal; all gammas go into one
      LAPACK call) and O(n^2) products with Q; DRE-V needs only the
      products. A DRE-VK column that misses the residual bound after two
      refinement steps is retried by an LU of V''K + gamma I, and fails only
      if that fails too.

    The refit solves as the fit_* functions do (LU, or the pencil for
    DRE-V), so a draw's estimate depends on CV only through the selection.
    """
    if plan.k > min(s.n, s.ell):
        raise ValueError(f"k={plan.k} exceeds min(n, ell)={min(s.n, s.ell)}")
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
    # the INK Gram matrix has no sigma2, so the scaling and the refit share it
    full_K = _gram(method, s, None) if method is Method.DRE_VK_INK else None
    gammas = []
    for s2 in sigma2_values:
        scale = 1.0
        if plan.scale_gamma:
            K = _gram(method, s, s2) if uses_rbf else full_K
            scale = _gamma_scale(method, s, full_vm, K)
        gammas.append(plan.gamma_grid * scale)
    totals = np.zeros((len(sigma2_values), plan.gamma_grid.size))
    errors = [[None] * plan.gamma_grid.size for _ in sigma2_values]

    num_folds, den_folds = make_folds(s.n, s.ell, plan.k, plan.seed)
    n_over_l = s.n / s.ell
    all_num = np.arange(s.ell)
    all_den = np.arange(s.n)

    for num_hold, den_hold in zip(num_folds, den_folds):
        sub = s.subset(np.setdiff1d(all_num, num_hold), np.setdiff1d(all_den, den_hold))
        vm = None if method is Method.ULSIF_LIKE else build_v_matrices(sub)
        factor = _factor_v(method, vm)
        for i, s2 in enumerate(sigma2_values):
            live = [j for j, err in enumerate(errors[i]) if err is None]
            if not live:
                continue
            crit, errs = _fold_criteria(method, sub, vm, factor, s2, gammas[i][live],
                                        s.x[num_hold], s.x_prime[den_hold], n_over_l)
            for j, c, err in zip(live, crit, errs):
                if err is None:
                    totals[i, j] += c
                else:
                    errors[i][j] = err
        # drop this fold's V-matrices and factor before the next fold builds its own
        del vm, factor

    candidates = [
        Candidate(float(g), s2, float(totals[i, j]) if errors[i][j] is None else np.nan,
                  errors[i][j])
        for i, s2 in enumerate(sigma2_values)
        for j, g in enumerate(gammas[i])
    ]
    valid = [c for c in candidates if c.ok]
    if not valid:
        detail = "; ".join(f"gamma={c.gamma:g}: {c.error}" for c in candidates[:5])
        raise SelectionError(f"all {len(candidates)} candidates failed to solve: {detail}")

    best = None
    for cand in valid:  # grid order: sigma2 then gamma, both ascending
        if best is None or cand.criterion < best.criterion or (
            cand.criterion == best.criterion and cand.gamma >= best.gamma
        ):
            best = cand

    estimate = _final_fit(method, s, full_vm, full_K, best.gamma, best.sigma2)
    return CvReport(
        method=method,
        candidates=candidates,
        selected_gamma=best.gamma,
        selected_sigma2=best.sigma2,
        estimate=estimate,
        failures=sum(1 for c in candidates if not c.ok),
    )
