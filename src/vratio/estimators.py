"""Density ratio estimators.

Three fits return a RatioEstimate, an expansion over the denominator points
that predicts anywhere in the box:

* fit_dre_v       -- over overlap volumes v(x'_i, x), with
                     alpha = (n/ell) (V''V'' + (gamma/n) V'')^+ V' 1, so that
                     its values at the denominator points are
                     r = (n/ell) (V'' + (gamma/n) I)^-1 V' 1
* fit_dre_vk      -- kernel expansion in an RKHS,
                     alpha = (n/ell) (V''K + gamma I)^-1 V' 1
* fit_ulsif_like  -- the baseline obtained by replacing the V-matrices with
                     identities and the RKHS norm with alpha'alpha

The four methods solve one integral equation and differ in three choices:
the expansion's basis (overlap volumes, the INK spline or the RBF kernel),
whether the V-matrices enter, and the regulariser. SYSTEMS holds those
choices as one System per Method; cross-validation and the fits read that
entry in place of testing the method. solve_system solves an entry for many
gamma and names each failed column with its gamma; fit_system solves it at
one gamma on all data. The fit_* functions build the matrices and call
fit_system.

Every V-matrix comes from vmatrix.v_matrix and every Gram from
kernels.gram_matrix, which pick the form from the points; downstream the
form alone picks the path, and nothing is given points. DRE-V solves by
solve.PsdPencilSolver, so alpha lies in the range of V''; uLSIF by
solve.solve_ridge_square_many; DRE-VK by solve.solve_product_ridge_many in
CV and by one LU in its refit. README "Cost" has the paths and their costs.

dre_v_nonneg_values minimizes the DRE-V objective under r >= 0 exactly
(solve.solve_nonneg) and returns the values at the denominator points.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .domain import DomainBox, ScaledSamples, as_points
from .kernels import InkKernel, KernelKind, KernelSpec, gram_matrix
from .solve import (PsdPencilSolver, SingularSystemError, factor_v_matrix, solve_nonneg,
                    solve_product_ridge_many, solve_regularized, solve_ridge_square_many)
from .vmatrix import MinKernel, VMatrices, build_v_matrices, cross_v, trace_product, v_matrix


class Method(enum.Enum):
    DRE_V = "dre-v"
    DRE_VK_INK = "dre-vk-ink"
    DRE_VK_RBF = "dre-vk-rbf"
    ULSIF_LIKE = "ulsif"


@dataclass(frozen=True)
class RatioEstimate:
    """r(x) = sum_i coef_i k(x'_i, x) over the scaled denominator points x'_i
    of the fit, where k is `kernel`, or the overlap volume when it is None."""

    coef: np.ndarray       # expansion coefficients, length n
    centers: np.ndarray    # scaled denominator points of the fit, (n, d)
    box: DomainBox
    gamma: float
    kernel: KernelSpec | None = None

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.coef.shape[0] != self.centers.shape[0]:
            raise ValueError("coefficient length must match the number of centers")

    def predict_scaled(self, points) -> np.ndarray:
        """Ratio values at points already mapped into [0,1]^d."""
        pts = as_points(points)
        if self.kernel is None:
            return v_matrix(pts, self.centers) @ self.coef
        return gram_matrix(self.kernel, pts, self.centers) @ self.coef

    def predict(self, points) -> np.ndarray:
        """Ratio values at raw points; scaling through the stored box is applied.

        The estimate is defined on the box only. A query whose scaled
        coordinate lies more than domain.BOX_TOL outside [0, 1], or is NaN,
        raises OutOfBoxError; a point on a face is inside, and one within the
        tolerance is clamped onto the face.
        """
        return self.predict_scaled(self.box.transform(points))


def v_rhs(vm: VMatrices, s: ScaledSamples) -> np.ndarray:
    """(n/ell) V' 1, the right-hand side of the V-matrix systems."""
    return (s.n / s.ell) * (vm.v_dn @ np.ones(s.ell))


def fit_dre_v(s: ScaledSamples, gamma: float) -> RatioEstimate:
    """DRE-V as coefficients alpha over the overlap-volume basis,
    alpha = (n/ell)(V''V'' + (gamma/n)V'')^+ V' 1, so that the estimate
    r(x) = sum_i alpha_i v(x'_i, x) is defined at arbitrary points and its
    values at the denominator points solve (V'' + (gamma/n) I) r = (n/ell) V' 1."""
    return fit_system(Method.DRE_V, s, gamma, None, build_v_matrices(s), None)


def dre_v_nonneg_values(s: ScaledSamples, gamma: float) -> np.ndarray:
    """DRE-V values at the denominator points minimizing the same quadratic
    objective under r >= 0. solve_nonneg's Cholesky takes V'' as an array,
    so V'' is formed here in every dimension."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    v_dd = cross_v(s.x_prime, s.x_prime)
    vm = VMatrices(v_dd, v_matrix(s.x_prime, s.x))
    return solve_nonneg(v_dd + (gamma / s.n) * np.eye(s.n), v_rhs(vm, s))


def fit_dre_vk(s: ScaledSamples, spec: KernelSpec, gamma: float) -> RatioEstimate:
    """Kernel expansion r(x) = sum_i alpha_i k(x'_i, x) in the RKHS of `spec`."""
    method = Method.DRE_VK_RBF if spec.kind is KernelKind.RBF else Method.DRE_VK_INK
    return fit_system(method, s, gamma, spec, build_v_matrices(s),
                      gram_matrix(spec, s.x_prime, s.x_prime))


def rect_identity_ones(n: int, ell: int) -> np.ndarray:
    """I_{n x ell} @ 1: a length-n vector with ones in the first min(n, ell) slots."""
    v = np.zeros(n)
    v[: min(n, ell)] = 1.0
    return v


def ulsif_rhs(s: ScaledSamples, K: np.ndarray) -> np.ndarray:
    """(n/ell) K itilde, the right-hand side of the uLSIF-like system."""
    return (s.n / s.ell) * (K @ rect_identity_ones(s.n, s.ell))


def fit_ulsif_like(s: ScaledSamples, spec: KernelSpec, gamma: float) -> RatioEstimate:
    """Baseline with identity matrices in place of the V-matrices and ridge
    regularizer alpha'alpha: solves (KK + gamma I) alpha = (n/ell) K itilde.
    ValueError unless `spec` is the RBF kernel of SYSTEMS[Method.ULSIF_LIKE]."""
    if spec.kind is not SYSTEMS[Method.ULSIF_LIKE].kernel:
        raise ValueError(f"fit_ulsif_like takes the RBF kernel, got {spec.kind.value}")
    return fit_system(Method.ULSIF_LIKE, s, gamma, spec, None,
                      gram_matrix(spec, s.x_prime, s.x_prime))


@dataclass(frozen=True)
class System:
    """One method's entry in SYSTEMS: its basis, whether V-matrices enter,
    and how its system is factored, scaled and solved.

    `factor(vm)` factors what every gamma and sigma2 of a sample share, from
    V'' = vm.v_dd: the PsdPencilSolver for DRE-V, factor_v_matrix for
    DRE-VK, None for uLSIF. `scale(s, vm, K)` is the mean eigenvalue
    tr(M)/n of the full-data system matrix M: tr(V'') for DRE-V, whose
    ridge enters as gamma/n, tr(V''K)/n for DRE-VK and tr(KK)/n for uLSIF.
    `solve(s, vm, factor, K, gammas, low_rank)` returns the n x G
    coefficients and per gamma None or its failure message; it passes
    `low_rank` to the solver (solve_product_ridge_many or
    solve_ridge_square_many). K is what kernels.gram_matrix gives.
    """

    kernel: KernelKind | None  # the expansion's basis; None for overlap volumes
    uses_v: bool               # whether V'' and V' enter the system
    factor: Callable
    scale: Callable
    solve: Callable
    refit_lu: bool = False     # fit_system solves V''K + gamma I by solve_regularized's LU


_DRE_VK = System(KernelKind.INK_SPLINE_LINEAR, True, lambda vm: factor_v_matrix(vm.v_dd),
                 lambda s, vm, K: trace_product(vm.v_dd, K) / s.n,
                 lambda s, vm, factor, K, gammas, low_rank: solve_product_ridge_many(
                     factor, K, gammas, v_rhs(vm, s), low_rank), refit_lu=True)
SYSTEMS = {
    Method.DRE_V: System(
        None, True, lambda vm: PsdPencilSolver(vm.v_dd), lambda s, vm, K: float(vm.v_dd.trace()),
        lambda s, vm, factor, K, gammas, low_rank: factor.solve(gammas / s.n, v_rhs(vm, s))),
    Method.DRE_VK_INK: _DRE_VK,
    Method.DRE_VK_RBF: replace(_DRE_VK, kernel=KernelKind.RBF),
    Method.ULSIF_LIKE: System(
        KernelKind.RBF, False, lambda vm: None, lambda s, vm, K: float(np.sum(K * K)) / s.n,
        lambda s, vm, factor, K, gammas, low_rank: solve_ridge_square_many(
            K, gammas, ulsif_rhs(s, K), low_rank)),
}


def solve_system(method: Method, s: ScaledSamples, vm: VMatrices | None, factor, K, gammas,
                 low_rank: bool = False):
    """The method's coefficients on `s` for every gamma as the columns of an
    n x G matrix, and per gamma None or the message of its failed residual
    check, named with its gamma the way solve_regularized names its context.
    `vm` holds build_v_matrices(s) or blocks of it (None for uLSIF),
    `factor` is SYSTEMS[method].factor(vm) and K the Gram matrix of
    s.x_prime (None for DRE-V). `low_rank` makes the uLSIF and DRE-VK
    solvers try K's low-rank basis first; cross_validate sets it for the
    RBF Grams of 1-D points, which are numerically low rank.
    """
    gammas = np.asarray(gammas, dtype=float)
    X, errors = SYSTEMS[method].solve(s, vm, factor, K, gammas, low_rank)
    return X, [None if err is None else f"{err} (gamma={g})" for err, g in zip(errors, gammas)]


# columns per block of _product: a block's temporaries, about 8 n x 64
# doubles, stay below the n^2 of the LU's copy of V''K from n = 512 on. At
# n = 800, one 1-D INK product peaked at 1.48 n^2 doubles with 64 columns and
# 1.96 n^2 with 128 (tracemalloc), and took 13.7-14.2 ms with 64, 12.3-13.0 ms
# with 128 and 18.8-19.6 ms in one block (best of 5, one BLAS thread, 2-core
# x86-64)
_PRODUCT_COLUMNS = 64


def _product(v_dd, K) -> np.ndarray:
    """V''K as a C-ordered array, the layout whose residual bits the golden
    outputs pin; for a MinKernel V'' filled in blocks of columns from those
    of K alone, so an InkKernel K is never formed whole."""
    if not isinstance(v_dd, MinKernel):
        return v_dd @ K
    out = np.empty(K.shape)
    for j in range(0, K.shape[1], _PRODUCT_COLUMNS):
        cols = slice(j, j + _PRODUCT_COLUMNS)
        out[:, cols] = v_dd @ (InkKernel(K.s, K.t[cols]).dense() if isinstance(K, InkKernel)
                               else K[:, cols])
    return out


def fit_system(method: Method, s: ScaledSamples, gamma: float, spec: KernelSpec | None,
               vm: VMatrices | None, K) -> RatioEstimate:
    """The method's estimate on all of `s` at `gamma`, with `spec` its kernel
    (None for DRE-V) and `vm` and K as for solve_system.

    DRE-V and uLSIF take solve_system at [gamma] without `low_rank`, and
    raise SingularSystemError with the message of the failed column. DRE-VK
    solves the generally non-symmetric V''K + gamma I by solve_regularized's
    LU of the formed V''K (_product). The refit does not take the low-rank
    solves of the 1-D RBF folds: their coefficients differ from the dense
    ones in about the ninth digit, past the 1e-9 to which
    tests/golden_seed0.json and the benchmark reference pin the estimates.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    system = SYSTEMS[method]
    if system.refit_lu:
        coef = solve_regularized(_product(vm.v_dd, K), gamma, v_rhs(vm, s), f"gamma={gamma}")
    else:
        X, (error,) = solve_system(method, s, vm, system.factor(vm), K, [gamma])
        if error is not None:
            raise SingularSystemError(error)
        coef = X[:, 0]
    return RatioEstimate(coef, s.x_prime, s.box, gamma, spec)


def kernel_spec_for(method: Method, d: int, sigma2: float | None = None) -> KernelSpec | None:
    """KernelSpec used by a method, or None for the kernel-free DRE-V; only
    the RBF kernel takes `sigma2`."""
    kind = SYSTEMS[method].kernel
    if kind is None:
        return None
    return KernelSpec(kind, d, sigma2=sigma2 if kind is KernelKind.RBF else None)
