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

Each method's system is solved in one place, which cross-validation and the
fits share: factor_system factors what every gamma and sigma2 of a sample
have in common, solve_system solves for many gamma at once, and fit_system
is solve_system at one gamma on all data. The fit_* functions build the
matrices and call fit_system.

DRE-V solves by PsdPencilSolver given the points, so alpha lies in the range
of V'': for 1-D points from the closed-form factor of V'' by one tridiagonal
solve and a mandatory refinement step, unless two distinct points, or a
point and the box's upper face, lie closer than solve.NEAR_TIE_GAP; then,
and in d > 1, from a pivoted Cholesky factor of V'' and a tridiagonal
reduction. uLSIF solves from a tridiagonal reduction of K, and DRE-VK in CV
from a factor of V'' and a tridiagonal reduction of W'KW. In CV on 1-D
points, uLSIF and DRE-VK-RBF solve instead from a low-rank factor of the
RBF Gram K ~ G G' and one thin SVD, unless its rank is too high. The uLSIF
fit always takes the tridiagonal reduction, and the DRE-VK fit solves by
LU.

Each gamma's solution is checked by substitution and refined on its own
path. A column that still fails is not solved again another way:
solve_system reports it as failed, with its gamma in the message, and
cross-validation records that candidate as failed.

dre_v_nonneg_values minimizes the DRE-V objective under r >= 0 and returns
the values at the denominator points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .domain import DomainBox, ScaledSamples, as_points
from .kernels import KernelKind, KernelSpec, cross_gram
from .solve import (PsdPencilSolver, SingularSystemError, factor_v_matrix, solve_nonneg,
                    solve_product_ridge_low_rank, solve_product_ridge_many, solve_regularized,
                    solve_ridge_square_low_rank, solve_ridge_square_many)
from .vmatrix import VMatrices, build_v_matrices, cross_v


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
            return cross_v(pts, self.centers) @ self.coef
        return cross_gram(self.kernel, pts, self.centers) @ self.coef

    def predict(self, points) -> np.ndarray:
        """Ratio values at raw points; scaling through the stored box is applied.

        The estimate is defined on the box only. A query whose scaled
        coordinate lies more than 1e-12 outside [0, 1], or is NaN, raises
        OutOfBoxError; a point on a face is inside, and one within the
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
    objective under r >= 0, by projected gradient."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    vm = build_v_matrices(s)
    A = vm.v_dd + (gamma / s.n) * np.eye(s.n)
    return solve_nonneg(A, v_rhs(vm, s)).solution


def fit_dre_vk(s: ScaledSamples, spec: KernelSpec, gamma: float) -> RatioEstimate:
    """Kernel expansion r(x) = sum_i alpha_i k(x'_i, x) in the RKHS of `spec`."""
    method = Method.DRE_VK_RBF if spec.kind is KernelKind.RBF else Method.DRE_VK_INK
    return fit_system(method, s, gamma, spec, build_v_matrices(s),
                      cross_gram(spec, s.x_prime, s.x_prime))


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
    regularizer alpha'alpha: solves (KK + gamma I) alpha = (n/ell) K itilde."""
    return fit_system(Method.ULSIF_LIKE, s, gamma, spec, None,
                      cross_gram(spec, s.x_prime, s.x_prime))


def factor_system(method: Method, vm: VMatrices | None, points):
    """The factorisation that every gamma and sigma2 of a sample share, from
    V'', the overlap volumes of `points`: the PsdPencilSolver for DRE-V, the
    factor_v_matrix factor for DRE-VK, None for uLSIF."""
    if method is Method.DRE_V:
        return PsdPencilSolver(vm.v_dd, points)
    if method is Method.ULSIF_LIKE:
        return None
    return factor_v_matrix(vm.v_dd, points)


def solve_system(method: Method, s: ScaledSamples, vm: VMatrices | None, factor, K, gammas):
    """The method's coefficients on `s` for every gamma as the columns of an
    n x G matrix, and per gamma None or the message of its failed residual
    check. `vm` is build_v_matrices(s) (None for uLSIF), `factor` is
    factor_system(method, vm, s.x_prime) and K the Gram matrix of s.x_prime
    (None for DRE-V).

    The RBF Grams of 1-D points are numerically low rank, so uLSIF and
    DRE-VK-RBF solve them by the low-rank solvers of solve, which hand a
    Gram of too high a rank to the dense ones up front. In d > 1 they are
    full rank, and the dense solvers run without a pivoted Cholesky of K
    first.
    """
    gammas = np.asarray(gammas, dtype=float)
    low_rank = s.d == 1
    if method is Method.DRE_V:
        X, errors = factor.solve(gammas / s.n, v_rhs(vm, s))
    elif method is Method.ULSIF_LIKE:
        solve = solve_ridge_square_low_rank if low_rank else solve_ridge_square_many
        X, errors = solve(K, gammas, ulsif_rhs(s, K))
    else:
        solve = (solve_product_ridge_low_rank if low_rank and method is Method.DRE_VK_RBF
                 else solve_product_ridge_many)
        X, errors = solve(factor, K, gammas, v_rhs(vm, s))
    return X, _with_gammas(errors, gammas)


def _with_gammas(errors, gammas) -> list:
    """Each failed column's message with its gamma, the way
    solve_regularized names its context."""
    return [None if err is None else f"{err} (gamma={g})" for err, g in zip(errors, gammas)]


def fit_system(method: Method, s: ScaledSamples, gamma: float, spec: KernelSpec | None,
               vm: VMatrices | None, K) -> RatioEstimate:
    """The method's estimate on all of `s` at `gamma`, with `spec` its kernel
    (None for DRE-V) and `vm` and K as for solve_system.

    DRE-V takes solve_system at [gamma] and uLSIF solve_ridge_square_many,
    and both raise SingularSystemError with the message of the failed column,
    named with its gamma as solve_system names it. DRE-VK solves
    V''K + gamma I, which is generally non-symmetric, by solve_regularized's
    LU. The refit does not take the low-rank solves of
    the 1-D RBF folds. Those meet the same residual bound, but their
    coefficients differ from the dense ones in about the ninth digit: a
    low-rank uLSIF refit moved one seed-0 NRMSE by 1.4e-9 relative, past the
    1e-9 to which tests/golden_seed0.json and the benchmark reference pin
    the reported estimates. CV only ranks the candidates.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if method in (Method.DRE_VK_INK, Method.DRE_VK_RBF):
        coef = solve_regularized(vm.v_dd @ K, gamma, v_rhs(vm, s), f"gamma={gamma}").solution
    else:
        if method is Method.ULSIF_LIKE:
            X, errors = solve_ridge_square_many(K, [gamma], ulsif_rhs(s, K))
            (error,) = _with_gammas(errors, [gamma])
        else:
            X, (error,) = solve_system(method, s, vm, factor_system(method, vm, s.x_prime), K,
                                       [gamma])
        if error is not None:
            raise SingularSystemError(error)
        coef = X[:, 0]
    return RatioEstimate(coef, s.x_prime, s.box, gamma, spec)


def kernel_spec_for(method: Method, d: int, sigma2: float | None = None) -> KernelSpec | None:
    """KernelSpec used by a method, or None for the kernel-free DRE-V."""
    if method is Method.DRE_V:
        return None
    if method is Method.DRE_VK_INK:
        return KernelSpec(KernelKind.INK_SPLINE_LINEAR, d)
    return KernelSpec(KernelKind.RBF, d, sigma2=sigma2)
