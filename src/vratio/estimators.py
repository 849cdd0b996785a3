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
choices as one System per Method, and cross-validation and the fits read
that entry in place of testing the method: its `kernel` (None for overlap
volumes), from which kernel_spec_for derives the KernelSpec; `uses_v`;
`factor`, what every gamma and sigma2 of a sample have in common; `scale`,
the mean eigenvalue of the system matrix by which CV scales its gamma
grid; `solve`, for many gamma at once; and `refit_lu`. solve_system calls
the entry's solve and names each failed column with its gamma. fit_system
is solve_system at one gamma on all data on the dense path, or for the
entries with refit_lu (DRE-VK) one LU of V''K + gamma I. The fit_*
functions build the matrices and call fit_system.

The fits and cross-validation take V'' and V' from
vmatrix.build_v_matrices, and the DRE-V estimate's predictions their V from
vmatrix.v_matrix, which picks the form from the points: arrays in d > 1,
and for 1-D points vmatrix.MinKernel operators, so that no 1-D V-matrix is
formed and every product with them (the right-hand side V'1, the residual
checks, the DRE-VK refit's V''K, the predictions) is a sort and cumulative
sums, O(n log n + nG) for G columns. Likewise the fits, cross-validation
and the kernel estimates' predictions take every Gram from
kernels.gram_matrix: for the INK kernel of 1-D points a kernels.InkKernel
operator, whose products (the residual checks, the holdout scores, the
predictions) are four cumulative sums, and from whose generators DRE-VK's
gamma scale tr(V''K) and each fold's W'KW come in closed form; arrays
otherwise. Everything downstream takes its 1-D
path from that form alone and is given no points: DRE-VK's factor is
solve.factor_v_matrix of V'', and cross-validation takes the folds'
V-matrices as vmatrix.block of the full-data ones. The one other dimension
test on the solve path is cross-validation's, which passes solve_system
`low_rank` for the RBF Grams of 1-D points.

DRE-V solves by PsdPencilSolver, so alpha lies in the range of V'': for a
MinKernel V'' from its closed-form factor by one tridiagonal solve and a
mandatory refinement step, unless two distinct points, or a point and the
box's upper face, lie closer than solve.NEAR_TIE_GAP; then, and for an
array V'', from a pivoted Cholesky factor of V'' and a tridiagonal
reduction. uLSIF solves from a tridiagonal reduction of K, and DRE-VK in CV
from a factor of V'' and, in d > 1, a tridiagonal reduction of W'KW. In CV
on 1-D points, uLSIF and DRE-VK-RBF solve instead from a low-rank factor
of the RBF Gram K ~ G G', one r x r eigendecomposition (dsyevd) and the
Woodbury inverse, unless its rank is too high; then, and for DRE-VK-INK,
DRE-VK solves from a low-rank factor of W'KW (for INK in closed form from
the InkKernel's generators) in the same way, and reduces W'KW only when
that rank is too high too (the INK folds' W'KW has rank 95-112 of 639-640
at m = 800, but 31-112 of 159-160 at m = 200). The uLSIF fit always takes
the tridiagonal reduction, and the DRE-VK fit solves by LU. The dense 1-D
builds that remain are the RBF Grams, the full-data INK Gram of the DRE-VK
refit's LU (InkKernel.dense), the V'' of the NEAR_TIE_GAP fallback and the
V'' of dre_v_nonneg_values.

Each gamma's solution is checked by substitution and refined on its own
path. A column that still fails is not solved again another way:
solve_system reports it as failed, with its gamma in the message, and
cross-validation records that candidate as failed.

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
                    solve_product_ridge_low_rank, solve_product_ridge_many, solve_regularized,
                    solve_ridge_square_low_rank, solve_ridge_square_many)
from .vmatrix import VMatrices, build_v_matrices, cross_v, trace_product, v_matrix


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
    regularizer alpha'alpha: solves (KK + gamma I) alpha = (n/ell) K itilde."""
    return fit_system(Method.ULSIF_LIKE, s, gamma, spec, None,
                      gram_matrix(spec, s.x_prime, s.x_prime))


def _solve_product(s, vm, factor, K, gammas, low_rank):
    solve = solve_product_ridge_low_rank if low_rank else solve_product_ridge_many
    return solve(factor, K, gammas, v_rhs(vm, s))


def _solve_square(s, vm, factor, K, gammas, low_rank):
    solve = solve_ridge_square_low_rank if low_rank else solve_ridge_square_many
    return solve(K, gammas, ulsif_rhs(s, K))


@dataclass(frozen=True)
class System:
    """One method's entry in SYSTEMS: its basis, whether V-matrices enter,
    and how its system is factored, scaled and solved.

    `factor(vm)` factors what every gamma and sigma2 of a sample share, from
    V'' = vm.v_dd, whose form selects the path: the PsdPencilSolver for
    DRE-V, the factor_v_matrix factor for DRE-VK, None for uLSIF.
    `scale(s, vm, K)` is the mean eigenvalue tr(M)/n of the full-data system
    matrix M: for DRE-V the ridge enters as gamma/n, so it is tr(V''); for
    DRE-VK M is V''K and for uLSIF KK, with the ridge applied directly. Both
    traces take V'' in either form; for a MinKernel, tr(V''K) is O(n^2)
    without V'', and O(n) in closed form for the InkKernel K of 1-D points.
    K is what kernels.gram_matrix gives: the InkKernel operator for INK on
    1-D points, which DRE-VK's solve takes as it is and the LU refit of
    fit_system as InkKernel.dense(), and an array otherwise.
    `solve(s, vm, factor, K, gammas, low_rank)` returns the n x G
    coefficients and per gamma None or its failure message;
    `low_rank` takes the low-rank solvers of solve, which hand a Gram of too
    high a rank to the dense ones up front. DRE-VK's dense solver,
    solve_product_ridge_many, tries a low-rank factor of W'KW for the
    closed-form factor of 1-D points whatever `low_rank` says, since W'KW
    is of low rank there for the INK Gram too; for the InkKernel it forms
    W'KW in closed form, O(n log n + r^2), not from a dense Gram.
    """

    kernel: KernelKind | None  # the expansion's basis; None for overlap volumes
    uses_v: bool               # whether V'' and V' enter the system
    factor: Callable
    scale: Callable
    solve: Callable
    refit_lu: bool = False     # fit_system solves V''K + gamma I by solve_regularized's LU


_DRE_VK = System(KernelKind.INK_SPLINE_LINEAR, True, lambda vm: factor_v_matrix(vm.v_dd),
                 lambda s, vm, K: trace_product(vm.v_dd, K) / s.n, _solve_product, refit_lu=True)
SYSTEMS = {
    Method.DRE_V: System(
        None, True, lambda vm: PsdPencilSolver(vm.v_dd), lambda s, vm, K: float(vm.v_dd.trace()),
        lambda s, vm, factor, K, gammas, low_rank: factor.solve(gammas / s.n, v_rhs(vm, s))),
    Method.DRE_VK_INK: _DRE_VK,
    Method.DRE_VK_RBF: replace(_DRE_VK, kernel=KernelKind.RBF),
    Method.ULSIF_LIKE: System(KernelKind.RBF, False, lambda vm: None,
                              lambda s, vm, K: float(np.sum(K * K)) / s.n, _solve_square),
}


def solve_system(method: Method, s: ScaledSamples, vm: VMatrices | None, factor, K, gammas,
                 low_rank: bool = False):
    """The method's coefficients on `s` for every gamma as the columns of an
    n x G matrix, and per gamma None or the message of its failed residual
    check, named with its gamma the way solve_regularized names its context.
    `vm` holds build_v_matrices(s) or blocks of it (None for uLSIF),
    `factor` is SYSTEMS[method].factor(vm) and K the Gram matrix of
    s.x_prime (None for DRE-V). The form of V'' selected the factor; DRE-V
    and DRE-VK apply V'' and V' in that form. `low_rank` is for the RBF
    Grams of 1-D points, which are numerically low rank; in d > 1 they are
    full rank, and the dense solvers run without a pivoted Cholesky of K
    first. cross_validate sets it; vmatrix.v_matrix alone picks a
    V-matrix's form.
    """
    gammas = np.asarray(gammas, dtype=float)
    X, errors = SYSTEMS[method].solve(s, vm, factor, K, gammas, low_rank)
    return X, [None if err is None else f"{err} (gamma={g})" for err, g in zip(errors, gammas)]


def fit_system(method: Method, s: ScaledSamples, gamma: float, spec: KernelSpec | None,
               vm: VMatrices | None, K) -> RatioEstimate:
    """The method's estimate on all of `s` at `gamma`, with `spec` its kernel
    (None for DRE-V) and `vm` and K as for solve_system.

    DRE-V and uLSIF take solve_system at [gamma] on the dense path, and
    raise SingularSystemError with the message of the failed column. DRE-VK
    solves V''K + gamma I, which is generally non-symmetric, by
    solve_regularized's LU, of an array K (an InkKernel's dense(), equal to
    cross_gram entry for entry); for 1-D points V''K is the min_kernel
    product, O(n^2) where the dense product is O(n^3). The refit does not
    take the low-rank solves of the 1-D RBF folds. Those meet the same residual
    bound, but their coefficients differ from the dense ones in about the
    ninth digit: a low-rank uLSIF refit moved one seed-0 NRMSE by 1.4e-9
    relative, past the 1e-9 to which tests/golden_seed0.json and the
    benchmark reference pin the reported estimates. CV only ranks the
    candidates.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    system = SYSTEMS[method]
    if system.refit_lu:
        dense = K.dense() if isinstance(K, InkKernel) else K
        coef = solve_regularized(vm.v_dd @ dense, gamma, v_rhs(vm, s), f"gamma={gamma}")
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
