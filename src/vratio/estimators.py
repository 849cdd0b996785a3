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

dre_v_nonneg_values minimizes the DRE-V objective under r >= 0 and returns
the values at the denominator points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .domain import DomainBox, ScaledSamples, as_points
from .kernels import KernelKind, KernelSpec, cross_gram
from .solve import PsdPencilSolver, solve_nonneg, solve_regularized
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
        if self.gamma <= 0:
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


def fit_dre_v(s: ScaledSamples, gamma: float, vm: VMatrices | None = None) -> RatioEstimate:
    """DRE-V as coefficients alpha over the overlap-volume basis,
    alpha = (n/ell)(V''V'' + (gamma/n)V'')^+ V' 1, so that the estimate
    r(x) = sum_i alpha_i v(x'_i, x) is defined at arbitrary points and its
    values at the denominator points solve (V'' + (gamma/n) I) r = (n/ell) V' 1.

    `vm`, when given, must be build_v_matrices(s); it saves rebuilding it.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    vm = build_v_matrices(s) if vm is None else vm
    b = v_rhs(vm, s)
    report = PsdPencilSolver(vm.v_dd).solve(gamma / s.n, b, context=f"gamma={gamma}")
    return RatioEstimate(report.solution, s.x_prime, s.box, gamma)


def dre_v_nonneg_values(s: ScaledSamples, gamma: float) -> np.ndarray:
    """DRE-V values at the denominator points minimizing the same quadratic
    objective under r >= 0, by projected gradient."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    vm = build_v_matrices(s)
    A = vm.v_dd + (gamma / s.n) * np.eye(s.n)
    return solve_nonneg(A, v_rhs(vm, s)).solution


def fit_dre_vk(s: ScaledSamples, spec: KernelSpec, gamma: float,
               vm: VMatrices | None = None, K: np.ndarray | None = None) -> RatioEstimate:
    """Kernel expansion r(x) = sum_i alpha_i k(x'_i, x) in the RKHS of `spec`.

    `vm` and `K`, when given, must be build_v_matrices(s) and the Gram matrix
    of s.x_prime under `spec`; they save rebuilding them.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    vm = build_v_matrices(s) if vm is None else vm
    K = cross_gram(spec, s.x_prime, s.x_prime) if K is None else K
    b = v_rhs(vm, s)
    # V''K is generally non-symmetric; the general LU path handles it
    report = solve_regularized(vm.v_dd @ K, gamma, b, context=f"gamma={gamma}")
    return RatioEstimate(report.solution, s.x_prime, s.box, gamma, spec)


def rect_identity_ones(n: int, ell: int) -> np.ndarray:
    """I_{n x ell} @ 1: a length-n vector with ones in the first min(n, ell) slots."""
    v = np.zeros(n)
    v[: min(n, ell)] = 1.0
    return v


def ulsif_rhs(s: ScaledSamples, K: np.ndarray) -> np.ndarray:
    """(n/ell) K itilde, the right-hand side of the uLSIF-like system."""
    return (s.n / s.ell) * (K @ rect_identity_ones(s.n, s.ell))


def fit_ulsif_like(s: ScaledSamples, spec: KernelSpec, gamma: float,
                   K: np.ndarray | None = None) -> RatioEstimate:
    """Baseline with identity matrices in place of the V-matrices and ridge
    regularizer alpha'alpha: solves (KK + gamma I) alpha = (n/ell) K itilde.

    `K`, when given, must be the Gram matrix of s.x_prime under `spec`; it
    saves rebuilding it.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    K = cross_gram(spec, s.x_prime, s.x_prime) if K is None else K
    b = ulsif_rhs(s, K)
    report = solve_regularized(K @ K, gamma, b, context=f"gamma={gamma}")
    return RatioEstimate(report.solution, s.x_prime, s.box, gamma, spec)


def kernel_spec_for(method: Method, d: int, sigma2: float | None = None) -> KernelSpec | None:
    """KernelSpec used by a method, or None for the kernel-free DRE-V."""
    if method is Method.DRE_V:
        return None
    if method is Method.DRE_VK_INK:
        return KernelSpec(KernelKind.INK_SPLINE_LINEAR, d)
    return KernelSpec(KernelKind.RBF, d, sigma2=sigma2)
