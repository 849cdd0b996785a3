"""Density ratio estimators.

Three fits are provided:

* fit_dre_v          -- values of the ratio at the denominator points,
                        r = (n/ell) (V'' + (gamma/n) I)^-1 V' 1
* fit_dre_v_expansion -- the same solution expressed as coefficients over the
                        overlap-volume basis, which supports prediction at
                        held-out points (used by cross-validation)
* fit_dre_vk         -- kernel expansion in an RKHS,
                        alpha = (n/ell) (V''K + gamma I)^-1 V' 1
* fit_ulsif_like     -- the baseline obtained by replacing the V-matrices with
                        identities and the RKHS norm with alpha'alpha
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .domain import DomainBox, ScaledSamples, as_points
from .kernels import KernelKind, KernelSpec, cross_gram
from .solve import SolveReport, solve_nonneg, solve_psd_pencil, solve_regularized
from .vmatrix import VMatrices, build_v_matrices, cross_v


class Method(enum.Enum):
    DRE_V = "dre-v"
    DRE_VK_INK = "dre-vk-ink"
    DRE_VK_RBF = "dre-vk-rbf"
    ULSIF_LIKE = "ulsif"


class Variant(enum.Enum):
    POINT_VALUES = "point-values"
    KERNEL_EXPANSION = "kernel-expansion"
    V_EXPANSION = "v-expansion"


class UnsupportedQueryError(ValueError):
    """A point-values estimate was queried away from its fit points."""


@dataclass(frozen=True)
class RatioEstimate:
    variant: Variant
    coef: np.ndarray       # point values or expansion coefficients, length n
    centers: np.ndarray    # scaled denominator points of the fit, (n, d)
    box: DomainBox
    gamma: float
    kernel: KernelSpec | None = None

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.coef.shape[0] != self.centers.shape[0]:
            raise ValueError("coefficient length must match the number of centers")
        if self.variant is Variant.KERNEL_EXPANSION and self.kernel is None:
            raise ValueError("kernel expansion requires a kernel spec")

    def predict_scaled(self, points) -> np.ndarray:
        """Ratio values at points already mapped into [0,1]^d."""
        pts = as_points(points)
        if self.variant is Variant.POINT_VALUES:
            if pts.shape != self.centers.shape or not np.array_equal(pts, self.centers):
                raise UnsupportedQueryError(
                    "a point-values estimate predicts only at its own fit points"
                )
            return self.coef.copy()
        if self.variant is Variant.KERNEL_EXPANSION:
            return cross_gram(self.kernel, pts, self.centers) @ self.coef
        return cross_v(pts, self.centers) @ self.coef

    def predict(self, points) -> np.ndarray:
        """Ratio values at raw points; scaling through the stored box is applied."""
        return self.predict_scaled(self.box.transform(points))


def v_rhs(vm: VMatrices, s: ScaledSamples) -> np.ndarray:
    """(n/ell) V' 1, the right-hand side of the V-matrix systems."""
    return (s.n / s.ell) * (vm.v_dn @ np.ones(s.ell))


def fit_dre_v(s: ScaledSamples, gamma: float, nonneg: bool = False) -> RatioEstimate:
    """Ratio values at the denominator points.

    With nonneg=True the same quadratic objective is minimized under r >= 0
    by projected gradient instead of the direct linear solve.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    vm = build_v_matrices(s)
    b = v_rhs(vm, s)
    if nonneg:
        A = vm.v_dd + (gamma / s.n) * np.eye(s.n)
        report = solve_nonneg(A, b)
    else:
        report = solve_regularized(vm.v_dd, gamma / s.n, b, context=f"gamma={gamma}")
    return RatioEstimate(Variant.POINT_VALUES, report.solution, s.x_prime, s.box, gamma)


def fit_dre_v_expansion(s: ScaledSamples, gamma: float,
                        vm: VMatrices | None = None) -> RatioEstimate:
    """Cross-validation form of fit_dre_v: coefficients alpha with
    alpha = (n/ell)(V''V'' + (gamma/n)V'')^-1 V' 1, so that the estimate
    r(x) = sum_i alpha_i v(x'_i, x) is defined at arbitrary points and
    coincides with fit_dre_v at the fit points.

    `vm`, when given, must be build_v_matrices(s); it saves rebuilding it.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    vm = build_v_matrices(s) if vm is None else vm
    b = v_rhs(vm, s)
    report = solve_psd_pencil(vm.v_dd, gamma / s.n, b, context=f"gamma={gamma}")
    return RatioEstimate(Variant.V_EXPANSION, report.solution, s.x_prime, s.box, gamma)


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
    return RatioEstimate(Variant.KERNEL_EXPANSION, report.solution, s.x_prime, s.box, gamma, spec)


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
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    K = cross_gram(spec, s.x_prime, s.x_prime)
    b = ulsif_rhs(s, K)
    report = solve_regularized(K @ K, gamma, b, context=f"gamma={gamma}")
    return RatioEstimate(Variant.KERNEL_EXPANSION, report.solution, s.x_prime, s.box, gamma, spec)


def kernel_spec_for(method: Method, d: int, sigma2: float | None = None) -> KernelSpec | None:
    """KernelSpec used by a method, or None for the kernel-free DRE-V."""
    if method is Method.DRE_V:
        return None
    if method is Method.DRE_VK_INK:
        return KernelSpec(KernelKind.INK_SPLINE_LINEAR, d)
    return KernelSpec(KernelKind.RBF, d, sigma2=sigma2)
