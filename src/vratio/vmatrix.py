"""V-matrices: Gram structure of indicator functions under the L2[0,1]^d inner product.

The entry of points a, b in [0,1]^d is the overlap volume
prod_k [1 - max(a^k, b^k)]. v_matrix is the one place that picks a
V-matrix's form: for 1-D points the MinKernel operator of min(1 - a, 1 - b),
the array of cross_v otherwise. README "Cost" has the forms and their costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import DimensionMismatchError, OutOfBoxError, ScaledSamples, as_points
from .kernels import InkKernel, SemiseparableKernel, _coordinate_product


def _box_points(rows, cols):
    """Both point sets as (m, d) arrays of one dimension inside [0, 1]^d."""
    rp = as_points(rows)
    cp = as_points(cols)
    if rp.shape[1] != cp.shape[1]:
        raise DimensionMismatchError("row and column points must share dimension")
    for pts in (rp, cp):
        if not np.all((pts >= 0.0) & (pts <= 1.0)):
            raise OutOfBoxError("a point coordinate lies outside [0, 1]")
    return rp, cp


def cross_v(rows, cols) -> np.ndarray:
    """Overlap volumes prod_k (1 - max(a^k, b^k)) for all row x column point
    pairs, as min(1 - a^k, 1 - b^k), equal in floating point (see min_kernel)."""
    rp, cp = _box_points(rows, cols)
    return _coordinate_product(1.0 - rp, 1.0 - cp, np.minimum)


class MinKernel(SemiseparableKernel):
    """The m x n matrix M_ij = min(s_i, t_j) of s, t >= 0 as a
    kernels.SemiseparableKernel with p(u) = u and q = 0: M @ X adds t_j X_j
    over t_j <= s_i and s_i times X_j over t_j > s_i, two cumulative sums.
    A zero s_i gives an exact zero row.
    """

    @staticmethod
    def p(u):
        return u

    def dense(self) -> np.ndarray:
        """M as an m x n array: the tests' oracle, which no solver forms."""
        return np.minimum.outer(self.s, self.t)

    def trace(self) -> float:
        """The sum of the diagonal min(s_i, t_i) of a square M."""
        return float(np.sum(np.minimum(self.s, self.t)))

    def trace_product(self, K) -> float:
        """tr(M K) for the square M of s = t, such as V'', and a symmetric K,
        without the product. ValueError unless s equals t, as
        solve.factor_v_matrix requires.

        For an array K: in the sorted order of t, min(t_a, t_b) is t_a for
        a <= b, so tr(M K) = sum_a t_a (K_aa + 2 sum_{b > a} K_ab), one
        O(n^2) pass. For the InkKernel of the points x = 1 - t, in O(n):
        in ascending x, min(t_a, t_b) is t_b for a <= b, so tr(M K) =
        sum_b t_b g_b with g from InkKernel.prefix_sums.
        """
        if not np.array_equal(self.s, self.t):
            raise ValueError("a MinKernel V'' must have s = t")
        if isinstance(K, InkKernel):
            x, _, g = K.prefix_sums(self.t)
            return float((1.0 - x) @ g)
        P = np.take(np.take(np.asarray(K, dtype=float), self.order, axis=0), self.order, axis=1)
        return float(self.t_sorted @ (2.0 * np.triu(P).sum(axis=1) - np.diagonal(P)))


def min_kernel(rows, cols) -> MinKernel:
    """cross_v(rows, cols) of 1-D points as the MinKernel of t = 1 - x: equal
    entry for entry, since 1 - max(a, b) = min(1 - a, 1 - b) in floating
    point too (rounding is monotone)."""
    rp, cp = _box_points(rows, cols)
    if rp.shape[1] != 1:
        raise DimensionMismatchError("min_kernel takes 1-D points")
    return MinKernel(1.0 - rp[:, 0], 1.0 - cp[:, 0])


def v_matrix(rows, cols) -> np.ndarray | MinKernel:
    """The V-matrix of the row and column points in the form the solvers take:
    min_kernel(rows, cols) for 1-D points, cross_v(rows, cols) otherwise.
    Both equal cross_v entry for entry. This is the one test of the
    dimension that picks a V-matrix's form."""
    return min_kernel(rows, cols) if as_points(rows).shape[1] == 1 else cross_v(rows, cols)


@dataclass(frozen=True)
class VMatrices:
    """The n x n denominator Gram matrix and the n x ell denominator-numerator
    cross matrix: arrays, or for 1-D points MinKernel operators."""

    v_dd: np.ndarray | MinKernel
    v_dn: np.ndarray | MinKernel


def build_v_matrices(s: ScaledSamples) -> VMatrices:
    """V'' (denominator x denominator) and V' (denominator x numerator) by
    v_matrix: arrays in d > 1, MinKernel operators for 1-D points. An array
    V'' is exactly symmetric, since each factor 1 - max(a, b) is."""
    return VMatrices(v_matrix(s.x_prime, s.x_prime), v_matrix(s.x_prime, s.x))


def block(V, rows, cols):
    """V[rows][:, cols] of an array or an operator (a MinKernel V-matrix or
    an InkKernel Gram): an array in C order, the layout of a matrix built
    entry by entry, or the operator of the same kind of the rows' s and the
    columns' t. An entry depends only on its pair of points, so either
    equals the matrix of those points entry for entry."""
    if isinstance(V, SemiseparableKernel):
        return type(V)(V.s[rows], V.t[cols])
    return np.take(V[rows], cols, axis=1)


def trace_product(V, K) -> float:
    """tr(V K) for a symmetric V-matrix V in either form and a symmetric K,
    an array or the InkKernel of V's points: sum(V * K) for an array V,
    MinKernel.trace_product for an operator."""
    if isinstance(V, MinKernel):
        return V.trace_product(K)
    return float(np.sum(V * K))


def l2_residual(s: ScaledSamples, r, vm: VMatrices | None = None) -> float:
    """Exact squared L2 distance between the weighted denominator and numerator
    empirical measures, including the r-independent term.

    Expands to (1/n^2) r'V''r - (2/(n ell)) r'V'1 + (1/ell^2) 1'V'''1 where
    V''' collects overlap volumes of numerator pairs. Every V comes from
    v_matrix, so none is formed for 1-D points. `vm`, when given, must be the
    V-matrices of s, such as build_v_matrices(s); it saves rebuilding them.
    Each V enters only through V.T @ x, the product NumPy computes for x @ V.
    """
    rv = np.atleast_1d(np.asarray(r, dtype=float))
    if rv.shape[0] != s.n:
        raise ValueError(f"r has length {rv.shape[0]}, expected n={s.n}")
    vm = build_v_matrices(s) if vm is None else vm
    v_nn = v_matrix(s.x, s.x)
    ones = np.ones(s.ell)
    val = (
        (vm.v_dd.T @ rv) @ rv / s.n**2
        - 2.0 * ((vm.v_dn.T @ rv) @ ones) / (s.n * s.ell)
        + (v_nn.T @ ones) @ ones / s.ell**2
    )
    # round-off can push an exact zero slightly negative
    return max(float(val), 0.0)
