"""Kernels for the RKHS estimator: linear INK-spline (parameter-free) and Gaussian RBF.

gram_matrix(spec, rows, cols) is the one place that picks a Gram's form, as
vmatrix.v_matrix does for V-matrices: for 1-D points the INK Gram is an
InkKernel operator, applied by one sort and cumulative sums without forming
it, and every other Gram is the array of cross_gram. In 1-D the INK kernel
is K(x, y) = p(min) + q(min) max with p(u) = 1 - u^3/6 and q(u) = u + u^2/2,
semiseparable of rank 2: the reproducing kernel of a cubic spline (Wahba,
Spline Models for Observational Data, 1990). SemiseparableKernel holds that
generator form, which the Brownian covariance min(s, t) of vmatrix.MinKernel
shares with p(u) = u and q = 0. The operator's prefix sums of p(x), q(x), 1
and x over its sorted points give DRE-VK's gamma scale tr(V''K)
(vmatrix.MinKernel.trace_product) and each fold's W'KW
(solve.BrownianFactor.congruence) in closed form; only the DRE-VK refit's LU
forms the 1-D INK Gram, by InkKernel.dense.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .domain import DimensionMismatchError, as_points


class KernelKind(enum.Enum):
    INK_SPLINE_LINEAR = "ink-spline-linear"
    RBF = "rbf"


@dataclass(frozen=True)
class KernelSpec:
    kind: KernelKind
    d: int
    sigma2: float | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if self.kind is KernelKind.RBF:
            if self.sigma2 is None or self.sigma2 <= 0:
                raise ValueError("RBF kernel requires sigma2 > 0")
        elif self.sigma2 is not None:
            raise ValueError("the linear INK-spline kernel has no parameters")


def rbf_from_sqdist(sq_dist, sigma2: float, out=None) -> np.ndarray:
    """Gaussian kernel values exp(-d / (2 sigma2)) of squared distances d.

    `out` may be `sq_dist` itself. Dividing by -2 sigma2 gives exactly
    -d / (2 sigma2), since IEEE division is symmetric in sign.
    """
    out = np.divide(sq_dist, -2.0 * sigma2, out=out)
    return np.exp(out, out=out)


def _kernel_points(spec: KernelSpec, rows, cols):
    """Both point sets as arrays of the kernel's dimension."""
    rp = as_points(rows)
    cp = as_points(cols)
    if rp.shape[1] != spec.d or cp.shape[1] != spec.d:
        raise DimensionMismatchError(
            f"points have dimensions {rp.shape[1]}/{cp.shape[1]}, kernel expects {spec.d}"
        )
    return rp, cp


def _check_nonnegative(*points):
    if any(np.any(pts < 0) for pts in points):
        raise ValueError("INK-spline inputs must be nonnegative")


def cross_gram(spec: KernelSpec, rows, cols) -> np.ndarray:
    """Kernel matrix k(rows_i, cols_j).

    The linear INK-spline kernel on [0,1]^d is the product over coordinates of
    K1(x, y) = 1 + xy + |x - y| min(x,y)^2 / 2 + min(x,y)^3 / 3.
    """
    rp, cp = _kernel_points(spec, rows, cols)
    if spec.kind is KernelKind.RBF:
        sq = cdist(rp, cp, "sqeuclidean")
        return rbf_from_sqdist(sq, spec.sigma2, out=sq)
    _check_nonnegative(rp, cp)
    # each coordinate's factor ((1 + xy) + (0.5 |x - y|) mn^2) + mn^3 / 3 is
    # built in work buffers, with the cube mn^3 taken as mn * mn^2; the first
    # coordinate's factor is built in `out` itself (1.0 * v == v)
    out = np.empty((rp.shape[0], cp.shape[0]))
    mn = np.empty_like(out)
    half_gap = np.empty_like(out)
    acc = out if spec.d == 1 else np.empty_like(out)
    for k in range(spec.d):
        xk = rp[:, k, None]
        yk = cp[None, :, k]
        term = out if k == 0 else acc
        np.minimum(xk, yk, out=mn)
        np.subtract(xk, yk, out=half_gap)
        np.abs(half_gap, out=half_gap)
        half_gap *= 0.5
        np.square(mn, out=term)
        half_gap *= term  # (0.5 |x - y|) mn^2
        mn *= term  # mn^3
        mn /= 3.0
        np.multiply(xk, yk, out=term)
        term += 1.0
        term += half_gap
        term += mn
        if k:
            out *= term
    return out


class SemiseparableKernel:
    """The m x n matrix M_ij = p(u) + q(u) v of u = min(s_i, t_j) and
    v = max(s_i, t_j), for points s and t and the generators p and q of a
    subclass (q None for q = 0), as an operator: M @ X is the product with
    an n x G matrix (or a vector) X, computed without forming M.

    With t sorted, the sum over j splits at s_i. Over t_j <= s_i it is
    sum p(t_j) X_j + s_i sum q(t_j) X_j, cumulative sums from the smallest
    t up; over t_j > s_i it is p(s_i) sum X_j + q(s_i) sum t_j X_j, from
    the largest t down. All of them come from one cumsum call, each read at
    s_i's position in the sorted t: one stable sort of t, kept in `order`,
    and O((m + n) G) flops per product against O(mnG) for the dense
    product. For generators that are nonnegative on the points each sum adds
    only terms of |M| |X|, so the result lies within about n eps (|M| @ |X|)
    of the exact product, as the dense product does. `t` is kept in its
    given order, for `T` and `dense`.
    """

    q = None

    def __init__(self, s, t):
        self.s = np.asarray(s, dtype=float)
        self.t = np.asarray(t, dtype=float)
        self.order = np.argsort(self.t, kind="stable")
        self.t_sorted = self.t[self.order]
        # the number of t_j <= s_i, and of t_j > s_i
        self.positions = np.searchsorted(self.t_sorted, self.s, side="right")
        self._above = self.t.size - self.positions

    @property
    def shape(self) -> tuple:
        return (self.s.size, self.t.size)

    @property
    def T(self):
        """The n x m transpose, with its own sort of s."""
        return type(self)(self.t, self.s)

    def __matmul__(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        cols = X[:, None] if X.ndim == 1 else X
        n, G = cols.shape
        if n != self.t.size:
            raise ValueError(f"X has {n} rows, expected {self.t.size}")
        # over the k smallest t, sums[0, k] adds p(t_j) X_j and sums[2, k]
        # q(t_j) X_j; over the k largest, sums[1, k] adds X_j and sums[3, k] t_j X_j
        sums = np.empty((2 if self.q is None else 4, n + 1, G))
        sums[:, 0] = 0.0
        ascending = cols[self.order]
        np.multiply(ascending, self.p(self.t_sorted)[:, None], out=sums[0, 1:])
        sums[1, 1:] = ascending[::-1]
        if self.q is not None:
            np.multiply(ascending, self.q(self.t_sorted)[:, None], out=sums[2, 1:])
            np.multiply(sums[1, 1:], self.t_sorted[::-1, None], out=sums[3, 1:])
        np.cumsum(sums[:, 1:], axis=1, out=sums[:, 1:])
        out = sums[1, self._above]
        out *= self.p(self.s)[:, None]
        out += sums[0, self.positions]
        if self.q is not None:
            out += self.s[:, None] * sums[2, self.positions]
            out += self.q(self.s)[:, None] * sums[3, self._above]
        return out[:, 0] if X.ndim == 1 else out


_INK_1D = KernelSpec(KernelKind.INK_SPLINE_LINEAR, 1)


class InkKernel(SemiseparableKernel):
    """cross_gram of the INK kernel for 1-D points s (rows) and t (columns)
    as a SemiseparableKernel: 1 + uv + (v - u) u^2 / 2 + u^3 / 3 is
    p(u) + q(u) v with p(u) = 1 - u^3/6 and q(u) = u + u^2/2, both positive
    on [0, 1]. The same ValueError as cross_gram on a negative coordinate."""

    def __init__(self, s, t):
        super().__init__(s, t)
        _check_nonnegative(self.s, self.t)

    @staticmethod
    def p(u):
        return 1.0 - u**3 / 6.0

    @staticmethod
    def q(u):
        return u + 0.5 * u * u

    def dense(self) -> np.ndarray:
        """The m x n array, exactly cross_gram's entries."""
        return cross_gram(_INK_1D, self.s[:, None], self.t[:, None])

    def prefix_sums(self, v_points) -> tuple:
        """Sums over the points of a square Gram in ascending order, for the
        closed forms of W'KW and tr(V''K) with V'' = min(t_a, t_b) of its
        points t = 1 - x (solve.BrownianFactor.congruence,
        vmatrix.MinKernel.trace_product). ValueError unless the rows, the
        columns and 1 - v_points are the same points.

        Returns x ascending; as rows of a (3, n + 1) array the sums P, Q and
        X of p(x), q(x) and x over the first e points, e = 0..n; and per
        point g_e = 2 (P_e + Q_e x_e) + K_ee, what the e-th point adds to the
        sum of the Gram over its leading block, since K_ae = p(x_a) +
        q(x_a) x_e for x_a <= x_e.
        """
        if not (np.array_equal(self.s, self.t) and np.array_equal(1.0 - self.t, v_points)):
            raise ValueError("the Gram's points must be those of V'', 1 - x = t")
        x = self.t_sorted
        p, q = self.p(x), self.q(x)
        sums = np.zeros((3, x.size + 1))
        np.cumsum([p, q, x], axis=1, out=sums[:, 1:])
        return x, sums, 2.0 * (sums[0, :-1] + sums[1, :-1] * x) + (p + q * x)


def gram_matrix(spec: KernelSpec, rows, cols):
    """The Gram matrix of the row and column points in the form the solvers
    take: an InkKernel for the INK kernel of 1-D points, cross_gram(spec,
    rows, cols) otherwise. Both equal cross_gram entry for entry (the
    operator by dense()). This is the one test that picks a Gram's form."""
    if spec.kind is KernelKind.INK_SPLINE_LINEAR and spec.d == 1:
        rp, cp = _kernel_points(spec, rows, cols)
        return InkKernel(rp[:, 0], cp[:, 0])
    return cross_gram(spec, rows, cols)
