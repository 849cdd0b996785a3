"""Kernels for the RKHS estimator: linear INK-spline (parameter-free) and Gaussian RBF.

gram_matrix(spec, rows, cols) is the one place that picks a Gram's form, as
vmatrix.v_matrix does for V-matrices: for 1-D points the INK Gram is an
InkKernel operator, applied by one sort and cumulative sums without forming
it, and every other Gram is the array of cross_gram. InkKernel states the
INK kernel, p(min) + q(min) max per coordinate. SemiseparableKernel holds
that generator form, which vmatrix.MinKernel shares with p(u) = u and q = 0.
The operator's prefix sums of p(x), q(x), 1 and x over its sorted points
give DRE-VK's gamma scale tr(V''K) (vmatrix.MinKernel.trace_product) and
each fold's W'KW (solve.BrownianFactor.congruence) in closed form. Every
dense INK Gram and V-matrix is the one row-blocked product
_coordinate_product.
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
        if not isinstance(self.d, (int, np.integer)) or self.d < 1:
            raise ValueError(f"dimension must be an integer of at least 1, got {self.d!r}")
        if self.kind is KernelKind.RBF:
            if self.sigma2 is None or not (np.isfinite(self.sigma2) and self.sigma2 > 0):
                raise ValueError(f"RBF kernel requires a finite sigma2 > 0, got {self.sigma2!r}")
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
    # written so that a NaN coordinate fails too
    if not all(np.all(pts >= 0) for pts in points):
        raise ValueError("INK-spline inputs must be nonnegative")


# entries per row block of _coordinate_product: each block-sized temporary
# of a factor is 96 KiB, under glibc's default 128 KiB mmap and trim
# thresholds, so blocks reuse heap pages in cache instead of faulting in
# fresh ones (with 256 KiB blocks a fresh process built the 1-D 200 x 200
# Gram 2.5 times slower, on a 2-core x86-64 machine)
_BLOCK_ENTRIES = 12 * 1024


def _coordinate_product(rows, cols, factor) -> np.ndarray:
    """prod_k factor(rows[:, k, None], cols[None, :, k]) over the coordinates
    k of (n, d) rows and (m, d) cols, built _BLOCK_ENTRIES // m rows at a time
    so that the factors' temporaries stay in cache. The factors multiply in
    coordinate order, so no entry depends on the block size.
    """
    out = np.empty((rows.shape[0], cols.shape[0]))
    step = max(1, _BLOCK_ENTRIES // max(1, cols.shape[0]))
    for start in range(0, rows.shape[0], step):
        part = rows[start:start + step]
        block = out[start:start + step]
        block[...] = factor(part[:, 0, None], cols[None, :, 0])
        for k in range(1, rows.shape[1]):
            block *= factor(part[:, k, None], cols[None, :, k])
    return out


def _ink_p(u):
    return 1.0 - u * u * u / 6.0


def _ink_q(u):
    return u + 0.5 * u * u


def _ink_factor(a, b):
    # q(mn) max + p(mn) in place: fewer block-sized temporaries are alive at
    # once, which keeps the 1-D 200 x 200 Gram on reused heap pages
    mn = np.minimum(a, b)
    out = _ink_q(mn)
    out *= np.maximum(a, b)
    out += _ink_p(mn)
    return out


def cross_gram(spec: KernelSpec, rows, cols) -> np.ndarray:
    """Kernel matrix k(rows_i, cols_j). The INK kernel on [0,1]^d is the
    product over coordinates of InkKernel's p(min) + q(min) max, built by
    _coordinate_product; ValueError on a negative or NaN coordinate."""
    rp, cp = _kernel_points(spec, rows, cols)
    if spec.kind is KernelKind.RBF:
        sq = cdist(rp, cp, "sqeuclidean")
        return rbf_from_sqdist(sq, spec.sigma2, out=sq)
    _check_nonnegative(rp, cp)
    return _coordinate_product(rp, cp, _ink_factor)


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
    as a SemiseparableKernel. On [0, 1] the linear INK spline, the
    reproducing kernel of a cubic spline (Wahba, Spline Models for
    Observational Data, 1990), is 1 + xy + |x - y| u^2/2 + u^3/3 =
    p(u) + q(u) v with u = min(x, y), v = max(x, y), p(u) = 1 - u^3/6 and
    q(u) = u + u^2/2, both positive; cross_gram's factor is built from the
    same p and q. ValueError on a negative or NaN coordinate."""

    p = staticmethod(_ink_p)
    q = staticmethod(_ink_q)

    def __init__(self, s, t):
        super().__init__(s, t)
        _check_nonnegative(self.s, self.t)

    def dense(self) -> np.ndarray:
        """The m x n array: cross_gram's, whose factor is built from p and q."""
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
