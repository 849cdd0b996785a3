"""Kernels for the RKHS estimator: linear INK-spline (parameter-free) and Gaussian RBF."""

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


def cross_gram(spec: KernelSpec, rows, cols) -> np.ndarray:
    """Kernel matrix k(rows_i, cols_j).

    The linear INK-spline kernel on [0,1]^d is the product over coordinates of
    K1(x, y) = 1 + xy + |x - y| min(x,y)^2 / 2 + min(x,y)^3 / 3.
    """
    rp = as_points(rows)
    cp = as_points(cols)
    if rp.shape[1] != spec.d or cp.shape[1] != spec.d:
        raise DimensionMismatchError(
            f"points have dimensions {rp.shape[1]}/{cp.shape[1]}, kernel expects {spec.d}"
        )
    if spec.kind is KernelKind.RBF:
        sq = cdist(rp, cp, "sqeuclidean")
        return rbf_from_sqdist(sq, spec.sigma2, out=sq)
    if np.any(rp < 0) or np.any(cp < 0):
        raise ValueError("INK-spline inputs must be nonnegative")
    # each coordinate's factor ((1 + xy) + (0.5 |x - y|) mn^2) + mn^3 / 3 is
    # built in work buffers, so the result is exactly that of evaluating the
    # closed form elementwise; the first coordinate's factor is built in `out`
    # itself (1.0 * v == v)
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
        np.multiply(xk, yk, out=term)
        term += 1.0
        term += half_gap
        np.power(mn, 3.0, out=half_gap)
        half_gap /= 3.0
        term += half_gap
        if k:
            out *= term
    return out

