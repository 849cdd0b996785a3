"""V-matrices: Gram structure of indicator functions under the L2[0,1]^d inner product.

The entry for a pair of points a, b in [0,1]^d is the volume of the sub-box
where both step functions theta(x - a) and theta(x - b) are one:

    prod_k [1 - max(a^k, b^k)]
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import DimensionMismatchError, OutOfBoxError, ScaledSamples, as_points


def cross_v(rows, cols) -> np.ndarray:
    """Overlap volumes prod_k (1 - max(a^k, b^k)) for all row x column point pairs."""
    rp = as_points(rows)
    cp = as_points(cols)
    if rp.shape[1] != cp.shape[1]:
        raise DimensionMismatchError("row and column points must share dimension")
    for pts in (rp, cp):
        if not np.all((pts >= 0.0) & (pts <= 1.0)):
            raise OutOfBoxError("a point coordinate lies outside [0, 1]")
    # the first coordinate's factor is built in `out` itself (1.0 * v == v),
    # the others in one reused buffer
    out = np.empty((rp.shape[0], cp.shape[0]))
    buf = out if rp.shape[1] == 1 else np.empty_like(out)
    for k in range(rp.shape[1]):
        term = out if k == 0 else buf
        np.maximum(rp[:, k, None], cp[None, :, k], out=term)
        np.subtract(1.0, term, out=term)
        if k:
            out *= term
    return out


@dataclass(frozen=True)
class VMatrices:
    """The n x n denominator Gram matrix and the n x ell denominator-numerator cross matrix."""

    v_dd: np.ndarray
    v_dn: np.ndarray

    @property
    def n(self) -> int:
        return self.v_dd.shape[0]

    @property
    def ell(self) -> int:
        return self.v_dn.shape[1]


def build_v_matrices(s: ScaledSamples) -> VMatrices:
    """Build V'' (denominator x denominator) and V' (denominator x numerator)."""
    v_dd = cross_v(s.x_prime, s.x_prime)
    v_dn = cross_v(s.x_prime, s.x)
    # maximum.outer is exactly symmetric, so v_dd is symmetric by construction
    return VMatrices(v_dd, v_dn)


def l2_residual(s: ScaledSamples, r, vm: VMatrices | None = None) -> float:
    """Exact squared L2 distance between the weighted denominator and numerator
    empirical measures, including the r-independent term.

    Expands to (1/n^2) r'V''r - (2/(n ell)) r'V'1 + (1/ell^2) 1'V'''1 where
    V''' collects overlap volumes of numerator pairs. `vm`, when given, must
    be build_v_matrices(s); it saves rebuilding it.
    """
    rv = np.atleast_1d(np.asarray(r, dtype=float))
    if rv.shape[0] != s.n:
        raise ValueError(f"r has length {rv.shape[0]}, expected n={s.n}")
    vm = build_v_matrices(s) if vm is None else vm
    v_nn = cross_v(s.x, s.x)
    ones = np.ones(s.ell)
    val = (
        rv @ vm.v_dd @ rv / s.n**2
        - 2.0 * (rv @ vm.v_dn @ ones) / (s.n * s.ell)
        + ones @ v_nn @ ones / s.ell**2
    )
    # round-off can push an exact zero slightly negative
    return max(float(val), 0.0)
