"""Sample containers, the integration box and coordinate scaling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# how far outside [0, 1] a box-scaled coordinate may lie and still be clamped
# onto the face; a point beyond it raises OutOfBoxError
BOX_TOL = 1e-12


class DimensionMismatchError(ValueError):
    """Inputs disagree on the number of coordinates."""


class OutOfBoxError(ValueError):
    """A point falls outside the fitted box by more than the tolerance."""


def as_points(points) -> np.ndarray:
    """Coerce input to a float (m, d) array with d >= 1; 1-d input becomes a
    column of 1-d points."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"points must be a 1-d or 2-d array, got ndim={pts.ndim}")
    if pts.shape[1] == 0:
        raise ValueError("points must have at least one coordinate, got (m, 0)")
    return pts


@dataclass(frozen=True)
class SampleSet:
    """Ordered collection of d-dimensional points."""

    points: np.ndarray

    def __post_init__(self):
        pts = as_points(self.points)
        if pts.shape[0] == 0:
            raise ValueError("sample set must contain at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("sample points must be finite")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class DomainBox:
    """Axis-aligned box in raw units; its affine map sends data into [0,1]^d,
    the integration box of the V-matrices."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float)).copy()
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float)).copy()
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DimensionMismatchError("lower and upper must be 1-d vectors of equal length")
        if not np.all(lo < hi):
            raise ValueError("box must satisfy lower < upper in every coordinate")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def d(self) -> int:
        return self.lower.shape[0]

    def transform(self, points) -> np.ndarray:
        """Map raw points into [0,1]^d; raises OutOfBoxError beyond BOX_TOL."""
        pts = as_points(points)
        if pts.shape[1] != self.d:
            raise DimensionMismatchError(
                f"points have dimension {pts.shape[1]}, box has dimension {self.d}"
            )
        z = (pts - self.lower) / (self.upper - self.lower)
        if not np.all((z >= -BOX_TOL) & (z <= 1.0 + BOX_TOL)):  # NaN fails too
            worst = float(np.max(np.abs(z - 0.5)) - 0.5)
            raise OutOfBoxError(f"scaled value exits [0,1] by {worst:.3e} (tol={BOX_TOL:.0e})")
        return np.clip(z, 0.0, 1.0)


@dataclass(frozen=True)
class ScaledSamples:
    """Numerator/denominator samples mapped into [0,1]^d together with their box."""

    x_prime: np.ndarray  # (n, d) denominator samples
    x: np.ndarray        # (ell, d) numerator samples
    box: DomainBox

    def __post_init__(self):
        xp = as_points(self.x_prime).copy()
        xn = as_points(self.x).copy()
        if xp.shape[1] != xn.shape[1]:
            raise DimensionMismatchError("numerator and denominator dimensions differ")
        if xp.shape[0] == 0 or xn.shape[0] == 0:
            raise ValueError("both sample sets must be nonempty")
        for arr in (xp, xn):
            if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN fails too
                raise OutOfBoxError("scaled samples must lie in [0,1]^d")
        xp.flags.writeable = False
        xn.flags.writeable = False
        object.__setattr__(self, "x_prime", xp)
        object.__setattr__(self, "x", xn)

    @property
    def n(self) -> int:
        return self.x_prime.shape[0]

    @property
    def ell(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x_prime.shape[1]

    def subset(self, num_idx, den_idx) -> "ScaledSamples":
        """New ScaledSamples restricted to the given index arrays (same box)."""
        return ScaledSamples(self.x_prime[np.asarray(den_idx)], self.x[np.asarray(num_idx)], self.box)

    def pooled(self) -> np.ndarray:
        return np.vstack([self.x_prime, self.x])


def fit_domain_box(numerator: SampleSet, denominator: SampleSet, margin: float = 0.0) -> DomainBox:
    """Fit the tightest box around the pooled data, widened by `margin` per side.

    A zero-range coordinate gets the fixed widening value +- 0.5 so the
    affine scaling stays defined. ValueError for a box of infinite width.
    """
    if numerator.d != denominator.d:
        raise DimensionMismatchError(
            f"numerator dimension {numerator.d} != denominator dimension {denominator.d}"
        )
    if not 0 <= margin < np.inf:
        raise ValueError(f"margin must be nonnegative and finite, got {margin}")
    pooled = np.vstack([numerator.points, denominator.points])
    lo = pooled.min(axis=0)
    hi = pooled.max(axis=0)
    # an overflow leaves a width that is not finite, which is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        rng = hi - lo
        degenerate = rng == 0.0
        lo = np.where(degenerate, lo - 0.5, lo - margin * rng)
        hi = np.where(degenerate, hi + 0.5, hi + margin * rng)
        bad = np.flatnonzero(~np.isfinite(hi - lo))
    if bad.size:
        raise ValueError(f"coordinate {bad[0]}: the data's box, widened by the margin, has no "
                         f"finite width ({lo[bad[0]]:g}, {hi[bad[0]]:g})")
    return DomainBox(lo, hi)


def scale(numerator: SampleSet, denominator: SampleSet, box: DomainBox) -> ScaledSamples:
    """Apply the box's affine map to both sample sets."""
    return ScaledSamples(box.transform(denominator.points), box.transform(numerator.points), box)

