import warnings

import numpy as np
import pytest

from vratio.domain import (
    DimensionMismatchError,
    DomainBox,
    OutOfBoxError,
    SampleSet,
    ScaledSamples,
    as_points,
    fit_domain_box,
    scale,
)


def test_as_points_coerces_1d_to_column():
    pts = as_points([1.0, 2.0, 3.0])
    assert pts.shape == (3, 1)


def test_as_points_rejects_3d():
    with pytest.raises(ValueError):
        as_points(np.zeros((2, 2, 2)))


def test_sample_set_basic():
    s = SampleSet(np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert s.size == 2
    assert s.d == 2
    with pytest.raises(ValueError):
        s.points[0, 0] = 5.0  # read-only


def test_sample_set_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        SampleSet(np.empty((0, 2)))
    with pytest.raises(ValueError):
        SampleSet(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        SampleSet(np.array([[np.inf]]))


def test_domain_box_validation():
    with pytest.raises(ValueError):
        DomainBox(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(DimensionMismatchError):
        DomainBox(np.array([0.0]), np.array([1.0, 2.0]))


def test_domain_box_transform_endpoints():
    box = DomainBox(np.array([-1.0, 2.0]), np.array([3.0, 4.0]))
    z = box.transform(np.array([[-1.0, 2.0], [3.0, 4.0], [1.0, 3.0]]))
    assert np.allclose(z, [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])


def test_domain_box_transform_out_of_box():
    box = DomainBox(np.array([0.0]), np.array([1.0]))
    message = r"^scaled value exits \[0,1\] by 5\.000e-01 \(tol=1e-12\)$"
    with pytest.raises(OutOfBoxError, match=message):
        box.transform(np.array([[1.5]]))
    # within tolerance the result is clipped into [0, 1]
    z = box.transform(np.array([[1.0 + 1e-15]]))
    assert z[0, 0] == 1.0
    assert box.transform(np.array([[1.0 + 0.9e-12]]))[0, 0] == 1.0
    with pytest.raises(OutOfBoxError):
        box.transform(np.array([[1.0 + 1.1e-12]]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(OutOfBoxError):
            box.transform(np.array([[0.5], [bad]]))


def test_fit_domain_box_tight():
    num = SampleSet(np.array([[1.0], [3.0]]))
    den = SampleSet(np.array([[2.0], [5.0]]))
    box = fit_domain_box(num, den)
    assert np.allclose(box.lower, [1.0])
    assert np.allclose(box.upper, [5.0])


def test_fit_domain_box_margin():
    num = SampleSet(np.array([[1.0], [3.0]]))
    den = SampleSet(np.array([[2.0], [5.0]]))
    box = fit_domain_box(num, den, margin=0.1)
    # range is 4, so each side widens by 0.4
    assert np.allclose(box.lower, [0.6])
    assert np.allclose(box.upper, [5.4])


def test_fit_domain_box_degenerate_coordinate():
    num = SampleSet(np.array([[2.0, 1.0]]))
    den = SampleSet(np.array([[2.0, 4.0]]))
    box = fit_domain_box(num, den)
    assert np.allclose(box.lower, [1.5, 1.0])
    assert np.allclose(box.upper, [2.5, 4.0])


def test_fit_domain_box_rejects_negative_margin():
    s = SampleSet(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError):
        fit_domain_box(s, s, margin=-0.1)


@pytest.mark.parametrize("margin", [np.nan, np.inf])
def test_fit_domain_box_rejects_non_finite_margin(margin):
    s = SampleSet(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError, match="margin must be nonnegative and finite"):
        fit_domain_box(s, s, margin=margin)


@pytest.mark.parametrize("points,margin", [
    ([[1e308, 0.0], [-1e308, 1.0]], 0.0),  # the range overflows
    ([[1.0, 0.0], [1.0, 10.0]], 1e308),    # the widened bounds overflow
], ids=["range", "margin"])
def test_fit_domain_box_rejects_a_box_without_finite_width(points, margin):
    s = SampleSet(np.array(points))
    coordinate = 0 if margin == 0.0 else 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"coordinate {coordinate}: .* no finite width"):
            fit_domain_box(s, s, margin=margin)


def test_scale_maps_into_unit_box():
    rng = np.random.default_rng(3)
    num = SampleSet(rng.normal(size=(10, 2)))
    den = SampleSet(rng.normal(size=(15, 2)))
    s = scale(num, den, fit_domain_box(num, den))
    assert s.n == 15 and s.ell == 10 and s.d == 2
    assert s.x_prime.min() >= 0.0 and s.x_prime.max() <= 1.0
    assert s.x.min() >= 0.0 and s.x.max() <= 1.0
    assert s.pooled().shape == (25, 2)


def test_scaled_samples_subset_preserves_box():
    box = DomainBox(np.zeros(1), np.ones(1))
    s = ScaledSamples(np.array([[0.1], [0.5], [0.9]]), np.array([[0.2], [0.8]]), box)
    sub = s.subset([0], [1, 2])
    assert sub.n == 2 and sub.ell == 1
    assert sub.box is box


def test_scaled_samples_rejects_points_outside_unit_box():
    box = DomainBox(np.zeros(1), np.ones(1))
    with pytest.raises(OutOfBoxError):
        ScaledSamples(np.array([[1.2]]), np.array([[0.5]]), box)
    with pytest.raises(OutOfBoxError):
        ScaledSamples(np.array([[0.5]]), np.array([[-0.2]]), box)
    with pytest.raises(OutOfBoxError):
        ScaledSamples(np.array([[np.nan], [0.5]]), np.array([[0.5]]), box)
    with pytest.raises(OutOfBoxError):
        ScaledSamples(np.array([[0.5]]), np.array([[0.5], [np.nan]]), box)


def test_points_without_coordinates_are_rejected_once():
    """A (m, 0) array has no dimension to scale, build or fit: as_points,
    which every point set passes through, raises a clear ValueError."""
    for make in (as_points, SampleSet):
        with pytest.raises(ValueError, match="at least one coordinate"):
            make(np.empty((3, 0)))
