from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vratio.domain import DimensionMismatchError, DomainBox, OutOfBoxError, ScaledSamples
from vratio.vmatrix import build_v_matrices, cross_v, l2_residual


def v_entry(a, b) -> float:
    """Reference overlap volume prod_k (1 - max(a^k, b^k)) of two points in [0,1]^d."""
    mx = np.maximum(np.atleast_1d(np.asarray(a, dtype=float)),
                    np.atleast_1d(np.asarray(b, dtype=float)))
    if np.any(mx > 1.0):
        raise OutOfBoxError("max(a, b) exceeds 1 in some coordinate")
    return float(np.prod(1.0 - mx))


def unit_samples(rng, n, ell, d):
    box = DomainBox(np.zeros(d), np.ones(d))
    return ScaledSamples(rng.random((n, d)), rng.random((ell, d)), box)


def cross_v_reference(rows, cols):
    """The V-matrix on the unit box as one expression per coordinate."""
    out = np.ones((rows.shape[0], cols.shape[0]))
    for k in range(rows.shape[1]):
        out *= 1.0 - np.maximum.outer(rows[:, k], cols[:, k])
    return out


def points_with_ties_and_faces(rng, n, d):
    pts = rng.random((n, d))
    pts[n // 2:n // 2 + 5] = pts[:5]
    pts[7, 0] = 0.0
    pts[9, -1] = 1.0
    pts[11] = 0.0
    pts[13] = 1.0
    return pts


def test_v_entry_1d():
    # overlap of [0.2, 1] and [0.5, 1] has length 0.5
    assert v_entry([0.2], [0.5]) == pytest.approx(0.5)
    assert v_entry([0.0], [0.0]) == pytest.approx(1.0)
    assert v_entry([1.0], [0.3]) == pytest.approx(0.0)


def test_v_entry_product_over_coordinates():
    # coordinate-wise: (1 - 0.5) * (1 - 0.3) = 0.35
    assert v_entry([0.2, 0.3], [0.5, 0.1]) == pytest.approx(0.35)


def test_v_entry_rejects_point_beyond_u():
    with pytest.raises(OutOfBoxError):
        v_entry([1.5], [0.5])
    with pytest.raises(OutOfBoxError):
        cross_v([[1.5]], [[0.5]])


def test_v_entry_matches_grid_quadrature():
    # independent check: v_entry is the volume where both step functions are one
    rng = np.random.default_rng(11)
    grid = (np.arange(100_000) + 0.5) / 100_000
    for _ in range(10):
        a, b = rng.random(2)
        numeric = np.mean((grid >= a) & (grid >= b))
        assert v_entry([a], [b]) == pytest.approx(numeric, abs=2e-5)
    grid2 = (np.arange(400) + 0.5) / 400
    gx, gy = np.meshgrid(grid2, grid2, indexing="ij")
    for _ in range(5):
        a = rng.random(2)
        b = rng.random(2)
        numeric = np.mean((gx >= a[0]) & (gy >= a[1]) & (gx >= b[0]) & (gy >= b[1]))
        assert v_entry(a, b) == pytest.approx(numeric, abs=5e-3)


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4), st.data())
def test_v_entry_symmetric(a, data):
    b = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(a), max_size=len(a)))
    assert v_entry(a, b) == v_entry(b, a)


def test_cross_v_matches_entrywise():
    rng = np.random.default_rng(4)
    rows = rng.random((6, 2))
    cols = rng.random((4, 2))
    V = cross_v(rows, cols)
    for i in range(6):
        for j in range(4):
            assert V[i, j] == pytest.approx(v_entry(rows[i], cols[j]))


def test_build_v_matrices_shapes_and_symmetry():
    rng = np.random.default_rng(5)
    s = unit_samples(rng, 8, 5, 2)
    vm = build_v_matrices(s)
    assert vm.v_dd.shape == (8, 8)
    assert vm.v_dn.shape == (8, 5)
    assert vm.n == 8 and vm.ell == 5
    assert np.array_equal(vm.v_dd, vm.v_dd.T)


def test_v_dd_positive_semidefinite():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 4))
        pts = rng.random((n, d))
        V = cross_v(pts, pts)
        assert np.linalg.eigvalsh(V).min() >= -1e-8


def l2_quadrature(s, r):
    """Exact integral of the squared gap between the weighted denominator ECDF
    and the numerator ECDF: the integrand is constant on boxes of the grid
    spanned by the sample coordinates."""
    r = np.asarray(r, dtype=float)
    brks = [
        np.unique(np.concatenate([s.x_prime[:, k], s.x[:, k], [0.0, 1.0]]))
        for k in range(s.d)
    ]
    total = 0.0
    for cell in product(*(list(zip(b[:-1], b[1:])) for b in brks)):
        mid = np.array([(a + b) / 2 for a, b in cell])
        vol = np.prod([b - a for a, b in cell])
        fw = np.mean(r * np.all(s.x_prime <= mid, axis=1))
        f1 = np.mean(np.all(s.x <= mid, axis=1))
        total += vol * (fw - f1) ** 2
    return total


def test_l2_residual_matches_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(1, 6))
        ell = int(rng.integers(1, 6))
        s = unit_samples(rng, n, ell, d)
        r = rng.normal(scale=2.0, size=n)
        assert l2_residual(s, r) == pytest.approx(l2_quadrature(s, r), abs=1e-3)


def test_l2_residual_zero_when_measures_match():
    rng = np.random.default_rng(8)
    pts = rng.random((6, 2))
    box = DomainBox(np.zeros(2), np.ones(2))
    s = ScaledSamples(pts, pts, box)
    assert l2_residual(s, np.ones(6)) == 0.0


def test_l2_residual_reuses_given_v_matrices():
    rng = np.random.default_rng(10)
    s = unit_samples(rng, 7, 5, 2)
    r = rng.normal(size=7)
    assert l2_residual(s, r, vm=build_v_matrices(s)) == l2_residual(s, r)


def test_l2_residual_length_check():
    rng = np.random.default_rng(9)
    s = unit_samples(rng, 4, 3, 1)
    with pytest.raises(ValueError):
        l2_residual(s, np.ones(5))


@pytest.mark.parametrize("d", [1, 20])
def test_cross_v_equals_reference_exactly(d):
    rng = np.random.default_rng(50 + d)
    rows = points_with_ties_and_faces(rng, 31, d)
    cols = np.vstack([points_with_ties_and_faces(rng, 24, d), rows[:6]])
    assert np.array_equal(cross_v(rows, cols), cross_v_reference(rows, cols))
    assert np.array_equal(cross_v(rows, rows), cross_v_reference(rows, rows))


def test_cross_v_input_checks():
    with pytest.raises(OutOfBoxError):
        cross_v(np.array([[1.5]]), np.array([[0.5]]))
    # both faces of the unit box: below 0 the volume would exceed the box's
    with pytest.raises(OutOfBoxError):
        cross_v(np.array([[-0.5]]), np.array([[-0.2]]))
    with pytest.raises(OutOfBoxError):
        cross_v(np.array([[0.5]]), np.array([[0.2], [-0.1]]))
    with pytest.raises(OutOfBoxError):
        cross_v(np.array([[np.nan]]), np.array([[0.5]]))
    with pytest.raises(DimensionMismatchError):
        cross_v(np.zeros((2, 2)), np.zeros((2, 3)))
