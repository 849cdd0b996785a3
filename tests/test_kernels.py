import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from vratio import kernels
from vratio.kernels import InkKernel, KernelKind, KernelSpec, cross_gram, gram_matrix
from vratio.vmatrix import cross_v


def ink1(x, y):
    """Reference closed form of the linear infinite-knot spline kernel on [0, 1].

    K1(x, y) = 1 + xy + |x - y| min(x,y)^2 / 2 + min(x,y)^3 / 3.
    Accepts scalars or same-shaped arrays; inputs must be nonnegative.
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if np.any(xv < 0) or np.any(yv < 0):
        raise ValueError("ink1 is defined on nonnegative inputs only")
    mn = np.minimum(xv, yv)
    out = 1.0 + xv * yv + 0.5 * np.abs(xv - yv) * mn**2 + mn**3 / 3.0
    return float(out) if out.ndim == 0 else out


def ink_gram_reference(rows, cols):
    """The INK Gram matrix as one expression per coordinate, with temporaries
    and the cube taken as mn * mn^2."""
    out = np.ones((rows.shape[0], cols.shape[0]))
    for k in range(rows.shape[1]):
        xk = rows[:, k]
        yk = cols[:, k]
        mn = np.minimum.outer(xk, yk)
        out *= (1.0 + np.outer(xk, yk) + 0.5 * np.abs(xk[:, None] - yk[None, :]) * mn**2
                + mn * mn**2 / 3.0)
    return out


def points_with_ties_and_faces(rng, n, d):
    pts = rng.random((n, d))
    pts[n // 2:n // 2 + 5] = pts[:5]
    pts[7, 0] = 0.0
    pts[9, -1] = 1.0
    pts[11] = 0.0
    pts[13] = 1.0
    return pts


def ink1_integral(x, y):
    """Defining integral of the linear spline kernel with knots spread over
    [0, min(x, y)], plus the constant and linear terms."""
    val, _ = quad(lambda t: (x - t) * (y - t), 0.0, min(x, y))
    return 1.0 + x * y + val


def test_ink1_known_values():
    assert ink1(0.0, 0.0) == 1.0
    assert ink1(1.0, 1.0) == pytest.approx(7.0 / 3.0)
    assert ink1(0.5, 1.0) == pytest.approx(77.0 / 48.0)


def test_ink1_matches_integral_on_grid():
    pts = np.linspace(0.0, 1.0, 9)
    for x in pts:
        for y in pts:
            assert ink1(x, y) == pytest.approx(ink1_integral(x, y), abs=1e-6)


def test_ink1_vectorized():
    x = np.array([0.1, 0.5, 0.9])
    y = np.array([0.4, 0.5, 0.2])
    out = ink1(x, y)
    assert out.shape == (3,)
    for i in range(3):
        assert out[i] == pytest.approx(ink1(x[i], y[i]))


def test_ink1_rejects_negative():
    with pytest.raises(ValueError):
        ink1(-0.1, 0.5)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_ink1_symmetric(x, y):
    assert ink1(x, y) == ink1(y, x)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(KernelKind.RBF, d=1)  # missing width
    with pytest.raises(ValueError):
        KernelSpec(KernelKind.RBF, d=1, sigma2=-1.0)
    with pytest.raises(ValueError):
        KernelSpec(KernelKind.INK_SPLINE_LINEAR, d=1, sigma2=1.0)
    with pytest.raises(ValueError):
        KernelSpec(KernelKind.INK_SPLINE_LINEAR, d=0)


@pytest.mark.parametrize("d, sigma2", [(1.5, 1.0), (2.0, 1.0), ("2", 1.0), (None, 1.0),
                                       (1, np.nan), (1, np.inf), (1, -np.inf), (1, 0.0)])
def test_kernel_spec_rejects_non_integer_dimension_and_non_finite_width(d, sigma2):
    with pytest.raises(ValueError):
        KernelSpec(KernelKind.RBF, d=d, sigma2=sigma2)


def test_kernel_spec_takes_numpy_integers_and_floats():
    spec = KernelSpec(KernelKind.RBF, d=np.int64(3), sigma2=np.float64(0.5))
    assert spec.d == 3 and spec.sigma2 == 0.5
    assert KernelSpec(KernelKind.INK_SPLINE_LINEAR, d=np.int32(2)).d == 2


def test_ink_gram_is_coordinatewise_product():
    rng = np.random.default_rng(12)
    pts = rng.random((7, 3))
    spec = KernelSpec(KernelKind.INK_SPLINE_LINEAR, d=3)
    K = cross_gram(spec, pts, pts)
    for i in range(7):
        for j in range(7):
            expected = np.prod([ink1(pts[i, k], pts[j, k]) for k in range(3)])
            assert K[i, j] == pytest.approx(expected)


def test_rbf_known_value():
    spec = KernelSpec(KernelKind.RBF, d=2, sigma2=0.5)
    K = cross_gram(spec, [[0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]])
    assert K[0, 0] == 1.0
    # squared distance 2 with 2 sigma^2 = 1
    assert K[0, 1] == pytest.approx(np.exp(-2.0))


@pytest.mark.parametrize(
    "spec",
    [
        KernelSpec(KernelKind.INK_SPLINE_LINEAR, d=2),
        KernelSpec(KernelKind.RBF, d=2, sigma2=0.3),
    ],
)
def test_gram_symmetric_psd(spec):
    rng = np.random.default_rng(13)
    for _ in range(10):
        pts = rng.random((20, 2))
        K = cross_gram(spec, pts, pts)
        assert np.allclose(K, K.T)
        assert np.linalg.eigvalsh(K).min() >= -1e-8


def test_cross_gram_shape_and_dimension_check():
    rng = np.random.default_rng(14)
    spec = KernelSpec(KernelKind.INK_SPLINE_LINEAR, d=2)
    K = cross_gram(spec, rng.random((5, 2)), rng.random((3, 2)))
    assert K.shape == (5, 3)
    with pytest.raises(Exception):
        cross_gram(spec, rng.random((5, 3)), rng.random((3, 2)))


def test_ink_gram_rejects_negative_coordinates():
    spec = KernelSpec(KernelKind.INK_SPLINE_LINEAR, d=1)
    with pytest.raises(ValueError):
        cross_gram(spec, np.array([[-0.2]]), np.array([[0.5]]))


@pytest.mark.parametrize("d", [1, 20])
def test_ink_cross_gram_matches_reference_within_rounding(d):
    """cross_gram's p(min) + q(min) max against the textbook form, on points
    with ties and on the faces of the box. Each form rounds each coordinate's
    factor about eight times on nonnegative terms (p's subtraction 1 - u^3/6
    at most 1.4-fold, as u^3/6 <= 1/6), and the product once per coordinate:
    within 12 eps per coordinate, so 12 d eps relative."""
    rng = np.random.default_rng(40 + d)
    rows = points_with_ties_and_faces(rng, 31, d)
    cols = np.vstack([points_with_ties_and_faces(rng, 24, d), rows[:6]])
    spec = KernelSpec(KernelKind.INK_SPLINE_LINEAR, d)
    bound = 12 * d * np.finfo(float).eps
    for other in (cols, rows):
        want = ink_gram_reference(rows, other)
        assert np.max(np.abs(cross_gram(spec, rows, other) - want) / want) <= bound


@pytest.mark.parametrize("d", [1, 20])
def test_blocked_builds_equal_row_by_row_builds(d):
    """With more rows than one block holds, cross_v and the INK cross_gram
    equal the matrices built one row at a time bit for bit: each entry
    multiplies its factors in coordinate order, whatever its block."""
    rng = np.random.default_rng(50 + d)
    cols = points_with_ties_and_faces(rng, 2000, d)
    rows = np.vstack([points_with_ties_and_faces(rng, 40, d), cols[:9]])
    assert rows.shape[0] > 2 * (kernels._BLOCK_ENTRIES // cols.shape[0])
    spec = KernelSpec(KernelKind.INK_SPLINE_LINEAR, d)
    for build in (cross_v, lambda a, b: cross_gram(spec, a, b)):
        by_row = np.vstack([build(row[None], cols) for row in rows])
        assert np.array_equal(build(rows, cols), by_row)


@pytest.mark.parametrize("d", [1, 20])
def test_ink_gram_rejects_nan_coordinates(d):
    rows = np.full((3, d), 0.5)
    rows[1, -1] = np.nan
    spec = KernelSpec(KernelKind.INK_SPLINE_LINEAR, d)
    for a, b in ((rows, rows[:1]), (rows[:1], rows)):
        with pytest.raises(ValueError):
            cross_gram(spec, a, b)
        with pytest.raises(ValueError):
            gram_matrix(spec, a, b)


def test_ink_kernel_rejects_nan_coordinates():
    x = np.array([0.2, np.nan, 0.7])
    for s, t in ((x, x[:1]), (x[:1], x)):
        with pytest.raises(ValueError):
            InkKernel(s, t)
