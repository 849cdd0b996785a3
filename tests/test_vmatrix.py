from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vratio.domain import DimensionMismatchError, DomainBox, OutOfBoxError, ScaledSamples
from vratio.vmatrix import (MinKernel, VMatrices, block, build_v_matrices, cross_v, l2_residual,
                            min_kernel, trace_product, v_matrix)

EPS = np.finfo(float).eps


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
    assert np.array_equal(vm.v_dd, vm.v_dd.T)


@st.composite
def min_kernel_inputs(draw):
    """1-D denominator points, numerator points and queries with ties,
    coordinates at 0 and 1 (t = 1 and t = 0, a zero row of V), queries equal
    to and between denominator points, and an n x G matrix whose rows span
    twelve orders of magnitude, so that a sum that cancels would show."""
    n = draw(st.sampled_from([1, 2, 3, 8, 200]))
    pool = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                                  min_size=1, max_size=4)))
    tie_frac = draw(st.sampled_from([0.0, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))

    def points(m):
        return np.where(rng.random(m) < tie_frac, rng.choice(pool, m), rng.random(m))

    den = points(n)
    grid = np.unique(den)
    queries = np.concatenate([den[: min(n, 5)], (grid[:-1] + grid[1:])[:5] / 2,
                              [0.0, 1.0], rng.random(3)])
    G = draw(st.sampled_from([1, 4]))
    X = rng.standard_normal((n, G)) * 10.0 ** rng.uniform(-6.0, 6.0, (n, 1))
    return den[:, None], points(int(rng.integers(1, 12)))[:, None], queries[:, None], X


def assert_min_kernel_product(rows, cols, X):
    """min_kernel(rows, cols) @ X against cross_v(rows, cols) @ X.

    Both sum the same entries min(1 - a, 1 - b) times X, and each of the n
    terms of a sum is rounded at most about n + 1 times in either, so they
    agree within n eps (|V| @ |X|) for n column points. A row at x = 1 is an
    exact zero in both.
    """
    V = cross_v(rows, cols)
    got = min_kernel(rows, cols) @ X
    assert got.shape == (V @ X).shape
    bound = cols.shape[0] * EPS * (np.abs(V) @ np.abs(X))
    assert np.all(np.abs(got - V @ X) <= bound)
    assert np.all(got[rows[:, 0] == 1.0] == 0.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(min_kernel_inputs())
@example((np.array([[0.3], [0.3], [1.0], [0.0]]), np.array([[0.3], [1.0]]),
          np.array([[0.3], [0.15], [1.0], [0.0], [0.65]]),
          np.array([[1e6, -1.0], [-1e6, 2.0], [5.0, 5.0], [1e-6, 3.0]])))
def test_min_kernel_products_match_cross_v(case):
    """The three 1-D products of the solvers: V''X at the denominator points,
    V'1 for the right-hand side and the products at holdout points."""
    den, num, queries, X = case
    assert_min_kernel_product(den, den, X)
    assert_min_kernel_product(den, num, np.ones(num.shape[0]))
    assert_min_kernel_product(queries, den, X)
    assert_min_kernel_product(queries, den, X[:, 0])
    # tr(V''K), the gamma scale of DRE-VK, for a symmetric K: each of its sums
    # adds at most n terms of |V''| * |K|
    K = X @ X.T
    V = cross_v(den, den)
    err = abs(min_kernel(den, den).trace_product(K) - np.sum(V * K))
    assert err <= 2 * den.shape[0] * EPS * np.sum(np.abs(V) * np.abs(K))


def test_min_kernel_rejects_points_outside_the_box_or_in_2d():
    with pytest.raises(OutOfBoxError):
        min_kernel([[1.5]], [[0.5]])
    with pytest.raises(DimensionMismatchError):
        min_kernel([[0.5, 0.5]], [[0.5, 0.5]])
    with pytest.raises(ValueError):
        min_kernel([[0.5]], [[0.5]]) @ np.ones(2)


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


def test_l2_residual_takes_the_operators_of_1d_points():
    """With the MinKernel V-matrices of build_v_matrices, which
    cross-validation holds for 1-D points, l2_residual is the dense result
    within 4 max(n, ell) eps times its terms in absolute value: each product
    with V, dense or not, lies within n eps (|V| @ |r|) of the exact one."""
    rng = np.random.default_rng(11)
    den = points_with_ties_and_faces(rng, 40, 1)
    s = ScaledSamples(den, rng.random((30, 1)), DomainBox(np.zeros(1), np.ones(1)))
    r = rng.normal(size=s.n)
    vm = build_v_matrices(s)
    dense = VMatrices(cross_v(s.x_prime, s.x_prime), cross_v(s.x_prime, s.x))
    assert isinstance(vm.v_dd, MinKernel) and isinstance(vm.v_dn, MinKernel)
    ar, ones = np.abs(r), np.ones(s.ell)
    terms = ar @ dense.v_dd @ ar / s.n**2 + 2.0 * (ar @ dense.v_dn @ ones) / (s.n * s.ell)
    err = abs(l2_residual(s, r, vm=vm) - l2_residual(s, r, vm=dense))
    assert err <= 4 * max(s.n, s.ell) * EPS * terms


def test_min_kernel_dense_transpose_and_blocks_equal_cross_v():
    """dense(), T and block of a min_kernel operator equal cross_v of the
    same points entry for entry: ties, 0, 1 and neighbouring floats
    included. block of an array is the C-ordered sub-matrix."""
    rng = np.random.default_rng(12)
    rows = points_with_ties_and_faces(rng, 20, 1)
    rows[15] = np.nextafter(rows[14], 1.0)
    rows[16] = np.nextafter(1.0, 0.0)
    cols = np.vstack([points_with_ties_and_faces(rng, 16, 1), rows[10:]])
    op, V = min_kernel(rows, cols), cross_v(rows, cols)
    assert np.array_equal(op.dense(), V)
    assert np.array_equal(op.T.dense(), V.T)
    picks = ([3, 0, 7, 19, 7], [25, 1, 2, 13])
    got = block(V, *picks)
    assert np.array_equal(got, V[np.ix_(*picks)]) and got.flags.c_contiguous
    assert np.array_equal(block(op, *picks).dense(), cross_v(rows[picks[0]], cols[picks[1]]))
    square = min_kernel(rows, rows)
    K = rng.random((20, 20))
    K = K + K.T
    assert trace_product(square, K) == pytest.approx(trace_product(cross_v(rows, rows), K),
                                                     rel=1e-13)
    assert square.trace() == pytest.approx(np.trace(cross_v(rows, rows)), rel=1e-15)


@st.composite
def v_matrix_inputs(draw):
    """Row and column points of one dimension, 1 or 2, drawn from a small
    pool that holds 0 and 1, so that rows tie with rows and with columns and
    lie on both faces of the box."""
    d = draw(st.sampled_from([1, 2]))
    coord = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))
    pool = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=6))

    def points():
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
        return np.array([pool[i] for i in picks])

    return points(), points()


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(v_matrix_inputs())
@example((np.array([[0.0], [1.0], [0.3], [0.3]]), np.array([[0.3], [1.0], [0.0]])))
@example((np.array([[0.0, 1.0], [0.3, 0.3], [0.3, 0.3]]), np.array([[1.0, 0.0], [0.3, 0.3]])))
def test_v_matrix_equals_cross_v(case):
    """v_matrix picks the form by the points' dimension, a MinKernel for 1-D
    points and an array otherwise, and either equals cross_v entry for entry."""
    rows, cols = case
    V = v_matrix(rows, cols)
    assert isinstance(V, MinKernel) == (rows.shape[1] == 1)
    got = V.dense() if isinstance(V, MinKernel) else V
    assert np.array_equal(got, cross_v(rows, cols))


def test_trace_product_rejects_a_min_kernel_that_is_not_square_in_its_points():
    """tr(V K) of a MinKernel holds only for s = t; other points raise instead
    of the sum for V'' (2.92 here, where tr(cross_v(x, y) K) is 2.09)."""
    x, y = np.array([0.2, 0.5, 0.9]), np.array([0.1, 0.6, 0.3])
    K = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
    assert np.trace(cross_v(x, y) @ K) == pytest.approx(2.09)
    for V in (min_kernel(x, y), MinKernel(x, y)):
        with pytest.raises(ValueError, match="must have s = t"):
            V.trace_product(K)
        with pytest.raises(ValueError, match="must have s = t"):
            trace_product(V, K)
    assert trace_product(min_kernel(x, x), K) == pytest.approx(np.trace(cross_v(x, x) @ K))


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
