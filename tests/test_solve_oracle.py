"""Property tests: every verified solve path against a dense oracle.

Small point sets with ties, points on the box's upper face (zero rows of
V'') and gaps around NEAR_TIE_GAP drive each solver. Each column a solver
accepts must lie within the bound of `assert_near_oracle` of
np.linalg.lstsq applied to the explicitly formed system, the minimal-norm
solution for the singular pencil; a column it reports as failed is not
checked. The nonnegative solve is checked against an enumeration of its
active sets. The oracle forms V'' with cross_v, so it also checks the
solvers' residual products, which for 1-D points sum min(t_i, t_j) x_j by
cumulative sums.
"""

import numpy as np
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from vratio.kernels import KernelKind, KernelSpec, cross_gram
from vratio.solve import (
    NEAR_TIE_GAP,
    RESIDUAL_RTOL,
    BrownianFactor,
    PivotedCholesky,
    PsdPencilSolver,
    SingularSystemError,
    factor_v_matrix,
    pivoted_cholesky,
    solve_nonneg,
    solve_product_ridge_low_rank,
    solve_product_ridge_many,
    solve_ridge_square_low_rank,
    solve_ridge_square_many,
)
from vratio.vmatrix import cross_v

EPS = np.finfo(float).eps
ORACLE = settings(derandomize=True, database=None, deadline=None, max_examples=120)

# a coordinate: a base value, optionally moved by a multiple of NEAR_TIE_GAP,
# so that points tie, sit on the upper face or lie just either side of the
# gap at which 1-D DRE-V leaves its closed form; or any value in [0, 1]
_near = st.builds(
    lambda base, mult, sign: float(np.clip(base + sign * mult * NEAR_TIE_GAP, 0.0, 1.0)),
    st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    st.sampled_from([0.0, 1e-3, 0.5, 1.0, 2.0, 1e3]),
    st.sampled_from([-1.0, 1.0]),
)
_coord = st.one_of(_near, st.floats(0.0, 1.0))


@st.composite
def point_sets(draw, dims=(1, 2, 5)):
    """n points in d dimensions, drawn from a pool of at most n distinct
    ones, so that ties are common and Grams can be of low rank."""
    n = draw(st.sampled_from([1, 2, 3, 8]))
    d = draw(st.sampled_from(dims))
    pool = [[draw(_coord) for _ in range(d)] for _ in range(draw(st.integers(1, n)))]
    return np.array([draw(st.sampled_from(pool)) for _ in range(n)])


gamma_lists = st.lists(st.floats(-12.0, 3.0).map(lambda e: 10.0**e), min_size=1, max_size=4)
seeds = st.integers(0, 2**16)


def structural_rank(points) -> int:
    """The rank of V'' in exact arithmetic: its distinct points off the upper
    face (a zero row) span it, and V'' of distinct points inside the box is
    positive definite, the Brownian-sheet covariance."""
    inside = points[np.all(points < 1.0, axis=1)]
    return np.unique(inside, axis=0).shape[0]


def assert_near_oracle(products, shift, shifted, b, x, rank, error):
    """Column x of a solver with its `error` against the formed system
    M = P1 P2 + shift * Z for products = (P1, P2) and Z = `shifted`.

    Let y = lstsq(M, b), the minimal-norm solution, s_r the rank-th
    singular value of M and m = || |P1| |P2| + shift |Z| ||_2, which bounds
    the rounding of every product with M. An accepted x has
    ||b - M x|| <= RESIDUAL_RTOL (1 + ||b||) plus the rounding of the
    solver's own products, and y has ||b - M y|| <= c n eps (m ||y|| + ||b||)
    as a backward-stable solve. Both lie in the row space of M, where M
    shrinks no vector below s_r, so with c = 10,

        ||x - y|| <= (RESIDUAL_RTOL (1 + ||b||) + 10 n eps (m (||x|| + ||y||)
                      + ||b||)) / s_r,

    a relative bound of the residual bound times the condition number
    ||M|| / s_r. The eps terms also cover the few last bits of x in the null
    space, and an s_r at the rounding level of M, where they exceed
    ||x|| + ||y||.
    """
    if error is not None:
        return
    p1, p2 = products
    M = p1 @ p2 + shift * shifted
    n = M.shape[0]
    y = np.linalg.lstsq(M, b, rcond=None)[0]
    if rank == 0:
        assert np.array_equal(x, np.zeros(n)) and np.array_equal(y, np.zeros(n))
        return
    s_r = np.linalg.svd(M, compute_uv=False)[rank - 1]
    m = np.linalg.norm(np.abs(p1) @ np.abs(p2) + shift * np.abs(shifted), 2)
    nx, ny, nb = np.linalg.norm(x), np.linalg.norm(y), np.linalg.norm(b)
    bound = (RESIDUAL_RTOL * (1.0 + nb) + 10 * n * EPS * (m * (nx + ny) + nb)) / s_r
    assert np.linalg.norm(x - y) <= bound, (np.linalg.norm(x - y), bound)


def _range_rhs(S, seed):
    """S c for a random c: in the range of S, with exact zeros at its zero
    rows and equal entries at its tied rows."""
    return S @ np.random.default_rng(seed).standard_normal(S.shape[0])


def range_part(points, x):
    """x projected onto the range of V'': the mean of x over each group of
    tied points, and 0 on the upper face. Tied points have equal basis
    functions and face points zero ones, so an estimate depends on nothing
    else."""
    _, group = np.unique(points, axis=0, return_inverse=True)
    group = group.ravel()
    means = np.bincount(group, weights=x) / np.bincount(group)
    return np.where(np.all(points < 1.0, axis=1), means[group], 0.0)


@ORACLE
@given(point_sets(), gamma_lists, seeds)
@example(np.array([[0.1], [0.4], [0.8]]), [1e-12, 1.0], 0)  # the closed form
@example(np.array([[0.5], [0.5 + 0.5 * NEAR_TIE_GAP], [1.0]]), [1e-6], 1)  # the switch
@example(np.array([[0.2], [0.2], [1.0], [0.6]]), [1e3], 2)  # ties and the face
def test_pencil_is_near_the_minimal_norm_solution(points, cs, seed):
    """The closed form returns the minimal-norm solution itself. The pivoted
    path is checked on its range part only: where dpstrf keeps a pivot of
    rounding size for a tie, its coefficients carry a null-space component
    of V'' (points [[1e-6], [1e-6]] give [4.4e-4, -2.6e-3] for the
    minimal-norm [-1.06e-3, -1.06e-3] at c = 1), which no estimate sees."""
    S = cross_v(points, points)
    b = _range_rhs(S, seed)
    rank = structural_rank(points)
    n = S.shape[0]
    for solver in (PsdPencilSolver(S, points), PsdPencilSolver(S)):
        X, errors = solver.solve(cs, b)
        for j, c in enumerate(cs):
            x = range_part(points, X[:, j])
            assert_near_oracle((S, S), c, S, b, x, rank, errors[j])
            if errors[j] is None and isinstance(solver._factor, BrownianFactor):
                assert np.linalg.norm(X[:, j] - x) <= n * EPS * np.linalg.norm(X[:, j])


def test_pencil_paths_are_the_ones_named():
    """The examples above take the closed form, its switch to the pivoted
    path, and the pivoted path itself when no points are given."""
    def factor(pts, given=True):
        return type(PsdPencilSolver(cross_v(pts, pts), pts if given else None)._factor)

    near = np.array([[0.5], [0.5 + 0.5 * NEAR_TIE_GAP], [1.0]])
    assert factor(np.array([[0.1], [0.4], [0.8]])) is BrownianFactor
    assert factor(near) is PivotedCholesky
    assert factor(np.array([[0.1], [0.4], [0.8]]), given=False) is PivotedCholesky


# the INK-spline kernel, or the RBF kernel at a narrow or a wide sigma2 per
# coordinate; a wide one gives a Gram of low numerical rank
kernels = st.sampled_from([None, 0.05, 5.0])


def _gram(points, sigma2):
    d = points.shape[1]
    spec = (KernelSpec(KernelKind.INK_SPLINE_LINEAR, d) if sigma2 is None
            else KernelSpec(KernelKind.RBF, d, sigma2=sigma2 * d))
    return cross_gram(spec, points, points)


@ORACLE
@given(point_sets(), gamma_lists, seeds, st.booleans(), kernels)
@example(np.array([[0.1], [0.4], [0.4], [1.0]]), [1e-12, 1e3], 0, False, None)
def test_product_ridge_is_near_the_solution(points, gammas, seed, pivoted, sigma2):
    A = cross_v(points, points)
    K = _gram(points, sigma2)
    b = _range_rhs(A, seed)
    factor = pivoted_cholesky(A) if pivoted else factor_v_matrix(A, points)
    X, errors = solve_product_ridge_many(factor, K, gammas, b)
    n = A.shape[0]
    for j, g in enumerate(gammas):
        assert_near_oracle((A, K), g, np.eye(n), b, X[:, j], n, errors[j])


@ORACLE
@given(point_sets(), gamma_lists, seeds, kernels)
@example(np.linspace(0.0, 1.0, 8)[:, None], [1e-12, 1e3], 0, 5.0)  # low rank
@example(np.linspace(0.0, 1.0, 8)[:, None], [1e-12, 1e3], 0, 0.05)  # the hand-off
def test_ridge_square_is_near_the_solution(points, gammas, seed, sigma2):
    K = _gram(points, sigma2)
    n = K.shape[0]
    b = np.random.default_rng(seed).standard_normal(n)
    for solve in (solve_ridge_square_many, solve_ridge_square_low_rank):
        X, errors = solve(K, gammas, b)
        for j, g in enumerate(gammas):
            assert_near_oracle((K, K), g, np.eye(n), b, X[:, j], n, errors[j])


@ORACLE
@given(point_sets(dims=(1,)), gamma_lists, seeds, kernels)
@example(np.array([[0.2]] * 3 + [[0.6]] * 3 + [[1.0]] * 2), [1e-12, 1e3], 0, 5.0)
@example(np.array([[0.0]] * 4 + [[0.7]] * 4), [1e-3], 1, 0.05)
def test_product_ridge_low_rank_is_near_the_solution(points, gammas, seed, sigma2):
    A = cross_v(points, points)
    K = _gram(points, sigma2)
    b = _range_rhs(A, seed)
    X, errors = solve_product_ridge_low_rank(factor_v_matrix(None, points), K, gammas, b)
    n = A.shape[0]
    for j, g in enumerate(gammas):
        assert_near_oracle((A, K), g, np.eye(n), b, X[:, j], n, errors[j])


def test_product_ridge_low_rank_examples_take_the_low_rank_path(monkeypatch):
    """Both examples above, with at most 3 distinct points of 8, solve from
    the SVD of W'G (rank <= LOW_RANK_MAX_FRAC n), with no tridiagonal
    reduction."""
    calls = []
    for name in ("dgesdd", "dsytrd"):
        original = getattr(scipy.linalg.lapack, name)
        monkeypatch.setattr(scipy.linalg.lapack, name,
                            lambda *a, name=name, original=original, **k: (
                                calls.append(name), original(*a, **k))[1])
    for points, sigma2 in ((np.array([[0.2]] * 3 + [[0.6]] * 3 + [[1.0]] * 2), 5.0),
                           (np.array([[0.0]] * 4 + [[0.7]] * 4), 0.05)):
        A = cross_v(points, points)
        solve_product_ridge_low_rank(factor_v_matrix(None, points), _gram(points, sigma2),
                                     [1e-3], _range_rhs(A, 0))
    assert calls == ["dgesdd", "dgesdd"]


def nonneg_oracle(A, b):
    """The minimizer of 0.5 y'Ay - b'y over y >= 0 for a symmetric positive
    definite A, by enumerating the free sets F: y_F solves A_FF y_F = b_F and
    y is 0 elsewhere. Returns the candidate with the smallest natural
    residual ||y - max(0, y - (Ay - b))||, and that residual; the minimizer's
    own is at the rounding level."""
    n = len(b)
    best, best_res = None, np.inf
    for mask in range(2**n):
        free = [i for i in range(n) if mask >> i & 1]
        y = np.zeros(n)
        if free:
            try:
                y[free] = np.linalg.solve(A[np.ix_(free, free)], b[free])
            except np.linalg.LinAlgError:
                continue
        res = np.linalg.norm(y - np.maximum(0.0, y - (A @ y - b)))
        if res < best_res:
            best, best_res = y, res
    return best, best_res


@ORACLE
@given(point_sets(), st.floats(-12.0, 3.0).map(lambda e: 10.0**e), seeds)
@example(np.array([[0.2], [0.2], [1.0], [0.6]]), 1e-3, 2)  # ties and the face
def test_nonneg_is_near_the_solution(points, gamma, seed):
    """The DRE-V system of dre_v_nonneg_values, A = V'' + (gamma/n) I, with a
    right-hand side of both signs, so that some bounds are active.

    For a strongly convex quadratic, ||x - y|| <= (1 + ||A||) / lambda_min(A)
    times the natural residual of x (Pang, Math. Oper. Res. 12, 1987), which
    is at most its projected gradient: at most the residual bound, plus the
    rounding of Ax - b, plus the oracle's own residual.
    """
    n = points.shape[0]
    A = cross_v(points, points) + (gamma / n) * np.eye(n)
    b = np.random.default_rng(seed).standard_normal(n)
    try:
        x = solve_nonneg(A, b)
    except SingularSystemError:
        return  # a reported failure is not checked
    y, y_res = nonneg_oracle(A, b)
    assert np.all(x >= 0.0)
    eigs = np.linalg.eigvalsh(A)
    m = np.linalg.norm(np.abs(A), 2)
    nx, ny, nb = np.linalg.norm(x), np.linalg.norm(y), np.linalg.norm(b)
    pg = RESIDUAL_RTOL * (1.0 + nb) + 10 * n * EPS * (m * (nx + ny) + nb) + y_res
    bound = (1.0 + eigs[-1]) / eigs[0] * pg
    assert np.linalg.norm(x - y) <= bound, (np.linalg.norm(x - y), bound)
