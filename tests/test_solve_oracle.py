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

At the CV level, every candidate criterion of cross_validate, for all four
methods on a dozen points in 1-D and 2-D, must lie within the bound of
`assert_cv_matches_dense_recompute` of the criterion recomputed from each
fold's own points with cross_v, cross_gram and np.linalg.lstsq. That checks
the folds' and holdouts' matrices, which cross-validation takes as blocks
of the full-data ones, and the gamma scaling.
"""

from functools import partial

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from vratio import selection
from vratio.domain import DomainBox, ScaledSamples
from vratio.estimators import Method, kernel_spec_for, rect_identity_ones
from vratio.kernels import KernelKind, KernelSpec, cross_gram
from vratio.selection import CvPlan, SelectionError, cross_validate, make_folds
from vratio.solve import (
    NEAR_TIE_GAP,
    RESIDUAL_RTOL,
    BrownianFactor,
    PivotedCholesky,
    PsdPencilSolver,
    SingularSystemError,
    _eig_basis,
    _low_rank_solve,
    factor_v_matrix,
    pivoted_cholesky,
    solve_nonneg,
    solve_product_ridge_many,
    solve_ridge_square_many,
)
from vratio.vmatrix import MinKernel, cross_v, min_kernel

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


def v_form(points, V):
    """V'' of `points` in the form the estimators give it: the MinKernel of
    1-D points, else the array V."""
    return min_kernel(points, points) if points.shape[1] == 1 else V


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
    for solver in (PsdPencilSolver(v_form(points, S)), PsdPencilSolver(S)):
        X, errors = solver.solve(cs, b)
        for j, c in enumerate(cs):
            x = range_part(points, X[:, j])
            assert_near_oracle((S, S), c, S, b, x, rank, errors[j])
            if errors[j] is None and isinstance(solver._factor, BrownianFactor):
                assert np.linalg.norm(X[:, j] - x) <= n * EPS * np.linalg.norm(X[:, j])


def test_pencil_paths_are_the_ones_named():
    """The examples above take the closed form, its switch to the pivoted
    path, and the pivoted path itself when V'' is given as an array."""
    def factor(pts, operator=True):
        return type(PsdPencilSolver(min_kernel(pts, pts) if operator
                                    else cross_v(pts, pts))._factor)

    near = np.array([[0.5], [0.5 + 0.5 * NEAR_TIE_GAP], [1.0]])
    assert factor(np.array([[0.1], [0.4], [0.8]])) is BrownianFactor
    assert factor(near) is PivotedCholesky
    assert factor(np.array([[0.1], [0.4], [0.8]]), operator=False) is PivotedCholesky


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
    factor = pivoted_cholesky(A) if pivoted else factor_v_matrix(v_form(points, A))
    X, errors = solve_product_ridge_many(factor, K, gammas, b)
    n = A.shape[0]
    for j, g in enumerate(gammas):
        assert_near_oracle((A, K), g, np.eye(n), b, X[:, j], n, errors[j])


@ORACLE
@given(point_sets(), gamma_lists, seeds, kernels)
@example(np.array([[0.1]] * 3 + [[0.5]] * 3 + [[0.9]] * 2), [1e-12, 1e3], 0, 5.0)  # low rank
@example(np.linspace(0.0, 1.0, 8)[:, None], [1e-12, 1e3], 0, 0.05)  # the hand-off
def test_ridge_square_is_near_the_solution(points, gammas, seed, sigma2):
    K = _gram(points, sigma2)
    n = K.shape[0]
    b = np.random.default_rng(seed).standard_normal(n)
    for low_rank in (False, True):
        X, errors = solve_ridge_square_many(K, gammas, b, low_rank=low_rank)
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
    X, errors = solve_product_ridge_many(factor_v_matrix(min_kernel(points, points)), K,
                                         gammas, b, low_rank=True)
    n = A.shape[0]
    for j, g in enumerate(gammas):
        assert_near_oracle((A, K), g, np.eye(n), b, X[:, j], n, errors[j])


def count_eig_and_tridiagonal(monkeypatch) -> list:
    """The names of the dsyevd and dsytrd calls from now on, in call order."""
    calls = []
    for name in ("dsyevd", "dsytrd"):
        original = getattr(scipy.linalg.lapack, name)
        monkeypatch.setattr(scipy.linalg.lapack, name,
                            lambda *a, name=name, original=original, **k: (
                                calls.append(name), original(*a, **k))[1])
    return calls


def test_product_ridge_low_rank_examples_take_the_low_rank_path(monkeypatch):
    """Both examples above, with at most 3 distinct points of 8, solve from
    the eigendecomposition of the Gram of W'G (rank <= LOW_RANK_MAX_FRAC n),
    with no tridiagonal reduction."""
    calls = count_eig_and_tridiagonal(monkeypatch)
    for points, sigma2 in ((np.array([[0.2]] * 3 + [[0.6]] * 3 + [[1.0]] * 2), 5.0),
                           (np.array([[0.0]] * 4 + [[0.7]] * 4), 0.05)):
        A = cross_v(points, points)
        solve_product_ridge_many(factor_v_matrix(min_kernel(points, points)),
                                 _gram(points, sigma2), [1e-3], _range_rhs(A, 0), low_rank=True)
    assert calls == ["dsyevd", "dsyevd"]


def test_ridge_square_examples_take_the_paths_named(monkeypatch):
    """The low-rank example above, 3 distinct points of 8 at a wide sigma2,
    solves from the eigendecomposition of G'G (rank <= LOW_RANK_MAX_FRAC n)
    with no tridiagonal reduction; the hand-off example, 8 distinct points at
    a narrow sigma2, reduces K and takes no eigendecomposition."""
    calls = count_eig_and_tridiagonal(monkeypatch)
    for points, sigma2, want in (
            (np.array([[0.1]] * 3 + [[0.5]] * 3 + [[0.9]] * 2), 5.0, ["dsyevd"]),
            (np.linspace(0.0, 1.0, 8)[:, None], 0.05, ["dsytrd"])):
        calls.clear()
        solve_ridge_square_many(_gram(points, sigma2), [1e-12, 1e3], np.ones(8), low_rank=True)
        assert calls == want


def check_product_ridge_1d(points, K, gammas, seed) -> list:
    """solve_product_ridge_many with the closed-form factor of 1-D `points`
    and the PSD matrix K, against the formed system M = V''K + gamma I.

    For gamma > 0, or V''K nonsingular, M is nonsingular, so the oracle's
    lstsq is the dense np.linalg.solve. Every accepted column must meet the
    residual bound on M, up to the rounding of the formed product (the eps
    term of assert_near_oracle), and lie within assert_near_oracle's bound
    of the oracle. Returns the per-column errors.
    """
    A = cross_v(points, points)
    b = _range_rhs(A, seed)
    X, errors = solve_product_ridge_many(factor_v_matrix(min_kernel(points, points)), K,
                                         gammas, b)
    n, nb = A.shape[0], np.linalg.norm(b)
    m = np.linalg.norm(A, 2) * np.linalg.norm(K, 2) + max(gammas)
    for j, g in enumerate(gammas):
        if errors[j] is None:
            x = X[:, j]
            residual = np.linalg.norm(b - (A @ (K @ x) + g * x))
            assert residual <= (RESIDUAL_RTOL * (1.0 + nb)
                                + 10 * n * EPS * (m * np.linalg.norm(x) + nb))
        assert_near_oracle((A, K), g, np.eye(n), b, X[:, j], n, errors[j])
    return errors


@st.composite
def tied_1d_points(draw):
    """24 or 48 1-D points drawn from a pool of at most 40 coordinates that
    holds 1.0, the box's upper face (t = 0, a zero row of V''), so that
    every set has ties and most have points on the face."""
    n = draw(st.sampled_from([24, 48]))
    pool = [1.0] + [draw(_coord) for _ in range(draw(st.integers(1, 40)))]
    return np.array([[draw(st.sampled_from(pool))] for _ in range(n)])


@ORACLE
@given(tied_1d_points(), gamma_lists, seeds, kernels)
def test_product_ridge_1d_is_near_the_solution(points, gammas, seed, sigma2):
    """1-D points solve from a low-rank factor of W'KW when its rank is at
    most LOW_RANK_MAX_FRAC of V'''s and from its tridiagonal reduction
    otherwise; either way every accepted column is near the dense solve."""
    check_product_ridge_1d(points, _gram(points, sigma2), gammas, seed)


def _ties_and_face(distinct, ties=8, face=8, seed=5):
    """`distinct` uniform 1-D points, `ties` copies of 0.3 and `face` points
    at 1.0, on the box's upper face."""
    rng = np.random.default_rng(seed)
    return np.concatenate([[0.3] * ties, [1.0] * face, rng.random(distinct)])[:, None]


# points, the Gram of _gram's sigma2 or a function of its shape, gammas,
# and the dsyevd (low-rank) and dsytrd (tridiagonal) calls of the solve
PRODUCT_1D_PATHS = {
    # W'KW of the INK Gram has rank about 100 of 385, as on n = 800 fits
    "ink-low-rank": (_ties_and_face(384), None, [1e-6, 1e-2, 1.0], ["dsyevd"]),
    "rbf-low-rank": (_ties_and_face(24), 1.0, [1e-6, 1.0], ["dsyevd"]),
    # rank 1 of W'KW for the all-ones K, and rank 0 for the zero K, which
    # leaves the eigendecomposition no column, so the tridiagonal reduction solves
    "rank-1": (_ties_and_face(10), np.ones, [1e-3, 10.0], ["dsyevd"]),
    "rank-0": (_ties_and_face(10), np.zeros, [1e-3, 10.0], ["dsytrd"]),
    # every point on the face: V'' = 0 and W'KW is 0 x 0, reduced by no call
    "all-on-face": (np.ones((4, 1)), None, [1e-3], []),
    # 16 distinct INK points: W'KW has full rank 16, above the cut of 6.4
    "above-the-cut": (np.linspace(0.0, 0.9, 16)[:, None], None, [1e-3, 1.0], ["dsytrd"]),
    # rbf-low-rank with a gamma of 0, which the low-rank inverse divides by:
    # every column goes dense, and V''K, singular for the face points, fails
    # that one
    "gamma-0": (_ties_and_face(24), 1.0, [0.0, 1.0], ["dsytrd"]),
}


@pytest.mark.parametrize("case", list(PRODUCT_1D_PATHS))
def test_product_ridge_1d_examples_take_the_paths_named(case, monkeypatch):
    """Each example above solves every column on the path named, and every
    column of a gamma > 0 is accepted and near the dense solve."""
    points, gram, gammas, want = PRODUCT_1D_PATHS[case]
    K = gram((len(points),) * 2) if callable(gram) else _gram(points, gram)
    calls = count_eig_and_tridiagonal(monkeypatch)
    errors = check_product_ridge_1d(points, K, gammas, 0)
    assert calls == want
    assert [err for err, g in zip(errors, gammas) if g > 0] == [None] * sum(g > 0 for g in gammas)


# a rank-1 Z with three columns whose Z'Z has, from dsyevd, an eigenvalue
# of -7.8e-17, which _eig_basis clips to 0
NEGATIVE_EIG = np.outer([0.13, -0.13, 0.64, 0.1], [1.0, 3.0, 1.0])


def test_woodbury_example_has_a_negative_eigenvalue():
    lam = scipy.linalg.lapack.dsyevd(NEGATIVE_EIG.T @ NEGATIVE_EIG, lower=1)[0]
    assert lam.min() < 0.0
    Y, clipped = _eig_basis(NEGATIVE_EIG)
    assert clipped.min() == 0.0 and Y.shape == NEGATIVE_EIG.shape


@st.composite
def woodbury_factors(draw):
    """An n x r factor Z of K = Z Z', r = 0, 1 or more, with columns of
    scales six orders apart; in half the sets a column repeats another, up
    to a factor, so that Z'Z is singular and dsyevd may give a negative
    eigenvalue."""
    n = draw(st.sampled_from([1, 4, 12]))
    r = draw(st.sampled_from([0, 1, 2, 5]))
    rng = np.random.default_rng(draw(seeds))
    Z = rng.standard_normal((n, r)) * 10.0 ** rng.uniform(-3.0, 3.0, r)
    if r > 1 and draw(st.booleans()):
        Z[:, -1] = Z[:, 0] * draw(st.sampled_from([1.0, -3.0, 1e-4]))
    return Z


@ORACLE
@given(woodbury_factors(), st.sampled_from([2, 4]),
       st.lists(st.floats(-8.0, 1.0).map(lambda e: 10.0**e), min_size=1, max_size=4), seeds)
@example(NEGATIVE_EIG, 2, [1e-8, 1e-3, 10.0], 0)
@example(NEGATIVE_EIG, 4, [1e-8, 1e-3, 10.0], 0)
@example(np.zeros((4, 0)), 4, [1e-8, 10.0], 0)  # rank 0: x = b / gamma
def test_woodbury_inverse_is_near_the_solution(Z, power, scales, seed):
    """_low_rank_solve from _eig_basis(Z) at power 2, (K + gamma I) x = b,
    and power 4, (K K + gamma I) x = b, for K = Z Z' and gamma from 1e-8 to
    10 times the norm of K or K K. Every column is accepted by _verified,
    and lies within assert_near_oracle's bound of the formed system's
    lstsq solution."""
    K = Z @ Z.T
    n = K.shape[0]
    P = K if power == 2 else K @ K
    gammas = np.array(scales) * (np.linalg.norm(P, 2) or 1.0)
    b = np.random.default_rng(seed).standard_normal(n)
    Y, lam = _eig_basis(Z)

    def apply(X):
        return (K @ X if power == 2 else K @ (K @ X)) + X * gammas

    X, errors = _low_rank_solve(Y, lam, power, lambda B: B, lambda C: C, apply, b, gammas)
    assert errors == [None] * gammas.size
    products = (Z, Z.T) if power == 2 else (K, K)
    for j, g in enumerate(gammas):
        assert_near_oracle(products, g, np.eye(n), b, X[:, j], n, errors[j])


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


# the CV-level oracle: a dozen denominator and nine numerator points, three
# folds, four gammas and two RBF widths per draw
CV_PLAN = dict(k=3, gamma_grid=np.logspace(-5.0, 1.0, 4), sigma2_grid=[0.1, 2.0])
CV_ORACLE = settings(derandomize=True, database=None, deadline=None, max_examples=25)
# a near-tie below NEAR_TIE_GAP in every fold's training points: five copies
# each of 0.3 and 0.3 + NEAR_TIE_GAP / 2 outlast any holdout of four
NEAR_TIE_DEN = np.array([[0.3]] * 5 + [[0.3 + 0.5 * NEAR_TIE_GAP]] * 5 + [[1.0], [0.7]])
NEAR_TIE_NUM = np.array([[0.3], [0.3], [0.5], [0.7], [1.0], [0.1], [0.9], [0.3], [0.6]])


@st.composite
def cv_samples(draw):
    """12 denominator and 9 numerator points in [0, 1]^d, d in {1, 2}, from
    one pool of coordinates of _coord, so that ties within and between the
    samples, points on the upper face and gaps around NEAR_TIE_GAP are
    common."""
    d = draw(st.sampled_from([1, 2]))
    pool = [[draw(_coord) for _ in range(d)] for _ in range(draw(st.integers(3, 12)))]
    den, num = ([draw(st.sampled_from(pool)) for _ in range(size)] for size in (12, 9))
    return np.array(den), np.array(num)


def fold_system(method, spec, x_tr, z_tr, gamma):
    """The fold's system matrix, as (P1, P2, shift, Z) with M = P1 P2 + shift Z,
    and right-hand side, formed with cross_v and cross_gram from the fold's
    training points x_tr (denominator) and z_tr (numerator)."""
    n, ell = len(x_tr), len(z_tr)
    V = cross_v(x_tr, x_tr)
    b = n / ell * cross_v(x_tr, z_tr).sum(axis=1)
    if method is Method.DRE_V:
        return (V, V, gamma / n, V), b
    K = cross_gram(spec, x_tr, x_tr)
    if method is Method.ULSIF_LIKE:
        return (K, K, gamma, np.eye(n)), n / ell * K @ rect_identity_ones(n, ell)
    return (V, K, gamma, np.eye(n)), b


def dense_gamma_scale(method, spec, x_den):
    """tr(M)/n of the full-data system matrix, from cross_v and cross_gram."""
    n = len(x_den)
    V = cross_v(x_den, x_den)
    if method is Method.DRE_V:
        scale = np.trace(V)
    else:
        K = cross_gram(spec, x_den, x_den)
        scale = np.sum((K if method is Method.ULSIF_LIKE else V) * K) / n
    return scale if np.isfinite(scale) and scale > 0.0 else 1.0


def assert_cv_matches_dense_recompute(den, num, seed, monkeypatch):
    """cross_validate's every candidate against a per-candidate recompute.

    Each fold's matrices are formed from that fold's own points with cross_v
    and cross_gram, and each gamma is solved by y = lstsq(M, b), the
    minimal-norm solution. The fold's criterion of y is
    c(y) = 0.5 ||H y||^2 - lam 1'H_n y, with H and H_n the holdout matrices
    and lam = n/ell of all the data.

    The tolerance: the fold's coefficient column x, taken from the criterion
    call, has a residual r = b - M x of norm at most
    rho = RESIDUAL_RTOL (1 + ||b||) + 10 n eps (m ||x|| + ||b||), the
    residual bound plus the rounding of the solver's own products
    (m = || |P1| |P2| + shift |Z| ||_2 as in assert_near_oracle). Its part
    in the range of M (range_part for DRE-V, where H and H_n see nothing
    else) is y - M^+ r, with M^+ the pseudo-inverse of M at its structural
    rank. With g = H'H y - lam H_n'1,

        |c(x) - c(y)| <= ||M^+' g|| rho + 0.5 ||H M^+||_2^2 rho^2,

    plus the rounding of both criteria, at most 10 (n + m_h) eps
    (||a||^2 + lam sum(a_n)) for a = |H| (|x| + |y|), a_n the same of H_n
    and m_h the holdout size. The tolerance of a candidate is the sum over
    its folds. A candidate reported as failed is not checked. Each gamma is
    also checked against the grid times tr(M)/n of the formed full-data M.
    """
    s = ScaledSamples(den, num, DomainBox(np.zeros(den.shape[1]), np.ones(den.shape[1])))
    plan = CvPlan(seed=seed, **CV_PLAN)
    lam = s.n / s.ell
    num_folds, den_folds = make_folds(s.n, s.ell, plan.k, plan.seed)
    for method in Method:
        columns = []

        def spy(coef, hold_den, hold_num, n_over_l, criteria=selection._criteria):
            columns.append(coef.copy())
            return criteria(coef, hold_den, hold_num, n_over_l)

        with monkeypatch.context() as patch:
            patch.setattr(selection, "_criteria", spy)
            try:
                report = cross_validate(s, method, plan)
            except SelectionError:
                continue  # every candidate reported failed
        sigma2s = plan.sigma2_grid if method in (Method.DRE_VK_RBF, Method.ULSIF_LIKE) else [None]
        G = plan.gamma_grid.size
        for i, s2 in enumerate(sigma2s):
            spec = kernel_spec_for(method, s.d, None if s2 is None else float(s2))
            build = cross_v if spec is None else partial(cross_gram, spec)
            scale = dense_gamma_scale(method, spec, s.x_prime)
            for j, cand in enumerate(report.candidates[i * G:(i + 1) * G]):
                # tr(M) sums nonnegative terms: the rounding is relative
                assert cand.gamma == pytest.approx(plan.gamma_grid[j] * scale, rel=1e-12)
                if not cand.ok:
                    continue
                want = tol = 0.0
                for f, (num_hold, den_hold) in enumerate(zip(num_folds, den_folds)):
                    train = np.setdiff1d(np.arange(s.n), den_hold)
                    x_tr, z_tr = s.x_prime[train], s.x[np.setdiff1d(np.arange(s.ell), num_hold)]
                    (p1, p2, shift, Z), b = fold_system(method, spec, x_tr, z_tr, cand.gamma)
                    M = p1 @ p2 + shift * Z
                    y = np.linalg.lstsq(M, b, rcond=None)[0]
                    x = columns[f * len(sigma2s) + i][:, j]
                    H, H_n = build(s.x_prime[den_hold], x_tr), build(s.x[num_hold], x_tr)
                    want += 0.5 * np.sum((H @ y) ** 2) - lam * np.sum(H_n @ y)

                    n = len(train)
                    rank = structural_rank(x_tr) if method is Method.DRE_V else n
                    m = np.linalg.norm(np.abs(p1) @ np.abs(p2) + shift * np.abs(Z), 2)
                    nb = np.linalg.norm(b)
                    rho = RESIDUAL_RTOL * (1.0 + nb) + 10 * n * EPS * (m * np.linalg.norm(x) + nb)
                    U, sv, Wt = np.linalg.svd(M)
                    pinv = Wt[:rank].T @ (U[:, :rank] / sv[:rank]).T
                    g = H.T @ (H @ y) - lam * H_n.sum(axis=0)
                    tol += (np.linalg.norm(pinv.T @ g) * rho
                            + 0.5 * np.linalg.norm(H @ pinv, 2) ** 2 * rho**2)
                    a, a_n = (np.abs(A) @ (np.abs(x) + np.abs(y)) for A in (H, H_n))
                    tol += 10 * (n + len(H) + len(H_n)) * EPS * (a @ a + lam * a_n.sum())
                assert abs(cand.criterion - want) <= tol, (method, s2, cand, want, tol)


@CV_ORACLE
@given(cv_samples(), seeds)
@example((NEAR_TIE_DEN, NEAR_TIE_NUM), 0)  # the DRE-V folds take the dense fallback
def test_cross_validation_is_near_the_dense_recompute(samples, seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_cv_matches_dense_recompute(*samples, seed, monkeypatch)


def test_cv_near_tie_example_takes_the_dense_fallback(monkeypatch):
    """Every DRE-V fold of the example above factors the dense form of its
    MinKernel V'', which the closed form leaves at a gap below NEAR_TIE_GAP."""
    calls = []
    dense = MinKernel.dense
    monkeypatch.setattr(MinKernel, "dense", lambda self: calls.append(self.shape) or dense(self))
    s = ScaledSamples(NEAR_TIE_DEN, NEAR_TIE_NUM, DomainBox(np.zeros(1), np.ones(1)))
    cross_validate(s, Method.DRE_V, CvPlan(seed=0, **CV_PLAN))
    # three folds of 8 training points and the refit on all 12
    assert calls == [(8, 8)] * 3 + [(12, 12)]
