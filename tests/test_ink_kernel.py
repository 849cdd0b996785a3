"""The 1-D INK Gram as an InkKernel operator, against cross_gram.

dense() must equal cross_gram entry for entry; products, the transpose and
blocks must match the dense matrix within the rounding of their sums; and
the two closed forms taken from the operator's generators, W'KW
(BrownianFactor.congruence) and tr(V''K) (MinKernel.trace_product), must
match the forms computed from dense(). The points come from small pools
that hold 0 and 1, so that they tie, and some are moved to a neighbouring
float or by 1e-9, so that they nearly tie.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from vratio.domain import DimensionMismatchError
from vratio.kernels import InkKernel, KernelKind, KernelSpec, cross_gram, gram_matrix
from vratio.solve import (RESIDUAL_RTOL, factor_v_matrix, pivoted_cholesky,
                          solve_product_ridge_many, tridiagonalize)
from vratio.vmatrix import block, cross_v, min_kernel, trace_product

EPS = np.finfo(float).eps
INK = KernelSpec(KernelKind.INK_SPLINE_LINEAR, 1)


@st.composite
def ink_inputs(draw):
    """1-D points with ties, near-ties and coordinates at 0 and 1, queries
    equal to and between them, and an n x G matrix whose rows span twelve
    orders of magnitude, so that a sum that cancels would show."""
    n = draw(st.sampled_from([1, 2, 3, 8, 200]))
    pool = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                                  min_size=1, max_size=4)))
    tie_frac = draw(st.sampled_from([0.0, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = np.where(rng.random(n) < tie_frac, rng.choice(pool, n), rng.random(n))
    near = rng.random(n) < draw(st.sampled_from([0.0, 0.2]))
    step = draw(st.sampled_from(["ulp", "1e-9"]))
    moved = np.nextafter(x[near], 1.0) if step == "ulp" else x[near] + 1e-9
    x[near] = np.clip(moved, 0.0, 1.0)
    grid = np.unique(x)
    queries = np.concatenate([x[: min(n, 5)], (grid[:-1] + grid[1:])[:5] / 2, [0.0, 1.0],
                              rng.random(3)])
    G = draw(st.sampled_from([1, 4]))
    X = rng.standard_normal((n, G)) * 10.0 ** rng.uniform(-6.0, 6.0, (n, 1))
    return x, queries, X


def assert_product_near_dense(op, X):
    """op @ X against cross_gram's matrix times X: each of the n terms of a
    sum is rounded at most about n times in either, and the two forms of an
    entry, cross_gram's expression and p(u) + q(u) v, round it a few times
    more, so they agree within (n + 4) eps (|K| @ |X|) for n columns (one
    column gave 1.8 eps)."""
    K = op.dense()
    bound = (K.shape[1] + 4) * EPS * (np.abs(K) @ np.abs(X))
    assert np.all(np.abs(op @ X - K @ X) <= bound)


ONE_D = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@ONE_D
@given(ink_inputs())
@example((np.array([0.3, 0.3, 1.0, 0.0]), np.array([0.3, 0.15, 1.0, 0.0, 0.65]),
          np.array([[1e6, -1.0], [-1e6, 2.0], [5.0, 5.0], [1e-6, 3.0]])))
@example((np.ones(3), np.array([1.0, 0.5]), np.ones((3, 1))))  # V'' = 0: rank 0
def test_ink_kernel_matches_cross_gram(case):
    x, queries, X = case
    n = x.size
    K, D = InkKernel(x, x), cross_gram(INK, x[:, None], x[:, None])
    assert K.shape == (n, n)
    assert np.array_equal(K.dense(), D)
    assert_product_near_dense(K, X)
    assert_product_near_dense(K, X[:, 0])
    assert (K @ X[:, 0]).shape == (n,)
    # the holdout products: queries against the points, and the transpose
    cross = gram_matrix(INK, queries[:, None], x[:, None])
    assert isinstance(cross, InkKernel)
    assert np.array_equal(cross.dense(), cross_gram(INK, queries[:, None], x[:, None]))
    assert np.array_equal(cross.T.dense(), cross.dense().T)
    assert_product_near_dense(cross, X)
    assert_product_near_dense(cross.T, np.ones((queries.size, 2)))
    rows, cols = np.arange(queries.size)[::-2], np.arange(n)[::3]
    sub = block(cross, rows, cols)
    assert isinstance(sub, InkKernel)
    assert np.array_equal(sub.dense(), cross_gram(INK, queries[rows, None], x[cols, None]))

    # W'KW in closed form against the cumulative sums over dense(): every K
    # entry lies in [5/6, 7/3] on [0, 1], so the closed form's terms
    # F, P N and Q X are at most about 9 times the entry they sum to, each
    # from sums of at most n positive terms; the cumsum form adds at most 2n
    # roundings per entry
    V = min_kernel(x[:, None], x[:, None])
    factor = factor_v_matrix(V)
    S, want = factor.congruence(K), factor.congruence(D)
    assert S.shape == want.shape == (factor.rank, factor.rank) and S.flags.f_contiguous
    # only the closed form's lower triangle is defined
    low = np.tri(factor.rank, dtype=bool)
    assert np.all(np.abs(S - want)[low] <= 16 * (n + 1) * EPS * np.abs(want)[low])
    # dpstrf's cut falls within rounding of a pivot in about 1 of 400 such
    # sets, so the ranks may differ there by one (a 200-point set gave 107
    # against 108, with pivots at 1.06 and 1.00 times the tolerance)
    if factor.rank:
        assert abs(pivoted_cholesky(S).rank - pivoted_cholesky(want).rank) <= 1

    # tr(V''K): both sums add at most n terms of |V''| |K|
    Vd = cross_v(x[:, None], x[:, None])
    terms = np.sum(np.abs(Vd) * np.abs(D))
    assert abs(trace_product(V, K) - np.sum(Vd * D)) <= 2 * (n + 4) * EPS * terms
    assert abs(trace_product(V, K) - trace_product(V, D)) <= 2 * (n + 4) * EPS * terms

    # a Gram of other points, or of other rows than columns, is refused
    others = [InkKernel(queries, queries), InkKernel(x, np.roll(x, 1) if n > 1 else 1.0 - x)]
    for other in others:
        if np.array_equal(other.s, x) and np.array_equal(other.t, x):
            continue  # a roll of tied points can give the points back
        with pytest.raises(ValueError, match="points must be those of V''"):
            factor.congruence(other)
        with pytest.raises(ValueError, match="points must be those of V''"):
            trace_product(V, other)


def test_congruence_of_640_uniform_points_has_the_rank_and_pivots_of_the_cumsum_form():
    """On the points of an n = 800 fit's fold (uniform, 640 points) the closed
    form of W'KW gives dpstrf the same rank and pivots as the cumulative
    sums over the dense Gram, within 4 n eps on the lower triangle, the
    closed form's only defined one."""
    x = np.random.default_rng(7).random(640)
    factor = factor_v_matrix(min_kernel(x[:, None], x[:, None]))
    S = factor.congruence(InkKernel(x, x))
    want = factor.congruence(cross_gram(INK, x[:, None], x[:, None]))
    low = np.tri(factor.rank, dtype=bool)
    assert np.all(np.abs(S - want)[low] <= 4 * x.size * EPS * np.abs(want)[low])
    got, ref = pivoted_cholesky(S), pivoted_cholesky(want)
    assert 80 <= got.rank == ref.rank <= 130
    assert np.array_equal(got.perm[:got.rank], ref.perm[:ref.rank])


@ONE_D
@given(ink_inputs())
def test_congruence_needs_only_its_lower_triangle(case):
    """dpstrf and dsytrd read only the lower triangle, the closed form's only
    defined one: with the strict upper triangle NaN, pivoted_cholesky and
    tridiagonalize (and its Q products) give bit for bit what they give on
    the lower triangle mirrored."""
    x, _, X = case
    factor = factor_v_matrix(min_kernel(x[:, None], x[:, None]))
    S = factor.congruence(InkKernel(x, x))
    upper = np.triu_indices(factor.rank, 1)
    mirrored = np.array(S, order="F")
    mirrored[upper] = S.T[upper]
    S[upper] = np.nan
    got, want = pivoted_cholesky(S), pivoted_cholesky(mirrored)
    assert got.rank == want.rank
    assert np.array_equal(got.perm, want.perm) and np.array_equal(got.L, want.L)
    got, want = tridiagonalize(S), tridiagonalize(mirrored)
    B = X[: factor.rank]
    for a, b in ((got.diag, want.diag), (got.off, want.off), (got.tau, want.tau),
                 (np.tril(got.reflectors), np.tril(want.reflectors)),
                 (got.q(B), want.q(B)), (got.qt(B), want.qt(B))):
        assert np.array_equal(a, b)


def test_ink_kernel_refuses_what_cross_gram_refuses():
    with pytest.raises(ValueError, match="nonnegative"):
        InkKernel([0.5, -0.2], [0.5])
    with pytest.raises(ValueError, match="nonnegative"):
        gram_matrix(INK, [[0.5]], [[-1e-300]])
    with pytest.raises(DimensionMismatchError):
        gram_matrix(INK, [[0.5, 0.5]], [[0.5, 0.5]])
    with pytest.raises(ValueError, match="rows"):
        InkKernel([0.5], [0.2, 0.3]) @ np.ones(3)
    # the other Grams stay arrays
    assert isinstance(gram_matrix(KernelSpec(KernelKind.INK_SPLINE_LINEAR, 2), [[0.5, 0.5]],
                                  [[0.1, 0.2]]), np.ndarray)
    assert isinstance(gram_matrix(KernelSpec(KernelKind.RBF, 1, 0.5), [[0.5]], [[0.1]]),
                      np.ndarray)


@pytest.mark.parametrize("case", ["uniform", "ties-faces"])
def test_product_ridge_with_the_operator_meets_the_bound_on_the_formed_system(case):
    """solve_product_ridge_many with the InkKernel takes W'KW in closed form
    and checks every column with operator products; each column it accepts
    also meets the residual bound on V''K + gamma I formed from cross_v and
    cross_gram, up to the rounding of the formed product, and solves as the
    dense Gram does within the bound's reach."""
    rng = np.random.default_rng(8)
    x = rng.random(160)
    if case == "ties-faces":
        x[:20], x[20:28] = x[20], 1.0
    A, D = cross_v(x[:, None], x[:, None]), cross_gram(INK, x[:, None], x[:, None])
    factor = factor_v_matrix(min_kernel(x[:, None], x[:, None]))
    b = A @ rng.standard_normal(x.size)
    gammas = np.logspace(-5, 1, 7) * np.trace(A @ D) / x.size
    X, errors = solve_product_ridge_many(factor, InkKernel(x, x), gammas, b)
    dense, dense_errors = solve_product_ridge_many(factor, D, gammas, b)
    assert errors == dense_errors == [None] * gammas.size
    m = np.linalg.norm(A, 2) * np.linalg.norm(D, 2)
    nb = np.linalg.norm(b)
    for j, g in enumerate(gammas):
        M = A @ D + g * np.eye(x.size)
        bound = RESIDUAL_RTOL * (1 + nb) + 10 * x.size * EPS * (
            (m + g) * np.linalg.norm(X[:, j]) + nb)
        assert np.linalg.norm(b - M @ X[:, j]) <= bound
        # both meet the bound, so both lie within bound / s_min of the one solution
        s_min = scipy.linalg.svdvals(M)[-1]
        assert np.linalg.norm(X[:, j] - dense[:, j]) <= 2 * bound / s_min
