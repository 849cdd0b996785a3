import numpy as np
import pytest
import scipy.linalg

from vratio import solve
from vratio.kernels import KernelKind, KernelSpec, cross_gram
from vratio.solve import (
    RESIDUAL_RTOL,
    PsdPencilSolver,
    SingularSystemError,
    SolveMethod,
    pivoted_cholesky,
    solve_nonneg,
    solve_product_ridge_many,
    solve_regularized,
    solve_ridge_square_many,
)
from vratio.vmatrix import cross_v


def random_psd(rng, n, ridge=0.1):
    G = rng.normal(size=(n, n))
    return G.T @ G + ridge * np.eye(n)


def test_solve_regularized_matches_reference():
    rng = np.random.default_rng(20)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        A = random_psd(rng, n, ridge=0.0)
        b = rng.normal(size=n)
        gamma = float(rng.uniform(0.01, 1.0))
        rep = solve_regularized(A, gamma, b)
        expected = np.linalg.solve(A + gamma * np.eye(n), b)
        assert np.allclose(rep.solution, expected, atol=1e-8)
        assert rep.method is SolveMethod.DIRECT
        assert rep.residual_norm <= RESIDUAL_RTOL * (1.0 + np.linalg.norm(b))


def test_solve_regularized_singular_raises():
    A = np.zeros((3, 3))
    with pytest.raises(SingularSystemError):
        solve_regularized(A, 0.0, np.ones(3))


def test_solve_regularized_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_regularized(np.eye(2), -1.0, np.ones(2))
    with pytest.raises(ValueError):
        solve_regularized(np.eye(2), 0.1, np.ones(3))


def test_pencil_solver_matches_direct_on_nonsingular():
    rng = np.random.default_rng(22)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        S = random_psd(rng, n)
        b = rng.normal(size=n)
        solver = PsdPencilSolver(S)
        for c in [1e-6, 0.1, 10.0]:
            rep = solver.solve(c, b)
            expected = np.linalg.solve(S @ S + c * S, b)
            assert np.allclose(rep.solution, expected, atol=1e-6)
            assert rep.method is SolveMethod.EIG_PENCIL
            assert rep.residual_norm <= RESIDUAL_RTOL * (1.0 + np.linalg.norm(b))


def test_pencil_solver_singular_consistent_rhs():
    # S has an exactly zero row/column; rhs in the range space still solves
    S = np.diag([1.0, 2.0, 0.0])
    b = np.array([1.0, 4.0, 0.0])
    rep = PsdPencilSolver(S).solve(0.5, b)
    x = rep.solution
    assert np.allclose(S @ S @ x + 0.5 * S @ x, b, atol=1e-10)
    assert x[2] == 0.0  # minimal-norm solution has no null-space component


def test_pencil_solver_inconsistent_rhs_raises():
    S = np.diag([1.0, 0.0])
    with pytest.raises(SingularSystemError):
        PsdPencilSolver(S).solve(0.5, np.array([1.0, 1.0]))


def test_pencil_solver_requires_symmetry():
    with pytest.raises(ValueError):
        PsdPencilSolver(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_pencil_solve_many_matches_solve():
    rng = np.random.default_rng(23)
    S = random_psd(rng, 7)
    b = rng.normal(size=7)
    cs = np.array([1e-6, 0.1, 10.0])
    solver = PsdPencilSolver(S)
    X, errors = solver.solve_many(cs, b, [f"c={c}" for c in cs])
    assert errors == [None, None, None]
    for j, c in enumerate(cs):
        assert np.allclose(X[:, j], solver.solve(c, b).solution, rtol=1e-10, atol=1e-12)


def test_pencil_solve_many_reports_each_failure_as_solve_raises():
    solver = PsdPencilSolver(np.diag([1.0, 0.0]))
    b = np.array([1.0, 1.0])  # not in the range of S
    _, errors = solver.solve_many(np.array([0.5, 2.0]), b, ["c=0.5", "c=2"])
    for c, err in zip((0.5, 2.0), errors):
        with pytest.raises(SingularSystemError) as exc:
            solver.solve(c, b, context=f"c={c:g}")
        assert err == str(exc.value)


def test_solve_ridge_square_many_matches_lu():
    rng = np.random.default_rng(24)
    for rank in (6, 3):  # full rank and rank-deficient K
        G = rng.normal(size=(6, rank))
        K = G @ G.T
        b = rng.normal(size=6)
        gammas = np.array([1e-4, 1e-2, 1.0])
        X, errors = solve_ridge_square_many(K, gammas, b, ["a", "b", "c"])
        assert errors == [None, None, None]
        for j, gamma in enumerate(gammas):
            want = solve_regularized(K @ K, gamma, b).solution
            assert np.allclose(X[:, j], want, rtol=1e-8, atol=1e-10)
            assert np.linalg.norm((K @ K + gamma * np.eye(6)) @ X[:, j] - b) <= (
                RESIDUAL_RTOL * (1.0 + np.linalg.norm(b)))


def test_solve_ridge_square_many_flags_singular_columns():
    K = np.diag([1.0, 0.0])
    b = np.array([1.0, 1.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        _, errors = solve_ridge_square_many(K, np.array([0.0, 1.0]), b, ["gamma=0", "gamma=1"])
    assert errors[1] is None
    assert errors[0].startswith("system singular to working precision (gamma=0)")


def product_system(x_den, x_num, spec):
    """V'', K and the DRE-VK right-hand side (n/ell) V' 1 of scaled points."""
    V = cross_v(x_den, x_den)
    K = cross_gram(spec, x_den, x_den)
    b = len(x_den) / len(x_num) * cross_v(x_den, x_num).sum(axis=1)
    gammas = np.logspace(-5.0, 1.0, 15) * np.sum(V * K) / len(x_den)
    return V, K, b, gammas


def product_cases():
    rng = np.random.default_rng(25)
    ties = rng.random((40, 1))
    ties[20:30] = ties[:10]
    on_face = rng.random((40, 1))
    on_face[7] = 1.0  # a zero row of V''
    flat = rng.random((40, 1))
    return {
        "1d-ties": (ties, rng.random((30, 1)), KernelSpec(KernelKind.INK_SPLINE_LINEAR, 1)),
        "1d-point-at-1": (on_face, rng.random((30, 1)), KernelSpec(KernelKind.RBF, 1, 0.1)),
        # a wide RBF on 1-D points: K is numerically rank-deficient
        "1d-rank-deficient-rbf": (flat, rng.random((30, 1)), KernelSpec(KernelKind.RBF, 1, 50.0)),
        "3d": (rng.random((40, 3)), rng.random((30, 3)), KernelSpec(KernelKind.RBF, 3, 0.5)),
    }


def count_lu_factor(monkeypatch) -> list:
    calls = []
    lu_factor = scipy.linalg.lu_factor
    monkeypatch.setattr(scipy.linalg, "lu_factor",
                        lambda *a, **kw: calls.append(1) or lu_factor(*a, **kw))
    return calls


@pytest.mark.parametrize("case", list(product_cases()))
def test_solve_product_ridge_many_matches_lu(case, monkeypatch):
    x_den, x_num, spec = product_cases()[case]
    V, K, b, gammas = product_system(x_den, x_num, spec)
    if case == "1d-rank-deficient-rbf":
        assert np.linalg.matrix_rank(K) < K.shape[0]
    factor = pivoted_cholesky(V)
    if case in ("1d-ties", "1d-point-at-1"):
        assert factor.rank < V.shape[0]
    lu_calls = count_lu_factor(monkeypatch)
    X, errors = solve_product_ridge_many(factor, K, gammas, b, [f"gamma={g}" for g in gammas])
    assert errors == [None] * len(gammas)
    assert lu_calls == []  # every column passed from the eigendecomposition, no LU retry
    M = V @ K
    for j, gamma in enumerate(gammas):
        want = solve_regularized(M, gamma, b).solution
        assert np.linalg.norm(X[:, j] - want) <= 1e-8 * np.linalg.norm(want)
        assert np.linalg.norm(M @ X[:, j] + gamma * X[:, j] - b) <= (
            RESIDUAL_RTOL * (1.0 + np.linalg.norm(b)))


def test_pivoted_cholesky_factors_psd_matrix():
    rng = np.random.default_rng(26)
    x = rng.random((30, 1))
    x[10:15] = x[:5]
    x[25] = 1.0
    V = cross_v(x, x)
    f = pivoted_cholesky(V)
    W = np.empty((30, f.rank))
    W[f.perm] = f.L[:, : f.rank]
    assert f.rank == 30 - 5 - 1  # five ties and one zero row drop out
    assert np.allclose(W @ W.T, V, rtol=0.0, atol=1e-14)


def test_solve_product_ridge_many_failure_matches_solve_regularized(monkeypatch):
    x_den, x_num, spec = product_cases()["3d"]
    V, K, b, gammas = product_system(x_den, x_num, spec)
    gammas = gammas[:3]
    contexts = [f"gamma={g}" for g in gammas]
    factor = pivoted_cholesky(V)
    lu_calls = count_lu_factor(monkeypatch)
    monkeypatch.setattr(solve, "RESIDUAL_RTOL", -1.0)  # no residual can pass
    _, errors = solve_product_ridge_many(factor, K, gammas, b, contexts)
    assert len(lu_calls) == len(gammas)  # each failing column was retried by LU
    for gamma, context, err in zip(gammas, contexts, errors):
        with pytest.raises(SingularSystemError) as exc:
            solve_regularized(V @ K, gamma, b, context=context)
        assert err == str(exc.value)


def test_solve_product_ridge_many_lu_retry_rescues_column(monkeypatch):
    x_den, x_num, spec = product_cases()["3d"]
    V, K, b, gammas = product_system(x_den, x_num, spec)
    factor = pivoted_cholesky(V)
    eigh = scipy.linalg.eigh

    def wrong_eigh(*args, **kwargs):
        s, U = eigh(*args, **kwargs)
        return 2.0 * s, U  # refinement with these factors cannot reach the bound

    monkeypatch.setattr(scipy.linalg, "eigh", wrong_eigh)
    lu_calls = count_lu_factor(monkeypatch)
    X, errors = solve_product_ridge_many(factor, K, gammas, b, [""] * len(gammas))
    assert errors == [None] * len(gammas)
    assert len(lu_calls) == len(gammas)
    for j, gamma in enumerate(gammas):
        assert np.array_equal(X[:, j], solve_regularized(V @ K, gamma, b).solution)


def active_set_oracle(A, b):
    """Exhaustive solution of min 0.5 x'Ax - b'x, x >= 0 over all support sets."""
    n = len(b)
    best = np.inf
    for mask in range(2**n):
        free = [i for i in range(n) if mask >> i & 1]
        x = np.zeros(n)
        if free:
            x[free] = np.linalg.solve(A[np.ix_(free, free)], b[free])
        if np.any(x < -1e-12):
            continue
        if np.any(A @ x - b < -1e-9):
            continue
        best = min(best, 0.5 * x @ A @ x - b @ x)
    return best


def test_solve_nonneg_matches_active_set_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(20):
        A = random_psd(rng, 5)
        b = rng.normal(size=5)
        rep = solve_nonneg(A, b)
        x = rep.solution
        assert np.all(x >= 0.0)
        obj = 0.5 * x @ A @ x - b @ x
        assert obj == pytest.approx(active_set_oracle(A, b), abs=1e-6)


def test_solve_nonneg_unconstrained_interior():
    A = np.diag([2.0, 3.0])
    b = np.array([2.0, 6.0])
    rep = solve_nonneg(A, b)
    assert np.allclose(rep.solution, [1.0, 2.0], atol=1e-8)
    assert rep.method is SolveMethod.PROJECTED_GRADIENT


def test_solve_nonneg_requires_symmetry():
    with pytest.raises(ValueError):
        solve_nonneg(np.array([[1.0, 1.0], [0.0, 1.0]]), np.ones(2))
