import numpy as np
import pytest

from vratio.solve import (
    RESIDUAL_RTOL,
    PsdPencilSolver,
    SingularSystemError,
    SolveMethod,
    solve_nonneg,
    solve_psd_pencil,
    solve_regularized,
    solve_ridge_square_many,
)


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


def test_solve_regularized_custom_ridge_matrix():
    rng = np.random.default_rng(21)
    A = random_psd(rng, 5)
    R = random_psd(rng, 5)
    b = rng.normal(size=5)
    rep = solve_regularized(A, 0.3, b, ridge_matrix=R)
    assert np.allclose((A + 0.3 * R) @ rep.solution, b, atol=1e-8)


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


def test_pencil_solver_singular_consistent_rhs():
    # S has an exactly zero row/column; rhs in the range space still solves
    S = np.diag([1.0, 2.0, 0.0])
    b = np.array([1.0, 4.0, 0.0])
    rep = solve_psd_pencil(S, 0.5, b)
    x = rep.solution
    assert np.allclose(S @ S @ x + 0.5 * S @ x, b, atol=1e-10)
    assert x[2] == 0.0  # minimal-norm solution has no null-space component


def test_pencil_solver_inconsistent_rhs_raises():
    S = np.diag([1.0, 0.0])
    with pytest.raises(SingularSystemError):
        solve_psd_pencil(S, 0.5, np.array([1.0, 1.0]))


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


def test_solve_nonneg_callback_sees_iterates():
    rng = np.random.default_rng(24)
    A = random_psd(rng, 4)
    b = rng.normal(size=4)
    seen = []
    solve_nonneg(A, b, callback=lambda x: seen.append(x.copy()))
    assert len(seen) >= 1
    assert all(np.all(x >= 0.0) for x in seen)


def test_solve_nonneg_requires_symmetry():
    with pytest.raises(ValueError):
        solve_nonneg(np.array([[1.0, 1.0], [0.0, 1.0]]), np.ones(2))
