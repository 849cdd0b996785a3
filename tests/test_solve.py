import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import LinAlgWarning

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
    with pytest.raises(SingularSystemError), pytest.warns(LinAlgWarning):
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


def test_solve_ridge_square_many_matches_lu(monkeypatch):
    rng = np.random.default_rng(24)
    refinements = count_refinement_solves(monkeypatch)
    for rank in (6, 3):  # full rank and rank-deficient K
        G = rng.normal(size=(6, rank))
        K = G @ G.T
        b = rng.normal(size=6)
        gammas = np.array([1e-4, 1e-2, 1.0])
        X, errors = solve_ridge_square_many(K, gammas, b, ["a", "b", "c"])
        assert errors == [None, None, None]
        assert refinements == []  # the first pentadiagonal solve passed
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


def test_solve_ridge_square_many_singular_shift_fails_only_its_column():
    K = np.diag([1.0, 0.0])
    b = np.array([1.0, 1.0])
    X, errors = solve_ridge_square_many(K, np.array([1.0, 0.0, 3.0]), b, ["", "gamma=0", ""])
    assert errors[1].startswith("system singular to working precision (gamma=0)")
    assert errors[0] is None and errors[2] is None
    assert np.allclose(X[:, 0], [0.5, 1.0]) and np.allclose(X[:, 2], [0.25, 1.0 / 3.0])


def perturb_tridiagonal(monkeypatch, rel: float):
    """Make dsytrd return T with its diagonal scaled by 1 + rel."""
    dsytrd = scipy.linalg.lapack.dsytrd

    def perturbed(*args, **kwargs):
        c, d, e, tau, info = dsytrd(*args, **kwargs)
        return c, (1.0 + rel) * d, e, tau, info

    monkeypatch.setattr(scipy.linalg.lapack, "dsytrd", perturbed)


def test_refinement_recovers_from_slightly_wrong_factors(monkeypatch):
    # factors off by 1e-7 miss the residual bound on the first solve; two
    # refinement steps with the same factors reach it without an LU
    x_den, x_num, spec = product_cases()["3d"]
    V, K, b, gammas = product_system(x_den, x_num, spec)
    factor = pivoted_cholesky(V)
    perturb_tridiagonal(monkeypatch, 1e-7)
    lu_calls = count_lu_factor(monkeypatch)
    refinements = count_refinement_solves(monkeypatch)
    X, errors = solve_product_ridge_many(factor, K, gammas, b, [""] * len(gammas))
    assert errors == [None] * len(gammas)
    assert lu_calls == [] and refinements.count("dpttrs") in (1, 2)
    Y, errors = solve_ridge_square_many(K, gammas, b, [""] * len(gammas))
    assert errors == [None] * len(gammas)
    assert refinements.count("dpbtrs") in (1, 2)
    # both sides only meet the residual bound, so they agree to within it
    # times the condition number, which is near 1e9 for K K at the smallest gamma
    for j, gamma in enumerate(gammas):
        for got, M in ((X[:, j], V @ K), (Y[:, j], K @ K)):
            want = solve_regularized(M, gamma, b).solution
            assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)


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


def count_calls(monkeypatch, module, *names) -> list:
    """Patch module.<name> for each name to record its name per call."""
    calls = []
    for name in names:
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, fn=fn, name=name, **kw: calls.append(name) or fn(*a, **kw))
    return calls


def count_lu_factor(monkeypatch) -> list:
    return count_calls(monkeypatch, scipy.linalg, "lu_factor")


def count_refinement_solves(monkeypatch) -> list:
    """Calls of the banded solves that reuse factors, which only refinement makes."""
    return count_calls(monkeypatch, scipy.linalg.lapack, "dpbtrs", "dpttrs")


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
    refinements = count_refinement_solves(monkeypatch)
    X, errors = solve_product_ridge_many(factor, K, gammas, b, [f"gamma={g}" for g in gammas])
    assert errors == [None] * len(gammas)
    # every column passed from the first tridiagonal solve: no refinement, no LU retry
    assert refinements == [] and lu_calls == []
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
    perturb_tridiagonal(monkeypatch, 1.0)  # refinement with these factors cannot reach the bound
    lu_calls = count_lu_factor(monkeypatch)
    X, errors = solve_product_ridge_many(factor, K, gammas, b, [""] * len(gammas))
    assert errors == [None] * len(gammas)
    assert len(lu_calls) == len(gammas)
    for j, gamma in enumerate(gammas):
        assert np.array_equal(X[:, j], solve_regularized(V @ K, gamma, b).solution)


def test_solve_product_ridge_many_flags_singular_columns(monkeypatch):
    # K vanishes on the last ten points, so at gamma = 0 the stacked tridiagonal
    # solve breaks down and the LU retry of the exactly singular V''K fails too
    x_den, x_num, spec = product_cases()["3d"]
    V, K, b, gammas = product_system(x_den, x_num, spec)
    K[30:, :] = 0.0
    K[:, 30:] = 0.0
    gammas = np.concatenate([gammas[:3], [0.0], gammas[3:6]])
    contexts = [f"gamma={g}" for g in gammas]
    lu_calls = count_lu_factor(monkeypatch)
    with np.errstate(divide="ignore", invalid="ignore"), pytest.warns(LinAlgWarning):
        X, errors = solve_product_ridge_many(pivoted_cholesky(V), K, gammas, b, contexts)
    assert len(lu_calls) == 1  # only the singular column was retried
    assert errors[3].startswith("system singular to working precision (gamma=0.0)")
    M = V @ K
    for j, gamma in enumerate(gammas):
        if j != 3:
            assert errors[j] is None
            want = solve_regularized(M, gamma, b).solution
            assert np.linalg.norm(X[:, j] - want) <= 1e-8 * np.linalg.norm(want)


def degenerate_product_systems():
    """V'', K, b and gammas of the sizes a CV fold can degenerate to."""
    spec = KernelSpec(KernelKind.INK_SPLINE_LINEAR, 1)
    x_num = np.array([[0.5], [0.7]])
    cases = {
        "rank-0": np.array([[1.0]]),  # V'' = 0 and b = 0
        "rank-0-n-2": np.array([[1.0], [1.0]]),
        "n-1": np.array([[0.2]]),
        "n-2": np.array([[0.2], [0.6]]),
        "n-2-tie": np.array([[0.2], [0.2]]),
    }
    out = {}
    for name, x_den in cases.items():
        V, K, b, _ = product_system(x_den, x_num, spec)
        out[name] = V, K, b, np.logspace(-5.0, 1.0, 15)  # the unscaled grid: tr(V''K) may be 0
    return out


@pytest.mark.parametrize("case", list(degenerate_product_systems()))
def test_solve_product_ridge_many_degenerate_sizes(case):
    V, K, b, gammas = degenerate_product_systems()[case]
    X, errors = solve_product_ridge_many(pivoted_cholesky(V), K, gammas, b, [""] * len(gammas))
    assert errors == [None] * len(gammas)
    for j, gamma in enumerate(gammas):
        want = solve_regularized(V @ K, gamma, b).solution
        assert np.allclose(X[:, j], want, rtol=1e-8, atol=1e-12)


def test_solve_product_ridge_many_rank_0_rhs_outside_range_goes_to_lu(monkeypatch):
    # A = 0 has an empty W, so refinement cannot help and the LU retry solves gamma x = b
    factor = pivoted_cholesky(np.zeros((2, 2)))
    lu_calls = count_lu_factor(monkeypatch)
    X, errors = solve_product_ridge_many(factor, np.eye(2), np.array([0.5, 2.0]),
                                         np.array([1.0, -1.0]), ["", ""])
    assert errors == [None, None] and len(lu_calls) == 2
    assert np.allclose(X, [[2.0, 0.5], [-2.0, -0.5]])


@pytest.mark.parametrize("n", [1, 2])
def test_solve_ridge_square_many_degenerate_sizes(n):
    x = np.array([[0.2], [0.6]])[:n]
    K = cross_gram(KernelSpec(KernelKind.RBF, 1, 0.5), x, x)
    b = np.array([0.8, 1.3])[:n]
    gammas = np.logspace(-5.0, 1.0, 15)
    X, errors = solve_ridge_square_many(K, gammas, b, [""] * len(gammas))
    assert errors == [None] * len(gammas)
    for j, gamma in enumerate(gammas):
        assert np.allclose(X[:, j], solve_regularized(K @ K, gamma, b).solution,
                           rtol=1e-8, atol=1e-12)


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
