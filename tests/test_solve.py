import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import LinAlgWarning

from vratio import solve
from vratio.domain import DomainBox, ScaledSamples
from vratio.estimators import fit_dre_v, fit_ulsif_like, ulsif_rhs, v_rhs
from vratio.kernels import KernelKind, KernelSpec, cross_gram
from vratio import bench, domain
from vratio.selection import default_gamma_grid, default_sigma2_grid
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
    solve_regularized,
    solve_ridge_square_low_rank,
    solve_ridge_square_many,
)
from vratio.vmatrix import build_v_matrices, cross_v


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
    # every shift of one batched solve matches its own dense solve
    rng = np.random.default_rng(22)
    cs = np.array([1e-6, 0.1, 10.0])
    for _ in range(10):
        n = int(rng.integers(2, 10))
        S = random_psd(rng, n)
        b = rng.normal(size=n)
        X, errors = PsdPencilSolver(S).solve(cs, b)
        assert errors == [None] * len(cs)
        for j, c in enumerate(cs):
            expected = np.linalg.solve(S @ S + c * S, b)
            assert np.allclose(X[:, j], expected, atol=1e-6)
            residual = np.linalg.norm(S @ S @ X[:, j] + c * S @ X[:, j] - b)
            assert residual <= RESIDUAL_RTOL * (1.0 + np.linalg.norm(b))


def test_pencil_solve_many_matches_solve():
    # one batched call over several shifts matches a call per shift
    rng = np.random.default_rng(23)
    S = random_psd(rng, 7)
    b = rng.normal(size=7)
    cs = np.array([1e-6, 0.1, 10.0])
    solver = PsdPencilSolver(S)
    X, errors = solver.solve(cs, b)
    assert errors == [None, None, None]
    for j, c in enumerate(cs):
        x, (err,) = solver.solve([c], b)
        assert err is None
        assert np.allclose(X[:, j], x[:, 0], rtol=1e-10, atol=1e-12)


def test_pencil_solver_singular_consistent_rhs():
    # S has an exactly zero row/column; rhs in the range space still solves
    S = np.diag([1.0, 2.0, 0.0])
    b = np.array([1.0, 4.0, 0.0])
    X, errors = PsdPencilSolver(S).solve([0.5], b)
    x = X[:, 0]
    assert errors == [None]
    assert np.allclose(S @ S @ x + 0.5 * S @ x, b, atol=1e-10)
    assert x[2] == 0.0  # minimal-norm solution has no null-space component


def test_pencil_solver_inconsistent_rhs_fails_every_column():
    S = np.diag([1.0, 0.0])
    b = np.array([1.0, 1.0])  # not in the range of S
    _, errors = PsdPencilSolver(S).solve(np.array([0.5, 2.0]), b)
    for err in errors:
        assert err.startswith("pencil system inconsistent: residual ")


def test_pencil_solver_rejects_negative_and_nan_shifts():
    solver = PsdPencilSolver(np.eye(2))
    for c in (-1.0, np.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            solver.solve([0.5, c], np.ones(2))


def test_pencil_solver_requires_symmetry():
    with pytest.raises(ValueError):
        PsdPencilSolver(np.array([[1.0, 2.0], [0.0, 1.0]]))


def eigh_pencil_reference(S, cs, b):
    """Minimal-norm solutions of (S S + c S) x = b for every c in `cs` from the
    eigendecomposition of S, with no component in its numerical null space."""
    w, Q = scipy.linalg.eigh(S)
    w = np.clip(w, 0.0, None)[:, None]
    null = w <= np.finfo(float).eps * max(float(w.max(initial=0.0)), 1.0) * len(w)
    coef = (Q.T @ b)[:, None]
    return Q @ np.where(null, 0.0, coef / np.where(null, 1.0, w * (w + cs)))


def dre_v_system(x_den, x_num):
    """V'' and the DRE-V right-hand side (n/ell) V' 1 of scaled points."""
    return cross_v(x_den, x_den), len(x_den) / len(x_num) * cross_v(x_den, x_num).sum(axis=1)


def pencil_cases():
    """Denominator points, V'', the DRE-V right-hand side and whether V'' has full rank."""
    rng = np.random.default_rng(27)
    ties = rng.random((40, 1))
    ties[20:30] = ties[:10]
    ties[7] = 1.0  # a zero row of V''
    cases = {"1d-ties-point-at-1": (ties, rng.random((30, 1)), False),
             "3d": (rng.random((40, 3)), rng.random((30, 3)), True),
             "all-zero": (np.ones((5, 2)), rng.random((4, 2)), False),
             "1d-all-at-1": (np.ones((5, 1)), rng.random((4, 1)), False),
             "1d-n-1": (np.array([[0.3]]), rng.random((4, 1)), True)}
    return {name: (x_den, *dre_v_system(x_den, x_num), full)
            for name, (x_den, x_num, full) in cases.items()}


def assert_pencil_matches_eigh_reference(S, b, X, cs, full_rank):
    want = eigh_pencil_reference(S, cs, b)
    # S x are the DRE-V values at the denominator points
    assert np.all(np.linalg.norm(S @ (X - want), axis=0)
                  <= 1e-8 * np.linalg.norm(S @ want, axis=0))
    if full_rank:
        assert np.all(np.linalg.norm(X - want, axis=0) <= 1e-8 * np.linalg.norm(want, axis=0))


@pytest.mark.parametrize("case", ["1d-ties-point-at-1", "3d", "all-zero"])
def test_pencil_solve_many_matches_eigh_reference(case):
    _, S, b, full_rank = pencil_cases()[case]
    assert (np.linalg.matrix_rank(S) == len(b)) == full_rank
    cs = np.logspace(-6.0, 1.0, 8)
    X, errors = PsdPencilSolver(S).solve(cs, b)
    assert errors == [None] * len(cs)
    assert_pencil_matches_eigh_reference(S, b, X, cs, full_rank)


@pytest.mark.parametrize("case", list(pencil_cases()))
def test_pencil_solve_many_of_points_matches_eigh_reference(case, monkeypatch):
    # given the points, 1-D systems are solved from the closed-form factor
    # with no dpstrf or dsytrd; the others as without them
    x_den, S, b, full_rank = pencil_cases()[case]
    cs = np.logspace(-6.0, 1.0, 8)
    calls = count_calls(monkeypatch, scipy.linalg.lapack, "dpstrf", "dsytrd")
    X, errors = PsdPencilSolver(S, x_den).solve(cs, b)
    assert errors == [None] * len(cs)
    assert (calls == []) == (x_den.shape[1] == 1)
    assert_pencil_matches_eigh_reference(S, b, X, cs, full_rank)


def brownian_cases():
    """1-D points: ties with points at 0 and 1, all points at 1 (rank 0), n = 1 and n = 2."""
    rng = np.random.default_rng(29)
    ties = rng.random(40)
    ties[20:30] = ties[:10]
    ties[[7, 33]] = 1.0  # zero rows of V''
    ties[12] = 0.0
    return {"ties-faces": ties, "all-at-1": np.ones(4), "n-1": np.array([0.3]),
            "n-2": np.array([0.8, 0.3]), "n-2-tie": np.array([0.3, 0.3])}


@pytest.mark.parametrize("case", list(brownian_cases()))
def test_brownian_factor_reproduces_v_with_the_rank_of_pivoted_cholesky(case):
    x = brownian_cases()[case][:, None]
    V = cross_v(x, x)
    f = factor_v_matrix(V, x)
    assert isinstance(f, BrownianFactor)
    assert f.rank == pivoted_cholesky(V).rank == len(np.unique(x[x < 1.0]))
    W = f.expand(np.eye(f.rank))
    assert W.shape == (len(x), f.rank)
    assert np.allclose(W @ W.T, V, rtol=0.0, atol=1e-15)
    C = np.random.default_rng(30).normal(size=(f.rank, 3))
    assert np.allclose(f.range_coords(W @ C), C, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("case", list(brownian_cases()))
def test_brownian_congruence_equals_the_dtrmm_form(case):
    x = brownian_cases()[case][:, None]
    V = cross_v(x, x)
    K = cross_gram(KernelSpec(KernelKind.INK_SPLINE_LINEAR, 1), x, x)
    f = factor_v_matrix(V, x)
    S = f.congruence(K)
    assert S.flags.f_contiguous and S.shape == (f.rank, f.rank)
    W = f.expand(np.eye(f.rank))
    dense = W.T @ K @ W
    assert np.linalg.norm(S - dense) <= 1e-12 * np.linalg.norm(dense)
    # the dtrmm form is W'KW in another basis of the same range: the same spectrum
    other = pivoted_cholesky(V).congruence(K)
    assert np.allclose(np.linalg.eigvalsh(S), np.linalg.eigvalsh(other),
                       rtol=0.0, atol=1e-12 * np.linalg.norm(dense))


def test_factor_v_matrix_chooses_by_dimension_and_gap():
    rng = np.random.default_rng(31)
    x = rng.random((30, 1))
    V = cross_v(x, x)
    assert isinstance(factor_v_matrix(V, x), BrownianFactor)
    assert isinstance(factor_v_matrix(V, x, pencil=True), BrownianFactor)
    x2 = rng.random((30, 2))
    assert isinstance(factor_v_matrix(cross_v(x2, x2), x2), PivotedCholesky)
    # a near-tie below NEAR_TIE_GAP sends only the DRE-V pencil to pivoted_cholesky
    near = x.copy()
    near[1] = near[0] + NEAR_TIE_GAP / 4
    V = cross_v(near, near)
    assert isinstance(factor_v_matrix(V, near), BrownianFactor)
    assert isinstance(factor_v_matrix(V, near, pencil=True), PivotedCholesky)
    near[:, 0] = [1.0 - NEAR_TIE_GAP / 4] + [0.5] * 29  # t = 1 - x close to 0
    assert isinstance(factor_v_matrix(cross_v(near, near), near, pencil=True), PivotedCholesky)


def extended_reference_values(S, c, b):
    """The DRE-V values r = S x, which solve (S + cI) r = b, by LU with
    residuals in extended precision."""
    A = S + c * np.eye(len(b))
    lu = scipy.linalg.lu_factor(A)
    A_ext = S.astype(np.longdouble) + np.longdouble(c) * np.eye(len(b), dtype=np.longdouble)
    r = scipy.linalg.lu_solve(lu, b).astype(np.longdouble)
    for _ in range(6):
        res = b.astype(np.longdouble) - A_ext @ r
        r += scipy.linalg.lu_solve(lu, res.astype(float))
    return r


def test_closed_form_pencil_values_as_accurate_as_pivoted_path():
    # model-2 draws over the default gamma grid; both paths meet the residual
    # bound, and at small c both sit at the floor eps * cond(S + cI). Without
    # the mandatory refinement step the closed form misses the reference by
    # about 1e-10 at large c, where the pivoted path reaches 1e-14.
    model = bench.make_model(2)
    errors = {True: [], False: []}
    for seed in range(4):
        num, den = bench.sample_model(model, 100, seed)
        s = domain.scale(num, den, domain.fit_domain_box(num, den))
        S, b = dre_v_system(s.x_prime, s.x)
        cs = default_gamma_grid() * np.trace(S) / s.n
        want = [extended_reference_values(S, c, b) for c in cs]
        for closed_form in errors:
            solver = PsdPencilSolver(S, s.x_prime if closed_form else None)
            X, errs = solver.solve(cs, b)
            assert errs == [None] * len(cs)
            errors[closed_form] += [float(np.linalg.norm(S @ X[:, j] - w) / np.linalg.norm(w))
                                    for j, w in enumerate(want)]
    new, old = np.array(errors[True]), np.array(errors[False])
    assert np.exp(np.mean(np.log(new))) <= np.exp(np.mean(np.log(old)))
    assert np.all(new <= 4.0 * old + 1e-12)


@pytest.mark.parametrize("n", [160, 800])
def test_closed_form_pencil_fails_no_more_near_tie_columns(n):
    # pairs of points `gap` apart; below NEAR_TIE_GAP the pencil takes the
    # pivoted path, above it the closed form must do as well
    samples = 4 if n == 160 else 1
    for gap in (1e-6, 1e-8, 1e-10, 1e-12):
        failed = {True: 0, False: 0}
        for k in range(samples):
            rng = np.random.default_rng([n, k])
            x = rng.random(n)
            x[1::7] = np.minimum(x[:-1:7] + gap, 1.0)
            S, b = dre_v_system(x[:, None], rng.random((n, 1)))
            cs = default_gamma_grid() * np.trace(S) / n
            for closed_form in failed:
                solver = PsdPencilSolver(S, x[:, None] if closed_form else None)
                _, errs = solver.solve(cs, b)
                failed[closed_form] += sum(err is not None for err in errs)
        assert failed[True] <= failed[False], gap


def test_dre_v_and_ulsif_fits_use_neither_eigh_nor_lu(monkeypatch):
    rng = np.random.default_rng(28)
    x_den, x_num = rng.random((30, 2)), rng.random((20, 2))
    s = ScaledSamples(x_den, x_num, DomainBox(np.zeros(2), np.ones(2)))
    spec = KernelSpec(KernelKind.RBF, 2, 0.5)
    gamma = 0.05
    K = cross_gram(spec, x_den, x_den)
    vm = build_v_matrices(s)
    want_ulsif = np.linalg.solve(K @ K + gamma * np.eye(30), ulsif_rhs(s, K))
    want_dre_v = eigh_pencil_reference(vm.v_dd, np.array([gamma / 30]), v_rhs(vm, s))[:, 0]
    calls = count_calls(monkeypatch, scipy.linalg, "eigh", "lu_factor")
    got_ulsif = fit_ulsif_like(s, spec, gamma).coef
    got_dre_v = fit_dre_v(s, gamma).coef
    assert calls == []
    assert np.linalg.norm(got_ulsif - want_ulsif) <= 1e-8 * np.linalg.norm(want_ulsif)
    assert np.linalg.norm(got_dre_v - want_dre_v) <= 1e-8 * np.linalg.norm(want_dre_v)


def test_solve_ridge_square_many_matches_lu(monkeypatch):
    rng = np.random.default_rng(24)
    refinements = count_refinement_solves(monkeypatch)
    for rank in (6, 3):  # full rank and rank-deficient K
        G = rng.normal(size=(6, rank))
        K = G @ G.T
        b = rng.normal(size=6)
        gammas = np.array([1e-4, 1e-2, 1.0])
        X, errors = solve_ridge_square_many(K, gammas, b)
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
        _, errors = solve_ridge_square_many(K, np.array([0.0, 1.0]), b)
    assert errors[1] is None
    assert errors[0].startswith("system singular to working precision: residual ")


def test_solve_ridge_square_many_singular_shift_fails_only_its_column():
    K = np.diag([1.0, 0.0])
    b = np.array([1.0, 1.0])
    X, errors = solve_ridge_square_many(K, np.array([1.0, 0.0, 3.0]), b)
    assert errors[1].startswith("system singular to working precision: residual ")
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
    X, errors = solve_product_ridge_many(factor, K, gammas, b)
    assert errors == [None] * len(gammas)
    assert lu_calls == [] and refinements.count("dpttrs") in (1, 2)
    Y, errors = solve_ridge_square_many(K, gammas, b)
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
    X, errors = solve_product_ridge_many(factor, K, gammas, b)
    assert errors == [None] * len(gammas)
    # every column passed from the first tridiagonal solve: no refinement, no LU
    assert refinements == [] and lu_calls == []
    M = V @ K
    for j, gamma in enumerate(gammas):
        want = solve_regularized(M, gamma, b).solution
        assert np.linalg.norm(X[:, j] - want) <= 1e-8 * np.linalg.norm(want)
        assert np.linalg.norm(M @ X[:, j] + gamma * X[:, j] - b) <= (
            RESIDUAL_RTOL * (1.0 + np.linalg.norm(b)))


@pytest.mark.parametrize("gap", [0.0, 1e-9, 1e-14])
def test_solve_product_ridge_many_closed_form_at_near_ties(gap, monkeypatch):
    # unlike the DRE-V pencil, DRE-VK keeps the closed-form factor at any gap
    rng = np.random.default_rng(32)
    x = rng.random((160, 1))
    x[1::7] = np.minimum(x[:-1:7] + gap, 1.0)
    V, K, b, gammas = product_system(x, rng.random((120, 1)),
                                     KernelSpec(KernelKind.INK_SPLINE_LINEAR, 1))
    factor = factor_v_matrix(V, x)
    assert isinstance(factor, BrownianFactor)
    lu_calls = count_lu_factor(monkeypatch)
    X, errors = solve_product_ridge_many(factor, K, gammas, b)
    assert errors == [None] * len(gammas) and lu_calls == []
    for j, gamma in enumerate(gammas):
        want = solve_regularized(V @ K, gamma, b).solution
        assert np.linalg.norm(X[:, j] - want) <= 1e-8 * np.linalg.norm(want)


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


@pytest.mark.parametrize("n", [6, 40, 400])
def test_pivoted_cholesky_zeroes_what_dpstrf_leaves(n):
    """L is dpstrf's output with the strict upper triangle and the columns
    from the rank on set to zero, bit for bit."""
    rng = np.random.default_rng(33)
    for rank in (n, n // 3):
        G = rng.normal(size=(n, rank))
        A = G @ G.T
        L, piv, r, _ = scipy.linalg.lapack.dpstrf(A, lower=1)
        L[~np.tri(n, dtype=bool)] = 0.0
        L[r:, r:] = 0.0
        f = pivoted_cholesky(A)
        assert f.rank == r and np.array_equal(f.perm, piv - 1)
        assert np.array_equal(f.L, L) and f.L.flags.f_contiguous


def test_solve_product_ridge_many_flags_singular_columns(monkeypatch):
    # K vanishes on the last ten points, so at gamma = 0 the stacked tridiagonal
    # solve breaks down for that column alone, and no other solver tries it
    x_den, x_num, spec = product_cases()["3d"]
    V, K, b, gammas = product_system(x_den, x_num, spec)
    K[30:, :] = 0.0
    K[:, 30:] = 0.0
    gammas = np.concatenate([gammas[:3], [0.0], gammas[3:6]])
    lu_calls = count_lu_factor(monkeypatch)
    with np.errstate(divide="ignore", invalid="ignore"):
        X, errors = solve_product_ridge_many(pivoted_cholesky(V), K, gammas, b)
    assert lu_calls == []
    assert errors[3].startswith("system singular to working precision: residual ")
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
    X, errors = solve_product_ridge_many(pivoted_cholesky(V), K, gammas, b)
    assert errors == [None] * len(gammas)
    for j, gamma in enumerate(gammas):
        want = solve_regularized(V @ K, gamma, b).solution
        assert np.allclose(X[:, j], want, rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("closed_form", [False, True])
def test_banded_solves_of_order_one(closed_form):
    # one gamma at rank 1 stacks a 1 x 1 tridiagonal system
    x = np.array([[0.2]])
    V, K, b, _ = product_system(x, np.array([[0.5], [0.7]]),
                                KernelSpec(KernelKind.INK_SPLINE_LINEAR, 1))
    factor = factor_v_matrix(V, x) if closed_form else pivoted_cholesky(V)
    X, errors = solve_product_ridge_many(factor, K, [0.1], b)
    assert errors == [None]
    assert np.allclose(X[:, 0], b / (V[0, 0] * K[0, 0] + 0.1))
    got, errors = PsdPencilSolver(V, x if closed_form else None).solve([0.1], b)
    assert errors == [None]
    assert np.allclose(got[:, 0], b / (V[0, 0] ** 2 + 0.1 * V[0, 0]))


@pytest.mark.parametrize("n", [1, 2])
def test_solve_ridge_square_many_degenerate_sizes(n):
    x = np.array([[0.2], [0.6]])[:n]
    K = cross_gram(KernelSpec(KernelKind.RBF, 1, 0.5), x, x)
    b = np.array([0.8, 1.3])[:n]
    gammas = np.logspace(-5.0, 1.0, 15)
    X, errors = solve_ridge_square_many(K, gammas, b)
    assert errors == [None] * len(gammas)
    for j, gamma in enumerate(gammas):
        assert np.allclose(X[:, j], solve_regularized(K @ K, gamma, b).solution,
                           rtol=1e-8, atol=1e-12)


def low_rank_cases():
    """1-D denominator points at n = 40 and 160 with ties and a point at 1,
    each with its numerator points."""
    out = {}
    for n in (40, 160):
        rng = np.random.default_rng(34 + n)
        x = rng.random((n, 1))
        x[n // 2:n // 2 + 5] = x[:5]
        x[7] = 1.0
        out[n] = ScaledSamples(x, rng.random((n, 1)), DomainBox(np.zeros(1), np.ones(1)))
    return out


def low_rank_systems(s, sigma2):
    """K, the uLSIF right-hand side and gammas; the factor of V'', the DRE-VK
    right-hand side and gammas, scaled as cross-validation scales them."""
    K = cross_gram(KernelSpec(KernelKind.RBF, 1, sigma2), s.x_prime, s.x_prime)
    vm = build_v_matrices(s)
    grid = default_gamma_grid()
    return (K, ulsif_rhs(s, K), grid * np.sum(K * K) / s.n,
            factor_v_matrix(vm.v_dd, s.x_prime), v_rhs(vm, s), grid * np.sum(vm.v_dd * K) / s.n)


@pytest.mark.parametrize("n", [40, 160])
def test_low_rank_solves_match_dense_on_1d_rbf_grams(n, monkeypatch):
    """At every default sigma2, every column passes the residual check against
    the full K and agrees with the dense solver to 1e-7 relative; no
    tridiagonal reduction runs unless the rank is above the cut-off."""
    s = low_rank_cases()[n]
    low_rank = 0
    for sigma2 in default_sigma2_grid(s.pooled()):
        K, b, gammas, factor, bv, gammas_v = low_rank_systems(s, sigma2)
        assert isinstance(factor, BrownianFactor)
        dense = pivoted_cholesky(K).rank > solve.LOW_RANK_MAX_FRAC * n
        low_rank += not dense
        with monkeypatch.context() as m:
            calls = count_calls(m, scipy.linalg.lapack, "dsytrd")
            X, errors = solve_ridge_square_low_rank(K, gammas, b)
            Y, errors_v = solve_product_ridge_low_rank(factor, K, gammas_v, bv)
        assert errors == errors_v == [None] * len(gammas)
        assert len(calls) == (2 if dense else 0), sigma2
        want, _ = solve_ridge_square_many(K, gammas, b)
        want_v, _ = solve_product_ridge_many(factor, K, gammas_v, bv)
        V = factor.matrix
        for j in range(len(gammas)):
            for got, ref, M, g, rhs in ((X, want, K @ K, gammas[j], b),
                                        (Y, want_v, V @ K, gammas_v[j], bv)):
                assert np.linalg.norm(M @ got[:, j] + g * got[:, j] - rhs) <= (
                    RESIDUAL_RTOL * (1.0 + np.linalg.norm(rhs)))
                assert np.linalg.norm(got[:, j] - ref[:, j]) <= 1e-7 * np.linalg.norm(ref[:, j])
    assert low_rank >= 3  # at least half of the grid takes the low-rank path


def test_low_rank_rank_above_cut_off_takes_dense_path(monkeypatch):
    s = low_rank_cases()[40]
    K, b, gammas, factor, bv, gammas_v = low_rank_systems(s, 1e-3)  # K is near I
    assert pivoted_cholesky(K).rank > solve.LOW_RANK_MAX_FRAC * 40
    calls = count_calls(monkeypatch, scipy.linalg.lapack, "dsytrd", "dgesdd")
    X, errors = solve_ridge_square_low_rank(K, gammas, b)
    Y, errors_v = solve_product_ridge_low_rank(factor, K, gammas_v, bv)
    assert calls == ["dsytrd", "dsytrd"]  # one per solver, no SVD
    for got, (want, want_errors) in ((X, solve_ridge_square_many(K, gammas, b)),
                                     (Y, solve_product_ridge_many(factor, K, gammas_v, bv))):
        assert np.array_equal(got, want) and want_errors == [None] * len(gammas)
    assert errors == errors_v == [None] * len(gammas)


def test_low_rank_gamma_0_takes_dense_path(monkeypatch):
    # the low-rank inverse divides by gamma on the complement of K's range
    s = low_rank_cases()[40]
    K, b, gammas, *_ = low_rank_systems(s, 0.5)
    assert pivoted_cholesky(K).rank <= solve.LOW_RANK_MAX_FRAC * 40
    gammas[0] = 0.0
    calls = count_calls(monkeypatch, scipy.linalg.lapack, "dsytrd", "dgesdd")
    X, errors = solve_ridge_square_low_rank(K, gammas, b)
    assert calls == ["dsytrd"]
    want, want_errors = solve_ridge_square_many(K, gammas, b)
    assert np.array_equal(X, want, equal_nan=True) and errors == want_errors


def spoil_low_rank_basis(monkeypatch, below: float):
    """Make dgesdd return the singular values under `below` times the largest
    twice too large: a column whose gamma is small next to the spoiled
    eigenvalues misses by more than two refinement steps can mend."""
    dgesdd = scipy.linalg.lapack.dgesdd

    def spoiled(*args, **kwargs):
        u, s, vt, info = dgesdd(*args, **kwargs)
        s[s < below * s[0]] *= 2.0
        return u, s, vt, info

    monkeypatch.setattr(scipy.linalg.lapack, "dgesdd", spoiled)


def test_low_rank_failed_columns_stay_failed(monkeypatch):
    # the spoiled columns fail with their residual; no dense solver runs for them
    s = low_rank_cases()[160]
    K, b, gammas, factor, bv, gammas_v = low_rank_systems(s, default_sigma2_grid(s.pooled())[3])
    for low, args, below in ((solve_ridge_square_low_rank, (K, gammas, b), 0.1),
                             (solve_product_ridge_low_rank, (factor, K, gammas_v, bv), 1e-3)):
        with monkeypatch.context() as m:
            spoil_low_rank_basis(m, below)
            calls = count_calls(m, scipy.linalg.lapack, "dsytrd")
            _, errors = low(*args)
        failed = [err for err in errors if err is not None]
        assert 0 < len(failed) < len(gammas) and calls == []
        assert all(err.startswith("system singular to working precision: residual ")
                   for err in failed)


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


def test_solve_nonneg_requires_symmetry():
    with pytest.raises(ValueError):
        solve_nonneg(np.array([[1.0, 1.0], [0.0, 1.0]]), np.ones(2))
