import tracemalloc

import numpy as np
import pytest

from vratio import solve
from vratio.domain import DomainBox, OutOfBoxError, ScaledSamples
from vratio.estimators import (
    SYSTEMS,
    Method,
    RatioEstimate,
    dre_v_nonneg_values,
    fit_dre_v,
    fit_dre_vk,
    fit_system,
    fit_ulsif_like,
    kernel_spec_for,
    rect_identity_ones,
    solve_system,
    v_rhs,
)
from vratio.kernels import InkKernel, KernelKind, KernelSpec, cross_gram, gram_matrix
from vratio.solve import SingularSystemError
from vratio.vmatrix import VMatrices, build_v_matrices, cross_v, trace_product


def unit_samples(rng, n, ell, d):
    box = DomainBox(np.zeros(d), np.ones(d))
    return ScaledSamples(rng.random((n, d)), rng.random((ell, d)), box)


def dense_v_matrices(s):
    """V'' and V' of s as arrays, also for 1-D points."""
    return VMatrices(cross_v(s.x_prime, s.x_prime), cross_v(s.x_prime, s.x))


def test_dre_v_solves_regularized_system():
    rng = np.random.default_rng(30)
    s = unit_samples(rng, 12, 9, 2)
    gamma = 0.05
    est = fit_dre_v(s, gamma)
    vm = build_v_matrices(s)
    lhs = (vm.v_dd + gamma / s.n * np.eye(s.n)) @ est.predict_scaled(s.x_prime)
    rhs = (s.n / s.ell) * vm.v_dn @ np.ones(s.ell)
    assert np.allclose(lhs, rhs, atol=1e-8)
    assert est.kernel is None


def test_dre_v_matching_measures_predicts_one():
    # identical samples: the weighted denominator measure already matches the
    # numerator measure at weight one
    rng = np.random.default_rng(31)
    for d in (1, 2):
        pts = rng.random((15, d))
        box = DomainBox(np.zeros(d), np.ones(d))
        s = ScaledSamples(pts, pts, box)
        est = fit_dre_v(s, 1e-6)
        assert np.all(np.abs(est.predict_scaled(pts) - 1.0) <= 0.1)


def test_dre_vk_ink_matching_measures_predicts_one():
    rng = np.random.default_rng(32)
    pts = rng.random((15, 2))
    box = DomainBox(np.zeros(2), np.ones(2))
    s = ScaledSamples(pts, pts, box)
    spec = KernelSpec(KernelKind.INK_SPLINE_LINEAR, d=2)
    est = fit_dre_vk(s, spec, 1e-6)
    assert np.all(np.abs(est.predict_scaled(pts) - 1.0) <= 0.1)


def test_dre_v_direct_and_expansion_forms_agree():
    # the expansion coefficients alpha solve the normal-equation form of the
    # problem; V'' alpha reproduces the point values of the direct solve
    rng = np.random.default_rng(33)
    gammas = np.logspace(-4, 1, 6)
    for _ in range(20):
        n = int(rng.integers(5, 31))
        ell = int(rng.integers(5, 31))
        d = int(rng.integers(1, 3))
        s = unit_samples(rng, n, ell, d)
        vm = dense_v_matrices(s)
        b = (n / ell) * vm.v_dn.sum(axis=1)
        for gamma in gammas:
            direct = np.linalg.solve(vm.v_dd + gamma / n * np.eye(n), b)
            via_expansion = fit_dre_v(s, gamma).predict_scaled(s.x_prime)
            rel = np.linalg.norm(via_expansion - direct) / np.linalg.norm(direct)
            assert rel <= 1e-8


def test_dre_v_norm_shrinks_with_gamma():
    rng = np.random.default_rng(34)
    for _ in range(10):
        s = unit_samples(rng, 15, 15, 1)
        norms = [np.linalg.norm(fit_dre_v(s, g).predict_scaled(s.x_prime))
                 for g in [1e-3, 1e-1, 10.0, 1e3]]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_dre_v_objective_local_optimality():
    # the returned solution should beat a large cloud of random perturbations
    rng = np.random.default_rng(35)
    s = unit_samples(rng, 10, 8, 1)
    gamma = 0.1
    vm = dense_v_matrices(s)
    M = vm.v_dd + gamma / s.n * np.eye(s.n)
    b = (s.n / s.ell) * vm.v_dn @ np.ones(s.ell)

    def objective(X):
        return np.einsum("ij,jk,ik->i", X, M, X) - 2.0 * X @ b

    r = fit_dre_v(s, gamma).predict_scaled(s.x_prime)
    base = objective(r[None, :])[0]
    for _ in range(10):
        P = rng.normal(size=(100_000, s.n)) * rng.choice([1e-4, 1e-2, 1.0])
        assert np.all(objective(r[None, :] + P) >= base - 1e-10 * abs(base))


def test_dre_v_nonneg_weights():
    rng = np.random.default_rng(36)
    s = unit_samples(rng, 20, 20, 1)
    r = dre_v_nonneg_values(s, 0.01)
    assert r.shape == (20,)
    assert np.all(r >= 0.0)


def test_dre_vk_solves_its_system():
    rng = np.random.default_rng(37)
    s = unit_samples(rng, 10, 7, 2)
    spec = KernelSpec(KernelKind.RBF, d=2, sigma2=0.4)
    gamma = 0.2
    est = fit_dre_vk(s, spec, gamma)
    vm = build_v_matrices(s)
    K = cross_gram(spec, s.x_prime, s.x_prime)
    lhs = (vm.v_dd @ K + gamma * np.eye(s.n)) @ est.coef
    rhs = (s.n / s.ell) * vm.v_dn @ np.ones(s.ell)
    assert np.allclose(lhs, rhs, atol=1e-8)


def test_dre_vk_prediction_is_kernel_expansion():
    rng = np.random.default_rng(38)
    s = unit_samples(rng, 8, 6, 1)
    spec = KernelSpec(KernelKind.INK_SPLINE_LINEAR, d=1)
    est = fit_dre_vk(s, spec, 0.1)
    q = rng.random((4, 1))
    expected = cross_gram(spec, q, s.x_prime) @ est.coef
    assert np.allclose(est.predict_scaled(q), expected)


def test_dre_v_prediction_is_overlap_volume_expansion():
    rng = np.random.default_rng(40)
    s = unit_samples(rng, 8, 6, 2)
    est = fit_dre_v(s, 0.1)
    q = rng.random((4, 2))
    assert np.array_equal(est.predict_scaled(q), cross_v(q, s.x_prime) @ est.coef)


def test_dre_v_prediction_of_1d_points_is_the_min_kernel_product():
    """For 1-D points predict_scaled applies the V-matrix as a MinKernel: it
    equals the product with cross_v within n eps (|V| @ |coef|), at
    queries on the centers, between them and on both faces."""
    rng = np.random.default_rng(41)
    x_den = rng.random((30, 1))
    x_den[5:8] = x_den[0]
    x_den[9] = 1.0
    s = ScaledSamples(x_den, rng.random((20, 1)), DomainBox(np.zeros(1), np.ones(1)))
    est = fit_dre_v(s, 0.1)
    q = np.concatenate([s.x_prime[:10], rng.random((6, 1)), [[0.0], [1.0]]])
    V = cross_v(q, s.x_prime)
    err = np.abs(est.predict_scaled(q) - V @ est.coef)
    assert np.all(err <= s.n * np.finfo(float).eps * (np.abs(V) @ np.abs(est.coef)))


def test_rect_identity_ones():
    assert np.array_equal(rect_identity_ones(4, 2), [1.0, 1.0, 0.0, 0.0])
    assert np.array_equal(rect_identity_ones(2, 5), [1.0, 1.0])


def test_ulsif_like_solves_its_system():
    rng = np.random.default_rng(39)
    s = unit_samples(rng, 9, 11, 1)
    spec = KernelSpec(KernelKind.RBF, d=1, sigma2=0.3)
    gamma = 0.5
    est = fit_ulsif_like(s, spec, gamma)
    K = cross_gram(spec, s.x_prime, s.x_prime)
    lhs = (K @ K + gamma * np.eye(s.n)) @ est.coef
    rhs = (s.n / s.ell) * K @ rect_identity_ones(s.n, s.ell)
    assert np.allclose(lhs, rhs, atol=1e-8)


def test_predict_applies_box_scaling():
    rng = np.random.default_rng(41)
    raw = rng.uniform(2.0, 6.0, size=(10, 1))
    box = DomainBox(np.array([2.0]), np.array([6.0]))
    scaled = box.transform(raw)
    s = ScaledSamples(scaled, scaled, box)
    spec = KernelSpec(KernelKind.INK_SPLINE_LINEAR, d=1)
    est = fit_dre_vk(s, spec, 0.1)
    assert np.allclose(est.predict(raw), est.predict_scaled(scaled))


@pytest.mark.parametrize("method", list(Method))
def test_predict_rejects_nan_query(method):
    rng = np.random.default_rng(43)
    s = unit_samples(rng, 10, 10, 1)
    spec = kernel_spec_for(method, 1, 0.5)
    if method is Method.DRE_V:
        est = fit_dre_v(s, 0.1)
    elif method is Method.ULSIF_LIKE:
        est = fit_ulsif_like(s, spec, 0.1)
    else:
        est = fit_dre_vk(s, spec, 0.1)
    assert np.all(np.isfinite(est.predict([[0.5], [0.25]])))
    with pytest.raises(OutOfBoxError):
        est.predict([[np.nan], [0.5]])


def test_estimators_reject_nonpositive_gamma():
    rng = np.random.default_rng(42)
    s = unit_samples(rng, 5, 5, 1)
    spec = KernelSpec(KernelKind.INK_SPLINE_LINEAR, d=1)
    rbf = KernelSpec(KernelKind.RBF, d=1, sigma2=0.5)
    for fn in (lambda: fit_dre_v(s, 0.0), lambda: fit_dre_vk(s, spec, -1.0),
               lambda: fit_ulsif_like(s, rbf, 0.0), lambda: dre_v_nonneg_values(s, 0.0)):
        with pytest.raises(ValueError, match="gamma must be positive"):
            fn()
    for fn in (fit_dre_v, dre_v_nonneg_values,
               lambda s, g: fit_dre_vk(s, spec, g), lambda s, g: fit_ulsif_like(s, rbf, g)):
        with pytest.raises(ValueError, match="gamma must be positive"):
            fn(s, np.nan)


def test_ulsif_fit_rejects_a_kernel_other_than_rbf():
    s = unit_samples(np.random.default_rng(44), 6, 6, 1)
    with pytest.raises(ValueError, match="takes the RBF kernel, got ink-spline-linear"):
        fit_ulsif_like(s, KernelSpec(KernelKind.INK_SPLINE_LINEAR, 1), 0.1)


@pytest.mark.parametrize("method", [Method.DRE_V, Method.ULSIF_LIKE])
def test_fits_raise_the_failing_columns_message(method, monkeypatch):
    # a negative bound fails every residual check; the fit raises with the
    # message that solve_system reports for its one column
    rng = np.random.default_rng(43)
    s = unit_samples(rng, 12, 9, 2)
    gamma = 0.05
    spec = kernel_spec_for(method, s.d, 0.5)
    vm = None if spec is not None else build_v_matrices(s)
    K = None if spec is None else cross_gram(spec, s.x_prime, s.x_prime)
    monkeypatch.setattr(solve, "RESIDUAL_RTOL", -1.0)
    _, (error,) = solve_system(method, s, vm, SYSTEMS[method].factor(vm), K, [gamma])
    assert error is not None and f"(gamma={gamma})" in error
    with pytest.raises(SingularSystemError) as exc:
        if spec is None:
            fit_dre_v(s, gamma)
        else:
            fit_ulsif_like(s, spec, gamma)
    assert str(exc.value) == error


def test_kernel_spec_for():
    assert kernel_spec_for(Method.DRE_V, 2) is None
    ink = kernel_spec_for(Method.DRE_VK_INK, 3)
    assert ink.kind is KernelKind.INK_SPLINE_LINEAR and ink.d == 3
    rbf = kernel_spec_for(Method.DRE_VK_RBF, 2, sigma2=0.7)
    assert rbf.kind is KernelKind.RBF and rbf.sigma2 == 0.7


def test_ratio_estimate_validation():
    box = DomainBox(np.zeros(1), np.ones(1))
    centers = np.array([[0.5]])
    with pytest.raises(ValueError):
        RatioEstimate(np.ones(2), centers, box, 0.1)
    with pytest.raises(ValueError):
        RatioEstimate(np.ones(1), centers, box, 0.0)


@pytest.mark.parametrize("d, kind", [(1, KernelKind.INK_SPLINE_LINEAR), (1, KernelKind.RBF),
                                     (20, KernelKind.INK_SPLINE_LINEAR), (20, KernelKind.RBF)])
def test_dre_vk_refit_is_the_lu_of_the_formed_product(d, kind):
    """The refit builds V''K in blocks of columns, for 1-D points from those
    columns of K alone, and its coefficients are those of solve_regularized
    on the C-ordered V''K formed from the whole Gram, bit for bit."""
    s = unit_samples(np.random.default_rng(73), 150, 120, d)
    spec = KernelSpec(kind, d, 0.2 if kind is KernelKind.RBF else None)
    method = Method.DRE_VK_RBF if kind is KernelKind.RBF else Method.DRE_VK_INK
    vm = build_v_matrices(s)
    K = gram_matrix(spec, s.x_prime, s.x_prime)
    gamma = 1e-3 * trace_product(vm.v_dd, K) / s.n
    estimate = fit_system(method, s, gamma, spec, vm, K)
    formed = np.ascontiguousarray(vm.v_dd @ (K.dense() if isinstance(K, InkKernel) else K))
    assert np.array_equal(estimate.coef, solve.solve_regularized(formed, gamma, v_rhs(vm, s)))


def test_1d_ink_refit_holds_about_two_n_by_n_arrays():
    """At most V''K and the LU's copy of it: the refit forms no n x n INK
    Gram and no n x n prefix sums (the formed Gram and one product's prefix
    sums took about 6 n^2 doubles)."""
    n = 600
    s = unit_samples(np.random.default_rng(79), n, n, 1)
    spec = KernelSpec(KernelKind.INK_SPLINE_LINEAR, 1)
    vm = build_v_matrices(s)
    K = gram_matrix(spec, s.x_prime, s.x_prime)
    tracemalloc.start()
    try:
        fit_system(Method.DRE_VK_INK, s, 1e-3, spec, vm, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * n * n * 8
