import dataclasses
import inspect
import sys

import numpy as np
import pytest
import scipy.linalg

from scipy.spatial.distance import cdist

from vratio import estimators, kernels, selection, solve, vmatrix
from vratio.bench import make_model, sample_model
from vratio.domain import DomainBox, SampleSet, ScaledSamples, fit_domain_box, scale
from vratio.estimators import (
    Method,
    fit_dre_v,
    fit_dre_vk,
    fit_ulsif_like,
    kernel_spec_for,
)
from vratio.kernels import InkKernel, cross_gram
from vratio.selection import (
    CvPlan,
    SelectionError,
    cross_validate,
    default_gamma_grid,
    default_sigma2_grid,
    make_folds,
    median_sigma2,
)
from vratio.solve import SingularSystemError
from vratio.vmatrix import MinKernel, build_v_matrices, cross_v, l2_residual


def unit_samples(rng, n, ell, d):
    box = DomainBox(np.zeros(d), np.ones(d))
    return ScaledSamples(rng.random((n, d)), rng.random((ell, d)), box)


def assert_product_within_bound(op, V, X):
    """op @ X equals V @ X within n eps (|V| @ |X|), n the columns of V."""
    err = np.abs(op @ X - V @ X)
    assert np.all(err <= V.shape[1] * np.finfo(float).eps * (np.abs(V) @ np.abs(X)))


def test_default_gamma_grid():
    grid = default_gamma_grid()
    assert grid.shape == (15,)
    assert grid[0] == pytest.approx(1e-5)
    assert grid[-1] == pytest.approx(10.0)
    assert np.all(np.diff(np.log(grid)) > 0)


def test_median_sigma2_two_points():
    assert median_sigma2(np.array([[0.0], [1.0]])) == 1.0


def test_median_sigma2_degenerate():
    # all points coincide: the zero median falls back to a positive width
    assert median_sigma2(np.zeros((5, 2))) > 0.0
    assert median_sigma2(np.array([[0.3]])) == 1.0


def test_default_sigma2_grid_scales_median():
    pts = np.array([[0.0], [1.0]])
    grid = default_sigma2_grid(pts, multipliers=(0.5, 2.0))
    assert np.allclose(grid, [0.5, 2.0])


def test_cv_plan_validation():
    with pytest.raises(ValueError):
        CvPlan(gamma_grid=np.array([]))
    with pytest.raises(ValueError):
        CvPlan(gamma_grid=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        CvPlan(sigma2_grid=np.array([-1.0]))
    with pytest.raises(ValueError):
        CvPlan(k=1)
    for name, values in [("gamma_grid", [np.nan, 1.0]), ("gamma_grid", [np.inf]),
                         ("sigma2_grid", [0.5, np.nan]), ("sigma2_grid", [np.inf]),
                         ("sigma2_multipliers", (1.0, np.nan)), ("sigma2_multipliers", (np.inf,)),
                         ("sigma2_multipliers", ())]:
        with pytest.raises(ValueError, match="nonempty, finite and positive"):
            CvPlan(**{name: values})
    plan = CvPlan(gamma_grid=np.array([1.0, 0.01]))
    assert np.all(np.diff(plan.gamma_grid) > 0)  # sorted on construction


@pytest.mark.parametrize("k", [2.5, 3.9, 3.0, True, "3", 1, 0])
def test_cv_plan_rejects_a_fold_count_that_is_not_an_integer_of_at_least_2(k):
    # np.array_split would run 2.5 as 2 folds and 3.9 as 3
    with pytest.raises(ValueError, match="fold count must be an integer of at least 2"):
        CvPlan(k=k)


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, np.float64(3.0), None, "0"])
def test_cv_plan_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        CvPlan(seed=seed)


def test_cv_plan_takes_numpy_integers():
    plan = CvPlan(k=np.int64(3), seed=np.uint32(7))
    got, want = make_folds(9, 9, plan.k, plan.seed), make_folds(9, 9, 3, 7)
    for a, b in zip(got[0] + got[1], want[0] + want[1]):
        assert np.array_equal(a, b)


def test_make_folds_partition():
    num_folds, den_folds = make_folds(23, 17, 4, seed=5)
    assert len(num_folds) == 4 and len(den_folds) == 4
    assert np.array_equal(np.sort(np.concatenate(num_folds)), np.arange(17))
    assert np.array_equal(np.sort(np.concatenate(den_folds)), np.arange(23))
    sizes = [len(f) for f in den_folds]
    assert max(sizes) - min(sizes) <= 1


def test_make_folds_deterministic():
    a = make_folds(20, 20, 5, seed=7)
    b = make_folds(20, 20, 5, seed=7)
    c = make_folds(20, 20, 5, seed=8)
    assert all(np.array_equal(x, y) for x, y in zip(a[0] + a[1], b[0] + b[1]))
    assert any(not np.array_equal(x, y) for x, y in zip(a[0] + a[1], c[0] + c[1]))


def test_make_folds_rejects_too_many_folds():
    with pytest.raises(ValueError):
        make_folds(3, 10, 4, seed=0)


@pytest.mark.parametrize("k,seed,message", [
    (2.5, 0, "fold count must be an integer of at least 2, got 2.5"),  # not run as 2 folds
    (1, 0, "fold count must be an integer of at least 2, got 1"),
    (3, -1, "seed must be a nonnegative integer, got -1"),
])
def test_make_folds_rejects_what_cv_plan_rejects(k, seed, message):
    with pytest.raises(ValueError, match=message):
        make_folds(10, 10, k, seed)
    with pytest.raises(ValueError, match=message):
        CvPlan(k=k, seed=seed)


@pytest.mark.parametrize("name,values", [
    ("gamma_grid", [1.0, 1.0]), ("gamma_grid", [0.1, 1.0, 0.1]),
    ("sigma2_grid", [0.3, 3e-1]), ("sigma2_multipliers", (0.5, 0.5)),
])
def test_cv_plan_rejects_a_repeated_grid_value(name, values):
    with pytest.raises(ValueError, match=f"{name} must not repeat a value"):
        CvPlan(**{name: values})


@pytest.mark.parametrize("method,sigma2_grid", [
    (Method.DRE_V, None), (Method.DRE_VK_RBF, [0.3, 1.0]),
])
def test_cross_validate_breaks_ties_toward_the_larger_gamma_then_the_later_sigma2(
        monkeypatch, method, sigma2_grid):
    """Equal criteria everywhere: unscaled, every sigma2 has the same gammas,
    and the largest gamma of the last sigma2 wins."""
    monkeypatch.setattr(selection, "_criteria", lambda coef, *holdout: np.zeros(coef.shape[1]))
    s = unit_samples(np.random.default_rng(57), 20, 20, 1)
    plan = CvPlan(k=4, gamma_grid=[1e-2, 1e-1, 1.0], sigma2_grid=sigma2_grid, scale_gamma=False)
    report = cross_validate(s, method, plan)
    assert report.failures == 0
    assert report.selected_gamma == 1.0
    assert report.selected_sigma2 == (None if sigma2_grid is None else 1.0)


def test_cross_validate_report_structure():
    rng = np.random.default_rng(51)
    s = unit_samples(rng, 40, 40, 1)
    plan = CvPlan(k=4, seed=3)
    report = cross_validate(s, Method.DRE_V, plan)
    assert report.method is Method.DRE_V
    assert report.selected_sigma2 is None
    assert report.failures == 0
    assert len(report.candidates) == len(plan.gamma_grid)
    assert report.selected_gamma in {c.gamma for c in report.candidates}
    best = min(c.criterion for c in report.candidates if c.ok)
    chosen = [c for c in report.candidates if c.gamma == report.selected_gamma][0]
    assert chosen.criterion == best
    preds = report.estimate.predict_scaled(s.x_prime)
    assert preds.shape == (40,)


def test_cross_validate_rbf_selects_sigma2():
    rng = np.random.default_rng(52)
    s = unit_samples(rng, 30, 30, 1)
    plan = CvPlan(k=3, sigma2_grid=np.array([0.1, 1.0]))
    report = cross_validate(s, Method.DRE_VK_RBF, plan)
    assert report.selected_sigma2 in (0.1, 1.0)
    assert len(report.candidates) == 2 * len(plan.gamma_grid)


def test_cross_validate_scaled_gammas_are_grid_multiples():
    rng = np.random.default_rng(53)
    s = unit_samples(rng, 25, 25, 2)
    plan = CvPlan(k=5, gamma_grid=np.array([1e-3, 1e-1]), scale_gamma=True)
    report = cross_validate(s, Method.DRE_V, plan)
    tr = np.trace(build_v_matrices(s).v_dd)
    assert np.allclose([c.gamma for c in report.candidates], [1e-3 * tr, 1e-1 * tr])


def test_cross_validate_unscaled_gammas_match_grid():
    rng = np.random.default_rng(54)
    s = unit_samples(rng, 25, 25, 1)
    plan = CvPlan(k=5, gamma_grid=np.array([1e-2, 1.0]), scale_gamma=False)
    report = cross_validate(s, Method.DRE_V, plan)
    assert [c.gamma for c in report.candidates] == [1e-2, 1.0]


@pytest.mark.parametrize("method", list(Method))
def test_cross_validate_zero_gamma_scale_falls_back_to_the_grid(method):
    # every denominator point lies at the pooled maximum and scales to 1, so
    # the overlap volumes of the denominator vanish and tr(V'') = tr(V''K) = 0;
    # uLSIF's K is all ones there, and tr(KK)/n = n
    num = SampleSet(np.array([[0.1], [0.2], [0.3], [0.4], [0.45]]))
    den = SampleSet(np.full((5, 1), 0.5))
    s = scale(num, den, fit_domain_box(num, den))
    assert np.all(s.x_prime == 1.0)
    plan = CvPlan(gamma_grid=np.array([1e-2, 1.0]), sigma2_grid=[0.5])
    report = cross_validate(s, method, plan)
    scale_ = s.n if method is Method.ULSIF_LIKE else 1.0
    assert [c.gamma for c in report.candidates] == [1e-2 * scale_, 1.0 * scale_]


def test_cross_validate_deterministic_given_seed():
    rng = np.random.default_rng(55)
    s = unit_samples(rng, 30, 30, 1)
    plan = CvPlan(k=5, seed=11)
    r1 = cross_validate(s, Method.DRE_VK_INK, plan)
    r2 = cross_validate(s, Method.DRE_VK_INK, plan)
    assert r1.selected_gamma == r2.selected_gamma
    assert np.array_equal(r1.estimate.coef, r2.estimate.coef)


def test_cross_validate_all_failures_raise(monkeypatch):
    rng = np.random.default_rng(56)
    s = unit_samples(rng, 20, 20, 1)

    # a negative bound fails every residual check, batched or not
    monkeypatch.setattr(solve, "RESIDUAL_RTOL", -1.0)
    for method in Method:
        with pytest.raises(SelectionError, match="residual"):
            cross_validate(s, method, CvPlan(k=4, sigma2_grid=np.array([0.5])))


def spoil_stacked_solves(monkeypatch, spoiled_call, columns):
    """Patch solve._stacked_solve to return NaN in `columns` of its solutions
    on call number `spoiled_call`; returns the list of every call's width."""
    stacked_solve = solve._stacked_solve
    widths = []

    def spoiled(bands, rhs):
        factors, X = stacked_solve(bands, rhs)
        if len(widths) == spoiled_call:
            X[:, columns] = np.nan
        widths.append(rhs.shape[1])
        return factors, X

    monkeypatch.setattr(solve, "_stacked_solve", spoiled)
    return widths


@pytest.mark.parametrize("fold", ["first", "last"])
def test_cross_validate_partial_failure_excludes_only_that_candidate(monkeypatch, fold):
    # spoil the column of the otherwise selected gamma in one fold only
    rng = np.random.default_rng(58)
    s = unit_samples(rng, 40, 40, 1)
    plan = CvPlan(k=4, seed=3)
    clean = cross_validate(s, Method.DRE_VK_INK, plan)
    j = [c.gamma for c in clean.candidates].index(clean.selected_gamma)
    widths = spoil_stacked_solves(monkeypatch, 0 if fold == "first" else plan.k - 1, j)
    report = cross_validate(s, Method.DRE_VK_INK, plan)
    bad = report.candidates[j]
    assert not bad.ok and np.isnan(bad.criterion) and report.failures == 1
    assert bad.error.startswith("system singular to working precision: residual nan")
    assert bad.error.endswith(f"(gamma={bad.gamma})")
    # every fold solves the whole grid, so no other column's batch changes
    assert widths == [len(plan.gamma_grid)] * plan.k
    rest = [c for c in report.candidates if c.ok]
    for c, want in zip(rest, [c for i, c in enumerate(clean.candidates) if i != j]):
        assert c.gamma == want.gamma and c.criterion == want.criterion
    best = min(rest, key=lambda c: (c.criterion, -c.gamma))
    assert report.selected_gamma == best.gamma != clean.selected_gamma


def test_cross_validate_rbf_failed_sigma2_leaves_the_others_bit_identical(monkeypatch):
    # 2-D points take the dense stacked solve, one call per (fold, sigma2);
    # spoil every column of the otherwise selected sigma2 in the first fold
    rng = np.random.default_rng(59)
    s = unit_samples(rng, 40, 40, 2)
    plan = CvPlan(k=3, seed=4)
    clean = cross_validate(s, Method.DRE_VK_RBF, plan)
    sigma2_values = sorted({c.sigma2 for c in clean.candidates})
    i = sigma2_values.index(clean.selected_sigma2)
    widths = spoil_stacked_solves(monkeypatch, i, slice(None))
    report = cross_validate(s, Method.DRE_VK_RBF, plan)
    assert widths == [len(plan.gamma_grid)] * (plan.k * len(sigma2_values))
    assert report.failures == len(plan.gamma_grid)
    for c, want in zip(report.candidates, clean.candidates):
        assert c.gamma == want.gamma and c.sigma2 == want.sigma2
        if c.sigma2 == clean.selected_sigma2:
            assert not c.ok and np.isnan(c.criterion)
            assert c.error.startswith("system singular to working precision: residual nan")
        else:
            assert c.ok and c.criterion == want.criterion
    best = min((c for c in report.candidates if c.ok), key=lambda c: (c.criterion, -c.gamma))
    assert (report.selected_sigma2, report.selected_gamma) == (best.sigma2, best.gamma)
    assert report.selected_sigma2 != clean.selected_sigma2


def test_cross_validate_too_few_points_for_folds():
    rng = np.random.default_rng(57)
    s = unit_samples(rng, 3, 20, 1)
    with pytest.raises(ValueError):
        cross_validate(s, Method.DRE_V, CvPlan(k=5))


def naive_cv(s, method, plan, sigma2_values):
    """Every candidate scored the slow way: the public fit_* function on each
    training fold, then the least-squares criterion on its holdout.

    Returns {(gamma, sigma2): criterion, or None if a fold's solve failed}.
    """
    vdd = cross_v(s.x_prime, s.x_prime)
    num_folds, den_folds = make_folds(s.n, s.ell, plan.k, plan.seed)
    out = {}
    for s2 in sigma2_values:
        spec = kernel_spec_for(method, s.d, s2)
        if method is Method.DRE_V:
            scale = np.trace(vdd)
        else:
            K = cross_gram(spec, s.x_prime, s.x_prime)
            scale = np.sum(K * K) / s.n if method is Method.ULSIF_LIKE else np.sum(vdd * K) / s.n
        for g in plan.gamma_grid:
            gamma = float(g) * float(scale)
            total = 0.0
            for num_hold, den_hold in zip(num_folds, den_folds):
                sub = s.subset(np.setdiff1d(np.arange(s.ell), num_hold),
                               np.setdiff1d(np.arange(s.n), den_hold))
                try:
                    if method is Method.DRE_V:
                        est = fit_dre_v(sub, gamma)
                    elif method is Method.ULSIF_LIKE:
                        est = fit_ulsif_like(sub, spec, gamma)
                    else:
                        est = fit_dre_vk(sub, spec, gamma)
                except SingularSystemError:
                    total = None
                    break
                r_den = est.predict_scaled(s.x_prime[den_hold])
                r_num = est.predict_scaled(s.x[num_hold])
                total += 0.5 * np.sum(r_den**2) - (s.n / s.ell) * np.sum(r_num)
            out[(gamma, s2)] = total
    return out


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("method", list(Method))
def test_cross_validate_matches_naive_per_candidate_fits(method, d):
    rng = np.random.default_rng(60 + d)
    s = unit_samples(rng, 36, 30, d)
    sigma2_values = [0.2, 1.0] if method in (Method.DRE_VK_RBF, Method.ULSIF_LIKE) else [None]
    plan = CvPlan(k=3, seed=4, sigma2_grid=None if sigma2_values == [None] else sigma2_values)
    report = cross_validate(s, method, plan)
    naive = naive_cv(s, method, plan, sigma2_values)

    assert len(report.candidates) == len(naive)
    for cand, ((gamma, s2), want) in zip(report.candidates, naive.items()):
        assert cand.gamma == pytest.approx(gamma, rel=1e-12)
        assert cand.sigma2 == s2
        assert cand.ok == (want is not None)
        if want is not None:
            assert cand.criterion == pytest.approx(want, rel=1e-8, abs=0.0)
    ok = [(c, k) for c, k in zip(report.candidates, naive) if naive[k] is not None]
    best = min(ok, key=lambda ck: (naive[ck[1]], -ck[1][0]))[0]
    assert (report.selected_gamma, report.selected_sigma2) == (best.gamma, best.sigma2)


class CallCounter:
    """Counts calls of the functions it wraps, keyed by a label per call."""

    def __init__(self):
        self.counts = {}

    def wrap(self, fn, label):
        """fn, counting each call under label(*args) unless that is None."""
        def counted(*args, **kwargs):
            key = label(*args)
            if key is not None:
                self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return counted


@pytest.mark.parametrize("method,d", [(m, 2) for m in Method] + [(m, 1) for m in Method],
                         ids=[str(m) for m in Method] + [f"{m}-1d" for m in Method])
def test_cross_validate_work_counts(method, d, monkeypatch):
    """Factorisations and matrix builds per cross_validate call, by formula."""
    n, k, G = 24, 3, 4
    rng = np.random.default_rng(61)
    s = unit_samples(rng, n, n, d)
    rbf = method in (Method.DRE_VK_RBF, Method.ULSIF_LIKE)
    S = 2 if rbf else 1
    plan = CvPlan(k=k, gamma_grid=np.logspace(-3, 0, G), sigma2_grid=[0.3, 1.0])
    # the fold Grams of 1-D points have rank 11-12 at sigma2 = 0.3 and 9 at
    # sigma2 = 1.0: with the cut-off at 0.6 * 16 = 9.6, sigma2 = 1.0 takes the
    # low-rank path and sigma2 = 0.3 the dense one
    monkeypatch.setattr(solve, "LOW_RANK_MAX_FRAC", 0.6)

    counter = CallCounter()
    for name in ("lu_factor", "eigh"):
        monkeypatch.setattr(scipy.linalg, name,
                            counter.wrap(getattr(scipy.linalg, name), lambda *a, name=name: name))
    for name in ("dpstrf", "dsytrd"):
        monkeypatch.setattr(scipy.linalg.lapack, name, counter.wrap(
            getattr(scipy.linalg.lapack, name), lambda *a, name=name: name))

    # fold sizes: training sets of 16 points, holdouts of 8, full data of 24
    kinds = {(8, 16): "holdout", (16, 16): "train", (24, 24): "full"}

    def matrix_kind(rows, cols):
        return kinds[(len(rows), len(cols))]

    # kernels.gram_matrix builds every Gram by one of these two, and an
    # InkKernel's dense() by cross_gram
    monkeypatch.setattr(kernels, "cross_gram", counter.wrap(
        kernels.cross_gram, lambda spec, rows, cols: ("gram", matrix_kind(rows, cols))))
    monkeypatch.setattr(kernels, "InkKernel", counter.wrap(
        kernels.InkKernel, lambda rows, cols: ("ink", matrix_kind(rows, cols))))
    # vmatrix.v_matrix builds every V-matrix by one of these two
    monkeypatch.setattr(vmatrix, "min_kernel", counter.wrap(
        vmatrix.min_kernel, lambda rows, cols: ("min", matrix_kind(rows, cols))))
    monkeypatch.setattr(vmatrix, "cross_v", counter.wrap(
        vmatrix.cross_v, lambda rows, cols: ("v", matrix_kind(rows, cols))))
    # the min_kernel and InkKernel operators of the folds are blocks of the
    # full-data ones
    monkeypatch.setattr(selection, "block", counter.wrap(
        selection.block, lambda V, rows, cols: ("min", matrix_kind(rows, cols))
        if isinstance(V, MinKernel) else ("ink", matrix_kind(rows, cols))
        if isinstance(V, InkKernel) else None))
    monkeypatch.setattr(selection, "cdist", counter.wrap(
        selection.cdist, lambda rows, cols, metric: ("dist", matrix_kind(rows, cols))))
    # the exp of the RBF distances: full data, a fold's training block, or one
    # of its two holdouts
    monkeypatch.setattr(selection, "rbf_from_sqdist", counter.wrap(
        selection.rbf_from_sqdist, lambda sq, sigma2: ("exp", kinds[sq.shape])))
    report = cross_validate(s, method, plan)
    assert report.failures == 0

    # in d > 1 the full-data V-matrices V'' and V' (all but uLSIF) are built
    # once per draw; every fold takes its V-matrices, and DRE-V its
    # denominator-holdout matrix, as blocks, and DRE-V builds the V-matrix
    # of its numerator holdout. 1-D points build no V-matrix: V'' and V' of
    # the full data and of each fold's own points, and DRE-V's holdout
    # matrices, are min_kernel operators
    want = {}
    if method is not Method.ULSIF_LIKE:
        if d > 1:
            want[("v", "full")] = 2
            if method is Method.DRE_V:
                want[("v", "holdout")] = k
        else:
            want.update({("min", "full"): 2, ("min", "train"): 2 * k})
            if method is Method.DRE_V:
                want[("min", "holdout")] = 2 * k
    if method is Method.DRE_V:
        # one pivoted Cholesky V'' = W W' and one tridiagonal reduction of W'W
        # per fold and for the refit serve every gamma; no eigh. In 1-D V''
        # has a closed-form factor and the pencil needs neither
        if d > 1:
            want.update({"dpstrf": k + 1, "dsytrd": k + 1})
    elif method is Method.ULSIF_LIKE:
        # one tridiagonal reduction of K per (fold, sigma2) and for the refit
        # serves every gamma; no LU. In 1-D a pivoted Cholesky of K per
        # (fold, sigma2) comes first, and only the dense path reduces K
        want.update({"dsytrd": k * S + 1})
        if d == 1:
            want.update({"dpstrf": k * S, "dsytrd": k + 1})
    else:
        # one pivoted Cholesky of V'' per fold (the closed form in 1-D) and one
        # tridiagonal reduction per (fold, sigma2) serve every gamma; only the
        # refit uses LU. In 1-D the RBF Gram of each (fold, sigma2) is factored
        # by a pivoted Cholesky, and only the dense path reduces W'KW. That
        # path factors W'KW by a pivoted Cholesky first and reduces it only
        # above the cut: here W'KW has rank 16 of 16 for INK, and 10 of 16
        # for RBF at sigma2 = 0.3, both above 9.6
        want.update({"dsytrd": k * S, "lu_factor": 1})
        if d > 1:
            want["dpstrf"] = k
        elif method is Method.DRE_VK_RBF:
            want.update({"dpstrf": k * S + k, "dsytrd": k})
        else:
            want["dpstrf"] = k
    if method is Method.DRE_VK_INK:
        # the full-data Gram serves the gamma scaling, the training and
        # denominator-holdout blocks and the refit; the numerator holdout is
        # built per fold. For 1-D points all of them are InkKernel operators,
        # and only the refit's LU forms the full-data Gram, by dense()
        if d > 1:
            want.update({("gram", "full"): 1, ("gram", "holdout"): k})
        else:
            want.update({("gram", "full"): 1, ("ink", "full"): 1, ("ink", "train"): k,
                         ("ink", "holdout"): 2 * k})
    elif rbf:
        # the squared distances of the full data serve every sigma2, fold and
        # the refit; those of the numerator holdout are computed per fold. One
        # exp of the full data per sigma2 for the gamma scaling and one for the
        # refit, and per (fold, sigma2) one of the training block and one of
        # each holdout
        want.update({("dist", "full"): 1, ("dist", "holdout"): k, ("exp", "full"): S + 1,
                     ("exp", "train"): k * S, ("exp", "holdout"): 2 * k * S})
    assert counter.counts == want


@pytest.mark.parametrize("method", [Method.DRE_V, Method.DRE_VK_INK, Method.DRE_VK_RBF])
def test_cross_validate_on_distinct_1d_points_forms_no_v_matrix(method, monkeypatch):
    """On 1-D points of which no two lie closer than NEAR_TIE_GAP, the path
    of `vratio fit` (cross-validation, its refit and the estimate's
    predictions) and l2_residual take every V-matrix product from the points:
    no binding of cross_v in the package and no MinKernel.dense is called."""
    s = unit_samples(np.random.default_rng(66), 40, 30, 1)
    assert np.diff(np.sort(np.concatenate([[0.0], 1.0 - s.x_prime[:, 0]]))).min() > 1e-4
    counter = CallCounter()
    for name, module in list(sys.modules.items()):
        if (name == "vratio" or name.startswith("vratio.")) and hasattr(module, "cross_v"):
            monkeypatch.setattr(module, "cross_v", counter.wrap(module.cross_v,
                                                                lambda *a: "cross_v"))
    monkeypatch.setattr(MinKernel, "dense", counter.wrap(MinKernel.dense, lambda *a: "dense"))
    report = cross_validate(s, method, CvPlan(k=4, sigma2_grid=[0.3, 1.0]))
    l2_residual(s, report.estimate.predict(s.x_prime))
    assert report.failures == 0
    assert counter.counts == {}


def test_cross_validate_on_1d_points_forms_the_ink_gram_only_for_the_refit(monkeypatch):
    """On 1-D points, DRE-VK-INK's cross-validation, its refit and the
    estimate's predictions take every INK Gram as an InkKernel operator:
    the gamma scale, the folds' W'KW and residual checks, the holdouts and
    the predictions form none, and cross_gram runs only for the refit's
    V''K, on blocks of at most estimators._PRODUCT_COLUMNS columns, so no
    n x n Gram is formed. A negative query still raises as cross_gram does."""
    n = 2 * estimators._PRODUCT_COLUMNS + 9
    s = unit_samples(np.random.default_rng(67), n, 30, 1)
    counter = CallCounter()
    for name, module in list(sys.modules.items()):
        if (name == "vratio" or name.startswith("vratio.")) and hasattr(module, "cross_gram"):
            monkeypatch.setattr(module, "cross_gram", counter.wrap(
                module.cross_gram, lambda spec, rows, cols: (len(rows), len(cols))))
    report = cross_validate(s, Method.DRE_VK_INK, CvPlan(k=4))
    report.estimate.predict(s.pooled())
    assert report.failures == 0
    assert counter.counts == {(n, estimators._PRODUCT_COLUMNS): 2, (n, 9): 1}
    with pytest.raises(ValueError, match="nonnegative"):
        report.estimate.predict_scaled([[0.5], [-0.1]])


@pytest.mark.parametrize("method", [Method.DRE_VK_RBF, Method.ULSIF_LIKE])
def test_cross_validate_20d_rbf_grams_are_not_factored(method, monkeypatch):
    """20-D RBF Grams are full rank, so no pivoted Cholesky of K is tried:
    the solver never gets `low_rank`, and the only dpstrf calls are DRE-VK's
    one factor of V'' per fold. As a positive control, the same spies on
    1-D points count a solve with `low_rank` and its dpstrf of K once per
    (fold, sigma2); both Grams there have rank far below the cut, and V''
    has its closed-form factor."""
    k = 3
    counter = CallCounter()
    monkeypatch.setattr(scipy.linalg.lapack, "dpstrf", counter.wrap(
        scipy.linalg.lapack.dpstrf, lambda *a: "dpstrf"))
    name = {Method.ULSIF_LIKE: "solve_ridge_square_many",
            Method.DRE_VK_RBF: "solve_product_ridge_many"}[method]
    solver = getattr(estimators, name)
    signature = inspect.signature(solver)

    def spy(*args, **kwargs):
        if signature.bind(*args, **kwargs).arguments.get("low_rank"):
            counter.counts["low_rank"] = counter.counts.get("low_rank", 0) + 1
        return solver(*args, **kwargs)

    monkeypatch.setattr(estimators, name, spy)
    plan = CvPlan(k=k, sigma2_grid=[2.0, 8.0])
    cross_validate(unit_samples(np.random.default_rng(65), 30, 24, 20), method, plan)
    assert counter.counts == ({} if method is Method.ULSIF_LIKE else {"dpstrf": k})
    counter.counts.clear()
    cross_validate(unit_samples(np.random.default_rng(65), 30, 24, 1), method, plan)
    assert counter.counts == {"dpstrf": 2 * k, "low_rank": 2 * k}


def fold_blocks_inputs():
    """1-D points with ties between and within the samples and coordinates at
    0 and 1, and 20-D points."""
    rng = np.random.default_rng(63)
    den = rng.random(20)
    den[[3, 9, 14]] = den[2]
    den[5], den[11], den[17] = 0.0, 1.0, 1.0
    num = np.concatenate([den[:6], rng.random(11), [0.0, 1.0]])
    box = DomainBox(np.zeros(1), np.ones(1))
    one_d = ScaledSamples(den[:, None], num[:, None], box)
    twenty_d = unit_samples(rng, 30, 25, 20)
    return {"1d-ties-faces": one_d, "20d": twenty_d}


@pytest.mark.parametrize("case", list(fold_blocks_inputs()))
@pytest.mark.parametrize("method", list(Method))
def test_fold_blocks_equal_per_fold_builds(method, case, monkeypatch):
    """Every matrix a fold uses is a block of a full-data matrix, or for the
    numerator holdout built from its points by the method's basis function;
    each must equal, bit for bit and in layout, the matrix built from the
    fold's points with the expressions cross-validation used before. For
    1-D points the V-matrices are min_kernel operators of the fold's points,
    not blocks: their products must match the dense matrix's within the
    bound of tests/test_vmatrix.py. The 1-D INK Grams are InkKernel
    operators, whose dense() must equal cross_gram of the fold's points."""
    s = fold_blocks_inputs()[case]
    sigma2_values = [0.05, 0.7]
    plan = CvPlan(k=4, seed=9, sigma2_grid=sigma2_values)
    systems, holdouts = [], []
    system, criteria = estimators.SYSTEMS[method], selection._criteria

    # kept as they were when the fold used them, should a later sigma2 or fold
    # write into a buffer it reuses
    def copy(a):
        return a if a is None or isinstance(a, (MinKernel, InkKernel)) else a.copy(order="K")

    def spy_solve(sub, vm, factor, K, gammas, low_rank):
        if sub is not s:  # the refit on all data is not a fold's
            systems.append((sub, vm, copy(K)))
        return system.solve(sub, vm, factor, K, gammas, low_rank)

    def spy_criteria(coef, hold_den, hold_num, n_over_l):
        holdouts.append((coef.copy(), copy(hold_den), copy(hold_num)))
        return criteria(coef, hold_den, hold_num, n_over_l)

    monkeypatch.setitem(estimators.SYSTEMS, method, dataclasses.replace(system, solve=spy_solve))
    monkeypatch.setattr(selection, "_criteria", spy_criteria)
    cross_validate(s, method, plan)

    def old_build(rows, cols, sigma2):
        if method is Method.DRE_V:
            return cross_v(rows, cols)
        if method is Method.DRE_VK_INK:
            return cross_gram(kernel_spec_for(method, s.d), rows, cols)
        return np.exp(-cdist(rows, cols, "sqeuclidean") / (2.0 * sigma2))

    rbf = method in (Method.DRE_VK_RBF, Method.ULSIF_LIKE)
    per_fold = sigma2_values if rbf else [None]
    num_folds, den_folds = make_folds(s.n, s.ell, plan.k, plan.seed)
    assert len(systems) == len(holdouts) == plan.k * len(per_fold)
    for f, (num_hold, den_hold) in enumerate(zip(num_folds, den_folds)):
        for i, s2 in enumerate(per_fold):
            sub, vm, K = systems[f * len(per_fold) + i]
            coef, hold_den, hold_num = holdouts[f * len(per_fold) + i]
            assert np.array_equal(sub.x_prime, s.x_prime[np.setdiff1d(np.arange(s.n), den_hold)])
            assert np.array_equal(sub.x, s.x[np.setdiff1d(np.arange(s.ell), num_hold)])
            want = {
                "hold_den": (hold_den, old_build(s.x_prime[den_hold], sub.x_prime, s2)),
                "hold_num": (hold_num, old_build(s.x[num_hold], sub.x_prime, s2)),
            }
            if vm is not None:
                want["v_dd"] = (vm.v_dd, cross_v(sub.x_prime, sub.x_prime))
                want["v_dn"] = (vm.v_dn, cross_v(sub.x_prime, sub.x))
            if method is not Method.DRE_V:
                want["K"] = (K, old_build(sub.x_prime, sub.x_prime, s2))
            # the 1-D V-matrices, DRE-V's holdout matrices among them
            operators = set() if s.d > 1 else {"v_dd", "v_dn"} | (
                {"hold_den", "hold_num"} if method is Method.DRE_V else set())
            inks = {"K", "hold_den", "hold_num"} if (
                s.d == 1 and method is Method.DRE_VK_INK) else set()
            for name, (got, old) in want.items():
                if name in inks:
                    assert isinstance(got, InkKernel), (f, name)
                    assert np.array_equal(got.dense(), old), (f, name)
                    continue
                if name in operators:
                    assert isinstance(got, MinKernel), (f, name)
                    X = np.ones((old.shape[1], 1)) if name == "v_dn" else coef
                    assert_product_within_bound(got, old, X)
                    continue
                assert np.array_equal(got, old), (f, s2, name)
                assert got.flags.c_contiguous and old.flags.c_contiguous, (f, s2, name)


def refit_inputs():
    """The 1-D points of fold_blocks_inputs, with ties and points at 1, and 3-D points."""
    return {"1d-ties-faces": fold_blocks_inputs()["1d-ties-faces"],
            "3d": unit_samples(np.random.default_rng(64), 30, 25, 3)}


@pytest.mark.parametrize("case", list(refit_inputs()))
@pytest.mark.parametrize("method", list(Method))
def test_cross_validate_estimate_is_the_fit_at_the_selection(method, case):
    """CV refits with the code path of the fit_* functions: the same coefficients."""
    s = refit_inputs()[case]
    report = cross_validate(s, method, CvPlan(k=4, seed=9))
    spec = kernel_spec_for(method, s.d, report.selected_sigma2)
    if method is Method.DRE_V:
        est = fit_dre_v(s, report.selected_gamma)
    elif method is Method.ULSIF_LIKE:
        est = fit_ulsif_like(s, spec, report.selected_gamma)
    else:
        est = fit_dre_vk(s, spec, report.selected_gamma)
    assert np.array_equal(report.estimate.coef, est.coef)
    assert report.estimate.kernel == est.kernel


def degenerate_samples():
    """Inputs whose CV folds have degenerate sizes, each with k = min(n, ell)."""
    cases = {
        # fold 1 trains on the point at 1 alone (V'' = 0, rank 0), fold 2 on one point
        "rank-0-and-n-1": ([[0.2], [1.0]], [[0.5], [0.7]]),
        # every fold trains on two denominator points
        "n-2": ([[0.1], [0.4], [0.8]], [[0.3], [0.5], [0.9]]),
        "ties": ([[0.3], [0.3], [0.3], [0.7], [0.7], [1.0]],
                 [[0.2], [0.3], [0.5], [0.7], [0.7], [0.9]]),
    }
    out = {}
    for name, (x_den, x_num) in cases.items():
        box = DomainBox(np.zeros(1), np.ones(1))
        out[name] = ScaledSamples(np.array(x_den), np.array(x_num), box)
    # a zero-range coordinate, scaled by the fitted box to the constant 0.5
    rng = np.random.default_rng(62)
    raw_den = np.column_stack([rng.random(6), np.full(6, 3.0)])
    raw_num = np.column_stack([rng.random(5), np.full(5, 3.0)])
    num, den = SampleSet(raw_num), SampleSet(raw_den)
    out["zero-range-coordinate"] = scale(num, den, fit_domain_box(num, den))
    return out


@pytest.mark.parametrize("case", list(degenerate_samples()))
@pytest.mark.parametrize("method", list(Method))
def test_cross_validate_degenerate_sizes_match_naive_fits(method, case):
    s = degenerate_samples()[case]
    k = min(s.n, s.ell)
    sigma2_values = [0.2, 1.0] if method in (Method.DRE_VK_RBF, Method.ULSIF_LIKE) else [None]
    plan = CvPlan(k=k, seed=2, sigma2_grid=None if sigma2_values == [None] else sigma2_values)
    report = cross_validate(s, method, plan)
    naive = naive_cv(s, method, plan, sigma2_values)

    assert report.failures == 0
    assert all(want is not None for want in naive.values())
    scale_ = max(abs(want) for want in naive.values())
    for cand, want in zip(report.candidates, naive.values()):
        assert cand.criterion == pytest.approx(want, rel=1e-8, abs=1e-12 * scale_)
    assert np.all(np.isfinite(report.estimate.predict_scaled(s.pooled())))


@pytest.mark.parametrize("model_id", [2, 6])
@pytest.mark.parametrize("method", list(Method))
def test_reported_values_are_the_predictions_at_the_denominator_points(method, model_id):
    """CvReport.values applies the full-data V'' or Gram that the refit
    held to the coefficients: estimate.predict of the raw denominator points,
    bit for bit, since the box maps them onto the centers exactly."""
    num, den = sample_model(make_model(model_id), 80, 5)
    s = scale(num, den, fit_domain_box(num, den))
    report = cross_validate(s, method, CvPlan(k=3, gamma_grid=[1e-3, 1e-1]))
    assert np.array_equal(report.values, report.estimate.predict(den.points))
