import numpy as np
import pytest

from vratio import bench
from vratio.bench import (
    BetaDist,
    DensityUnderflowError,
    GaussianDist,
    LaplaceDist,
    Uniform01Dist,
    aggregate,
    make_model,
    nrmse,
    run_experiment,
    sample_model,
    true_ratio,
)
from vratio.domain import OutOfBoxError
from vratio.estimators import Method
from vratio.selection import CvPlan, SelectionError
from vratio.solve import SingularSystemError


def test_make_model_parameters():
    m1 = make_model(1)
    assert (m1.d, m1.p1.a, m1.p1.b) == (1, 0.5, 0.5)
    assert isinstance(m1.p2, Uniform01Dist)
    m3 = make_model(3)
    assert (m3.p1.a, m3.p1.b, m3.p2.a, m3.p2.b) == (2.0, 2.0, 0.5, 0.5)
    m4 = make_model(4)
    assert np.allclose(m4.p1.mean, [2.0]) and np.allclose(m4.p1.var, [0.25])
    assert np.allclose(m4.p2.mean, [1.0]) and np.allclose(m4.p2.var, [0.5])
    m6 = make_model(6)
    assert m6.d == 20
    assert m6.p1.mean[0] == 1.0 and np.all(m6.p1.mean[1:] == 0.0)
    assert np.all(m6.p1.var == 1.0) and np.all(m6.p2.mean == 0.0)
    m7 = make_model(7)
    assert isinstance(m7.p1, LaplaceDist) and m7.d == 20


def test_make_model_unknown_id():
    with pytest.raises(ValueError):
        make_model(8)


def test_laplace_parameter_conventions():
    # default second parameter is a variance: Var = 2 b^2 so b = sqrt(var/2)
    m5 = make_model(5)
    assert np.allclose(m5.p1.scale, np.sqrt(0.25 / 2.0))
    assert np.allclose(m5.p2.scale, np.sqrt(0.5 / 2.0))


@pytest.mark.parametrize(
    "dist,mean,var",
    [
        (BetaDist(0.5, 0.5), 0.5, 0.125),
        (BetaDist(2.0, 2.0), 0.5, 0.05),
        (Uniform01Dist(), 0.5, 1.0 / 12.0),
        (GaussianDist(np.array([2.0]), np.array([0.25])), 2.0, 0.25),
        (LaplaceDist(np.array([1.0]), np.array([0.5])), 1.0, 0.5),
    ],
)
def test_sampler_moments(dist, mean, var):
    rng = np.random.default_rng(60)
    m = 100_000
    x = dist.sample(rng, m)[:, 0]
    se_mean = np.sqrt(var / m)
    assert abs(x.mean() - mean) <= 4.0 * se_mean
    # SE of the sample variance from the fourth central moment
    mu4 = np.mean((x - x.mean()) ** 4)
    se_var = np.sqrt(max(mu4 - var**2, 0.0) / m)
    assert abs(x.var() - var) <= 4.0 * se_var


def test_sample_model_shapes_and_determinism():
    model = make_model(6)
    num1, den1 = sample_model(model, 50, seed=4)
    num2, den2 = sample_model(model, 50, seed=4)
    num3, _ = sample_model(model, 50, seed=5)
    assert num1.points.shape == (50, 20) and den1.points.shape == (50, 20)
    assert np.array_equal(num1.points, num2.points)
    assert np.array_equal(den1.points, den2.points)
    assert not np.array_equal(num1.points, num3.points)


def test_true_ratio_known_values():
    # Beta(2,2) over the uniform: 6 x (1-x); at one half that is 1.5
    assert true_ratio(make_model(2), [[0.5]])[0] == pytest.approx(1.5)
    # Beta(1/2,1/2) over the uniform at one half: 2/pi
    assert true_ratio(make_model(1), [[0.5]])[0] == pytest.approx(2.0 / np.pi)
    # two Gaussians at x=2: sqrt(2) e
    assert true_ratio(make_model(4), [[2.0]])[0] == pytest.approx(np.sqrt(2.0) * np.e)


@pytest.mark.parametrize("a, b", [(0.5, 0.5), (2.0, 2.0), (0.7, 3.0)])
def test_beta_logpdf_equals_scipy_bit_for_bit(a, b):
    from scipy import stats

    inner = np.random.default_rng(11).random(100_000)
    edges = [0.0, 1.0, np.nextafter(1.0, 0.0), 5e-324, -0.1, 1.1]
    x = np.concatenate([inner, edges])
    got = BetaDist(a, b).logpdf(x[:, None])  # the RuntimeWarning filter makes a warning fail
    want = stats.beta.logpdf(x, a, b)
    assert got.tobytes() == want.tobytes()
    assert np.all(got[-2:] == -np.inf)


def test_true_ratio_underflow_guard():
    with pytest.raises(DensityUnderflowError):
        true_ratio(make_model(4), [[100.0]])


def test_nrmse():
    assert nrmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert nrmse([2.0, 2.0], [1.0, 1.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        nrmse([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        nrmse([1.0], [0.0])


def test_run_experiment_records():
    plan = CvPlan(k=5)
    recs = run_experiment(2, 50, Method.DRE_V, draws=3, plan=plan, base_seed=10)
    assert len(recs) == 3
    assert [r.draw for r in recs] == [0, 1, 2]
    assert [r.seed for r in recs] == [10, 11, 12]
    for r in recs:
        assert r.status == "ok"
        assert r.nrmse is not None and np.isfinite(r.nrmse)
        assert r.gamma > 0 and r.sigma2 is None


def test_run_experiment_deterministic():
    plan = CvPlan(k=5)
    a = run_experiment(2, 50, Method.DRE_VK_INK, draws=2, plan=plan, base_seed=0)
    b = run_experiment(2, 50, Method.DRE_VK_INK, draws=2, plan=plan, base_seed=0)
    assert [r.nrmse for r in a] == [r.nrmse for r in b]


@pytest.mark.parametrize("error", [
    SelectionError("all candidates failed"), SingularSystemError("singular"),
    OutOfBoxError("outside"), DensityUnderflowError("underflow")])
def test_run_experiment_records_library_errors(error, monkeypatch):
    def fail(s, method, plan):
        raise error

    monkeypatch.setattr(bench, "cross_validate", fail)
    (rec,) = run_experiment(2, 20, Method.DRE_V, draws=1, plan=CvPlan(k=2), base_seed=0)
    assert rec.status == "failed"
    assert rec.message == f"{type(error).__name__}: {error}"


def test_run_experiment_raises_programming_errors(monkeypatch):
    def broken(s, method, plan):
        return np.arange(3)[5]

    monkeypatch.setattr(bench, "cross_validate", broken)
    with pytest.raises(IndexError):
        run_experiment(2, 20, Method.DRE_V, draws=1, plan=CvPlan(k=2), base_seed=0)


def test_aggregate():
    plan = CvPlan(k=5)
    recs = run_experiment(2, 50, Method.DRE_V, draws=4, plan=plan, base_seed=0)
    agg = aggregate(recs)
    cell = agg[(2, 50, Method.DRE_V)]
    vals = [r.nrmse for r in recs]
    assert cell["mean"] == pytest.approx(np.mean(vals))
    assert cell["std"] == pytest.approx(np.std(vals, ddof=1))
    assert cell["draws"] == 4 and cell["failures"] == 0
