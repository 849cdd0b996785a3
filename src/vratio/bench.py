"""Synthetic benchmark: the seven generator models, true-ratio oracle, NRMSE, and
the draw/fit/evaluate experiment loop."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .domain import OutOfBoxError, SampleSet, as_points, fit_domain_box, scale
from .estimators import Method, dre_v_nonneg_values
from .selection import CvPlan, SelectionError, cross_validate
from .solve import SingularSystemError

_P2_FLOOR_LOG = np.log(1e-300)


class DensityUnderflowError(ValueError):
    """The denominator density underflows at a query point."""


# the library's own errors for a draw it cannot estimate; anything else is a bug
_DRAW_ERRORS = (SelectionError, SingularSystemError, OutOfBoxError, DensityUnderflowError)


@dataclass(frozen=True)
class BetaDist:
    a: float
    b: float

    def sample(self, rng: np.random.Generator, m: int) -> np.ndarray:
        # gamma-ratio construction: X = G(a) / (G(a) + G(b))
        g1 = rng.gamma(self.a, 1.0, size=m)
        g2 = rng.gamma(self.b, 1.0, size=m)
        return (g1 / (g1 + g2))[:, None]

    def logpdf(self, pts: np.ndarray) -> np.ndarray:
        """scipy.stats.beta.logpdf bit for bit: (b-1) log(1-x) + (a-1) log x
        - log B(a, b) on the closed support [0, 1], -inf outside it, NaN at NaN."""
        x = pts[:, 0]
        outside = (x < 0.0) | (x > 1.0)
        x = np.where(outside, 0.5, x)  # the logs are taken on the support only, as scipy does
        lp = special.xlog1py(self.b - 1.0, -x) + special.xlogy(self.a - 1.0, x)
        return np.where(outside, -np.inf, lp - special.betaln(self.a, self.b))


@dataclass(frozen=True)
class Uniform01Dist:
    def sample(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return rng.random(m)[:, None]

    def logpdf(self, pts: np.ndarray) -> np.ndarray:
        inside = (pts[:, 0] >= 0.0) & (pts[:, 0] <= 1.0)
        return np.where(inside, 0.0, -np.inf)


@dataclass(frozen=True)
class GaussianDist:
    mean: np.ndarray  # (d,)
    var: np.ndarray   # (d,) diagonal covariance

    def sample(self, rng: np.random.Generator, m: int) -> np.ndarray:
        d = self.mean.shape[0]
        return rng.standard_normal((m, d)) * np.sqrt(self.var) + self.mean

    def logpdf(self, pts: np.ndarray) -> np.ndarray:
        z2 = (pts - self.mean) ** 2 / self.var
        return -0.5 * np.sum(z2 + np.log(2.0 * np.pi * self.var), axis=1)


@dataclass(frozen=True)
class LaplaceDist:
    loc: np.ndarray    # (d,)
    scale: np.ndarray  # (d,) the classical b parameter

    def sample(self, rng: np.random.Generator, m: int) -> np.ndarray:
        # inverse CDF from a uniform on (-1/2, 1/2)
        d = self.loc.shape[0]
        v = rng.random((m, d)) - 0.5
        return self.loc - self.scale * np.sign(v) * np.log1p(-2.0 * np.abs(v))

    def logpdf(self, pts: np.ndarray) -> np.ndarray:
        return np.sum(-np.abs(pts - self.loc) / self.scale - np.log(2.0 * self.scale), axis=1)


@dataclass(frozen=True)
class SyntheticModel:
    id: int
    d: int
    p1: object
    p2: object


def _laplace(loc, variance) -> LaplaceDist:
    """Laplace with the given variance per coordinate: Var = 2 b^2."""
    loc = np.atleast_1d(np.asarray(loc, dtype=float))
    return LaplaceDist(loc, np.full_like(loc, np.sqrt(float(variance) / 2.0)))


# model id -> the dimension and the numerator and denominator densities, built
# on each call; Gaussian rows are (mean, variance), and the Laplace second
# parameter is a variance too
_MODELS = {
    1: lambda: (1, BetaDist(0.5, 0.5), Uniform01Dist()),
    2: lambda: (1, BetaDist(2.0, 2.0), Uniform01Dist()),
    3: lambda: (1, BetaDist(2.0, 2.0), BetaDist(0.5, 0.5)),
    4: lambda: (1, GaussianDist(np.array([2.0]), np.array([0.25])),
                GaussianDist(np.array([1.0]), np.array([0.5]))),
    5: lambda: (1, _laplace([2.0], 0.25), _laplace([1.0], 0.5)),
    6: lambda: (20, GaussianDist(np.eye(20)[0], np.ones(20)),
                GaussianDist(np.zeros(20), np.ones(20))),
    7: lambda: (20, _laplace(np.eye(20)[0], 1.0), _laplace(np.zeros(20), 1.0)),
}
MODEL_IDS = tuple(_MODELS)


def make_model(model_id: int) -> SyntheticModel:
    """The built-in generator pair with the given id, one of MODEL_IDS."""
    if model_id not in _MODELS:
        raise ValueError(f"unknown model id {model_id}")
    return SyntheticModel(model_id, *_MODELS[model_id]())


def sample_model(model: SyntheticModel, m: int, seed: int) -> tuple[SampleSet, SampleSet]:
    """m i.i.d. draws from each density from one seeded PCG64 stream (p1 first)."""
    if m < 1:
        raise ValueError("m must be at least 1")
    rng = np.random.default_rng(seed)
    num = model.p1.sample(rng, m)
    den = model.p2.sample(rng, m)
    return SampleSet(num), SampleSet(den)


def true_ratio(model: SyntheticModel, points) -> np.ndarray:
    """p1/p2 at raw points, computed as exp of the log-density difference."""
    pts = as_points(points)
    lp1 = model.p1.logpdf(pts)
    lp2 = model.p2.logpdf(pts)
    if np.any(lp2 < _P2_FLOOR_LOG):
        raise DensityUnderflowError("denominator density underflows at a query point")
    return np.exp(lp1 - lp2)


def nrmse(estimate, truth) -> float:
    """||r - r0||_2 / ||r0||_2."""
    est = np.asarray(estimate, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape:
        raise ValueError("estimate and truth must have equal lengths")
    denom = np.linalg.norm(tru)
    if denom == 0.0:
        raise ValueError("truth vector has zero norm")
    return float(np.linalg.norm(est - tru) / denom)


@dataclass(frozen=True)
class ExperimentRecord:
    model_id: int
    m: int
    method: Method
    draw: int
    seed: int
    gamma: float | None
    sigma2: float | None
    nrmse: float | None
    status: str  # "ok" | "failed"
    message: str = ""


def run_draw(model: SyntheticModel, m: int, method: Method, seed: int, plan: CvPlan,
             margin: float = 0.0, nonneg: bool = False) -> ExperimentRecord:
    """One draw: sample, scale, cross-validate, fit, evaluate NRMSE at the
    denominator points."""
    num, den = sample_model(model, m, seed)
    box = fit_domain_box(num, den, margin=margin)
    s = scale(num, den, box)
    report = cross_validate(s, method, replace(plan, seed=seed))
    if nonneg and method is Method.DRE_V:
        pred = dre_v_nonneg_values(s, report.selected_gamma)
    else:
        pred = report.estimate.predict(den.points)
    truth = true_ratio(model, den.points)
    return ExperimentRecord(
        model_id=model.id, m=m, method=method, draw=0, seed=seed,
        gamma=report.selected_gamma, sigma2=report.selected_sigma2,
        nrmse=nrmse(pred, truth), status="ok",
    )


def run_experiment(model_id: int, m: int, method: Method, draws: int, plan: CvPlan,
                   base_seed: int, margin: float = 0.0,
                   nonneg: bool = False) -> list[ExperimentRecord]:
    """Independent draws with derived seeds base_seed + draw index. A draw that
    raises one of the library's errors for an input it cannot estimate
    (SelectionError, SingularSystemError, OutOfBoxError,
    DensityUnderflowError) is recorded as failed rather than aborting the
    batch; any other exception propagates."""
    model = make_model(model_id)
    records = []
    for draw in range(draws):
        seed = base_seed + draw
        try:
            rec = replace(run_draw(model, m, method, seed, plan, margin, nonneg), draw=draw)
        except _DRAW_ERRORS as exc:
            rec = ExperimentRecord(model_id, m, method, draw, seed, None, None, None,
                                   "failed", f"{type(exc).__name__}: {exc}")
        records.append(rec)
    return records


def aggregate(records) -> dict:
    """Per-cell mean/std (sample std, n-1) over successful draws plus failure counts."""
    cells = {}
    for rec in records:
        cells.setdefault((rec.model_id, rec.m, rec.method), []).append(rec)
    out = {}
    for key, recs in sorted(cells.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].value)):
        vals = np.array([r.nrmse for r in recs if r.status == "ok"], dtype=float)
        out[key] = {
            "mean": float(np.mean(vals)) if vals.size else None,
            "std": float(np.std(vals, ddof=1)) if vals.size > 1 else (0.0 if vals.size else None),
            "draws": len(recs),
            "failures": sum(1 for r in recs if r.status != "ok"),
        }
    return out
