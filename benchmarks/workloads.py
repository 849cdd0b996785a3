"""Benchmark workloads: the draws each one runs, how a draw is executed, and the
checks on its outputs.

A workload is an endless sequence of rounds. Round r of a workload run with
seed s is a fixed list of draws whose sample seeds derive from (s, r, model),
so the same seed gives the same inputs and another seed gives other inputs.
The methods of one model in a round share their sample, as in ``vratio run``.
Rounds repeat after ``max_rounds``; the checked-in reference covers those.

All program calls go through module attributes (``bench.run_draw``, not a
local binding) so that the tracer's patches are seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from vratio import bench, domain, selection
from vratio.estimators import Method

DEFAULT_SEED = 0
# per-draw outputs at the default seed must match the reference this closely
REFERENCE_RTOL = 1e-9
# an independent dense recomputation of the final fit must give the program's
# NRMSE this closely; ill-conditioned solves at the smallest gamma lose digits
RECOMPUTE_RTOL = 1e-6
ALL_METHODS = tuple(m.value for m in Method)


@dataclass(frozen=True)
class Draw:
    key: str        # "r<round>/m<model>/<method>", unique within a workload
    kind: str       # "run": vratio.bench.run_draw; "fit": the `vratio fit` path
    model_id: int
    m: int
    method: str
    seed: int       # sample seed, also the CV fold seed of a "run" draw


@dataclass(frozen=True)
class Workload:
    """The reason for each workload is its `why` in BENCHMARK.json."""

    name: str
    round_draws: Callable[[int, int], list]  # (seed, round) -> [Draw]
    max_rounds: int    # rounds before the sequence repeats
    trace_rounds: int  # rounds of a traced run (fixed, so counters repeat exactly)

    def draws(self, seed: int, r: int) -> list:
        return self.round_draws(seed, r % self.max_rounds)

    def by_key(self, seed: int) -> dict:
        return {d.key: d for r in range(self.max_rounds) for d in self.draws(seed, r)}


def sample_seed(seed: int, r: int, model_id: int) -> int:
    return int(np.random.SeedSequence([seed, r, model_id]).generate_state(1)[0])


def _cell_draws(kind, seed, r, model_id, m, methods):
    s = sample_seed(seed, r, model_id)
    return [Draw(f"r{r}/m{model_id}/{meth}", kind, model_id, m, meth, s) for meth in methods]


def _paper_1d(seed, r):
    return [d for mid in (1, 2, 3, 4, 5) for d in _cell_draws("run", seed, r, mid, 200, ALL_METHODS)]


def _paper_20d(seed, r):
    return [d for mid in (6, 7) for d in _cell_draws("run", seed, r, mid, 500, ALL_METHODS)]


def _fit_1d_large(seed, r):
    return _cell_draws("fit", seed, r, 2, 800, ("dre-v", "dre-vk-ink"))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-1d", _paper_1d, max_rounds=16, trace_rounds=4),
        Workload("paper-20d", _paper_20d, max_rounds=4, trace_rounds=1),
        Workload("fit-1d-large", _fit_1d_large, max_rounds=24, trace_rounds=4),
    )
}


class Runner:
    """Executes draws against the program; holds the per-run constant inputs."""

    def __init__(self):
        self.models = {mid: bench.make_model(mid) for mid in range(1, 8)}
        self.run_plan = selection.CvPlan()         # the `vratio run` defaults
        self.fit_plan = selection.CvPlan(k=5, seed=0)  # the `vratio fit` defaults
        self._samples = {}

    def new_round(self):
        self._samples.clear()

    def sample(self, draw: Draw):
        key = (draw.model_id, draw.m, draw.seed)
        if key not in self._samples:
            self._samples[key] = bench.sample_model(self.models[draw.model_id], draw.m, draw.seed)
        return self._samples[key]

    def execute(self, draw: Draw, clock) -> tuple[dict, float]:
        """Run one draw; returns its outputs and its wall time.

        A "fit" draw's sample is made once per round and its NRMSE is
        computed after the clock stops, so the time is the time to weights.
        """
        model = self.models[draw.model_id]
        out = {"key": draw.key, "model": draw.model_id, "m": draw.m, "method": draw.method,
               "seed": draw.seed, "gamma": None, "sigma2": None, "nrmse": None,
               "status": "ok", "message": ""}
        t0 = clock()
        try:
            if draw.kind == "run":
                rec = bench.run_draw(model, draw.m, Method(draw.method), draw.seed, self.run_plan)
                seconds = clock() - t0
                out.update(gamma=rec.gamma, sigma2=rec.sigma2, nrmse=rec.nrmse)
            else:
                num, den = self.sample(draw)
                t0 = clock()
                box = domain.fit_domain_box(num, den, margin=0.0)
                s = domain.scale(num, den, box)
                report = selection.cross_validate(s, Method(draw.method), self.fit_plan)
                weights = report.estimate.predict(den.points)
                seconds = clock() - t0
                out.update(gamma=report.selected_gamma, sigma2=report.selected_sigma2,
                           nrmse=bench.nrmse(weights, bench.true_ratio(model, den.points)))
        except Exception as exc:  # noqa: BLE001 - a failed draw is counted, not fatal
            seconds = clock() - t0
            out.update(status="failed", message=f"{type(exc).__name__}: {exc}")
        return out, seconds


def _close(a, b, rtol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def check_against_reference(outputs: list, reference: dict) -> list:
    """Mismatches between per-draw outputs and the reference of the default seed."""
    errors = []
    for out in outputs:
        ref = reference.get(out["key"])
        if ref is None:
            errors.append(f"{out['key']}: no reference entry")
            continue
        if out["status"] != ref["status"]:
            errors.append(f"{out['key']}: status {out['status']} != reference {ref['status']}")
            continue
        for field in ("nrmse", "gamma", "sigma2"):
            if not _close(out[field], ref[field], REFERENCE_RTOL):
                errors.append(f"{out['key']}: {field} {out[field]!r} != reference {ref[field]!r}")
    return errors


def _overlap(a, b):
    """Overlap volumes prod_k (1 - max(a_k, b_k)) of points in [0,1]^d."""
    return np.prod(1.0 - np.maximum(a[:, None, :], b[None, :, :]), axis=2)


def _ink(a, b):
    lo = np.minimum(a[:, None, :], b[None, :, :])
    prod = a[:, None, :] * b[None, :, :]
    gap = np.abs(a[:, None, :] - b[None, :, :])
    return np.prod(1.0 + prod + 0.5 * gap * lo**2 + lo**3 / 3.0, axis=2)


def _rbf(a, b, sigma2):
    sq = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    return np.exp(-sq / (2.0 * sigma2))


def recompute_nrmse(model, num, den, method: str, gamma: float, sigma2) -> float:
    """NRMSE of the final fit at the selected gamma (and sigma2), recomputed from
    the paper's formulas with plain NumPy, independently of the program's
    scaling, V-matrix, kernel and solver code."""
    x_num, x_den = num.points, den.points
    pooled = np.vstack([x_num, x_den])
    lo, hi = pooled.min(axis=0), pooled.max(axis=0)
    z_num, z_den = (x_num - lo) / (hi - lo), (x_den - lo) / (hi - lo)
    n, ell = len(z_den), len(z_num)
    v_dd = _overlap(z_den, z_den)
    b = (n / ell) * _overlap(z_den, z_num).sum(axis=1)
    if method == "dre-v":
        pred = np.linalg.solve(v_dd + (gamma / n) * np.eye(n), b)
    else:
        K = _ink(z_den, z_den) if method == "dre-vk-ink" else _rbf(z_den, z_den, sigma2)
        if method == "ulsif":
            rhs = (n / ell) * K[:, : min(n, ell)].sum(axis=1)
            alpha = np.linalg.solve(K @ K + gamma * np.eye(n), rhs)
        else:
            alpha = np.linalg.solve(v_dd @ K + gamma * np.eye(n), b)
        pred = K @ alpha
    truth = bench.true_ratio(model, x_den)
    return float(np.linalg.norm(pred - truth) / np.linalg.norm(truth))


def check_by_recompute(outputs: list, runner: Runner, draws: dict) -> list:
    """Mismatches between each successful draw's NRMSE and an independent recomputation."""
    errors = []
    for out in outputs:
        if out["status"] != "ok":
            continue
        draw = draws[out["key"]]
        num, den = bench.sample_model(runner.models[draw.model_id], draw.m, draw.seed)
        want = recompute_nrmse(runner.models[draw.model_id], num, den, draw.method,
                               out["gamma"], out["sigma2"])
        if not _close(out["nrmse"], want, RECOMPUTE_RTOL):
            errors.append(f"{out['key']}: nrmse {out['nrmse']!r} but recomputed {want!r}")
    return errors
