"""Tests of the benchmark harness itself (tracer, workloads, checks, metric names).

They use a tiny workload so they run in a few seconds:

    PYTHONPATH=src python -m pytest -q benchmarks
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import vratio.estimators  # noqa: E402
import vratio.kernels  # noqa: E402
import vratio.selection  # noqa: E402
from vratio.domain import DomainBox, ScaledSamples  # noqa: E402

TINY = workloads.Workload(
    "tiny",
    lambda seed, r: (workloads._cell_draws("run", seed, r, 2, 30, workloads.ALL_METHODS)
                     + workloads._cell_draws("fit", seed, r, 1, 30, ("dre-vk-ink",))),
    max_rounds=2, trace_rounds=1,
)


def _span(layer, name, start, end, parent):
    return [layer, name, start, end, parent, "d0", ""]


def test_self_time_is_duration_minus_children():
    spans = [
        _span("selection", "cross_validate", 0.0, 10.0, -1),
        _span("solve", "solve_regularized", 1.0, 4.0, 0),
        _span("solve", "PsdPencilSolver.solve", 2.0, 3.0, 1),
        _span("kernels", "cross_gram", 5.0, 7.0, 0),
        _span("bench", "nrmse", 11.0, 12.0, -1),
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.0]
    metrics = tracing.layer_metrics(spans, tracing.collections.Counter())
    assert metrics["selection.self_s"] == 5.0
    assert metrics["solve.self_s"] == 3.0
    assert metrics["solve.calls"] == 1  # the nested solve call stays inside the layer
    assert metrics["kernels.self_s"] == 2.0
    assert metrics["selection.solves_per_cv"] == 1.0


def _scaled(seed=0, n=25):
    rng = np.random.default_rng(seed)
    return ScaledSamples(rng.random((n, 1)), rng.random((n, 1)), DomainBox([0.0], [1.0]))


def test_traced_self_times_add_up_to_root_spans():
    s = _scaled()
    spec = vratio.estimators.kernel_spec_for(vratio.estimators.Method.DRE_VK_INK, 1)
    with tracing.Tracer() as tracer:
        vratio.estimators.fit_dre_vk(s, spec, 0.1)
    spans = tracer.spans
    assert spans[0][tracing.NAME] == "fit_dre_vk"
    roots = sum(sp[tracing.END] - sp[tracing.START] for sp in spans if sp[tracing.PARENT] < 0)
    assert sum(tracing.self_times(spans)) == pytest.approx(roots, rel=1e-9)
    layers = {sp[tracing.LAYER] for sp in spans}
    assert {"estimators", "vmatrix", "kernels", "solve"} <= layers
    assert tracer.counts["solve.lu_factor_calls"] == 1
    assert tracer.counts["kernels.entries"] == 25 * 25


def test_every_binding_is_patched_then_restored():
    before = tracing.bindings()
    names = [(vratio.selection, "solve_regularized"), (vratio.estimators, "cross_v"),
             (vratio.selection, "cross_gram"), (vratio.kernels, "cross_gram"),
             (vratio, "cross_validate"), (scipy.linalg, "lu_factor"), (scipy.linalg, "eigh")]
    originals = [getattr(owner, attr) for owner, attr in names]
    predict = vratio.estimators.RatioEstimate.predict
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            for (owner, attr), original in zip(names, originals):
                assert getattr(owner, attr) is not original
            assert vratio.estimators.RatioEstimate.predict is not predict
            raise ZeroDivisionError
    for (owner, attr), original in zip(names, originals):
        assert getattr(owner, attr) is original
    assert vratio.estimators.RatioEstimate.predict is predict
    assert tracing.bindings() == before


def test_same_seed_same_inputs_other_seed_other_inputs():
    runner = workloads.Runner()
    for workload in list(workloads.WORKLOADS.values()) + [TINY]:
        first, again, other = (workload.draws(seed, 1) for seed in (5, 5, 6))
        assert first == again
        assert [d.seed for d in first] != [d.seed for d in other]
        a, b, c = (runner.sample(draws[0])[0].points for draws in (first, again, other))
        runner.new_round()
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_emitted_metric_names_are_declared(monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = run.declared_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    monkeypatch.setattr(run, "measure_setup", lambda name, seed: 1.0)
    _, _, res, _ = run.untraced_run(TINY, 3, 0.01, declared["end_to_end"])
    assert list(res["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    _, _, res, _ = run.traced_run(TINY, 3, declared["per_layer"])
    assert list(res["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert res["failed"] == 0


def test_traced_counters_repeat_exactly():
    declared = run.declared_metrics()["per_layer"]
    counts = []
    for _ in range(2):
        outputs, runner, res, _ = run.traced_run(TINY, 4, declared)
        assert run.check(outputs, runner, TINY, 4) == []
        counts.append({k: v["value"] for k, v in res["metrics"].items()
                       if not k.endswith("_s") and k != "trace.overhead_frac"})
    assert counts[0] == counts[1]
    assert counts[0]["solve.lu_factor_calls"] > 0
    assert counts[0]["selection.cv_calls"] == 5


def test_checks_catch_wrong_outputs():
    runner = workloads.Runner()
    draws = TINY.by_key(7)
    outputs = [runner.execute(d, run.clock)[0] for d in TINY.draws(7, 0)]
    reference = {o["key"]: {k: o[k] for k in ("nrmse", "gamma", "sigma2", "status")}
                 for o in outputs}
    assert workloads.check_by_recompute(outputs, runner, draws) == []
    assert workloads.check_against_reference(outputs, reference) == []
    outputs[0]["nrmse"] *= 1.0 + 1e-8
    assert len(workloads.check_against_reference(outputs, reference)) == 1
    outputs[1]["nrmse"] *= 1.0 + 1e-4
    assert len(workloads.check_by_recompute(outputs, runner, draws)) == 1
