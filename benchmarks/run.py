#!/usr/bin/env python3
"""Benchmark of the vratio density-ratio estimators.

Runs the library in-process on generated inputs and prints, as its last
stdout line, one JSON object with the keys correct, attempted, failed and
metrics. See README.md in this directory for workloads and metrics.

    python3 benchmarks/run.py --workload paper-1d --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload paper-1d --seed 1 --seconds 30 --trace 1
    python3 benchmarks/run.py --workload all --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --write-reference
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
clock = time.perf_counter


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def declared_metrics() -> dict:
    """Metric name -> unit for each section of BENCHMARK.json."""
    spec = json.loads(SPEC.read_text())
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time from starting a fresh interpreter until it could run its
    first draw (imports plus input generation), over SETUP_PROBES processes."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = clock()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = clock() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
        times.append(elapsed)
    return statistics.median(times)


def run_rounds(runner, workload, seed, *, rounds=None, seconds=None, tracer=None, first=0):
    """Run whole rounds from round `first` on: exactly `rounds` of them, or until
    `seconds` have passed.

    Returns per-draw outputs, per-draw seconds, per-round seconds and CPU seconds.
    """
    outputs, times, round_times = [], [], []
    start, cpu0 = clock(), time.process_time()
    while True:
        runner.new_round()
        t0 = clock()
        for draw in workload.draws(seed, first + len(round_times)):
            if tracer is not None:
                tracer.draw = draw.key
            out, dt = runner.execute(draw, clock)
            outputs.append(out)
            times.append(dt)
        round_times.append(clock() - t0)
        if len(round_times) == rounds or (rounds is None and clock() - start >= seconds):
            break
    return outputs, times, round_times, time.process_time() - cpu0


def warm_up(runner, workload):
    """Run each method of the workload once on a small sample, so lazy imports
    and first-call costs are paid before timing."""
    from workloads import Draw

    for d in workload.draws(0, 0):
        runner.execute(Draw("warm-up", d.kind, 2, 40, d.method, 12345), clock)


def check(outputs, runner, workload, seed) -> list:
    import workloads

    errors = workloads.check_by_recompute(outputs, runner, workload.by_key(seed))
    if seed == workloads.DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())["workloads"][workload.name]
        errors += workloads.check_against_reference(outputs, reference)
    return errors


def write_outputs(name: str, payload: dict):
    with open(OUT / name, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def result(outputs, metrics: dict, units: dict) -> dict:
    missing = set(units) - set(metrics)
    extra = set(metrics) - set(units)
    if missing or extra:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {sorted(missing)}, "
                           f"undeclared {sorted(extra)}")
    return {
        "correct": True,
        "attempted": len(outputs),
        "failed": sum(out["status"] != "ok" for out in outputs),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def nrmse_mean(outputs) -> float:
    values = [out["nrmse"] for out in outputs if out["status"] == "ok"]
    return statistics.fmean(values) if values else float("nan")


def untraced_run(workload, seed: int, seconds: float, units: dict):
    from workloads import Runner

    setup_s = measure_setup(workload.name, seed)
    runner = Runner()
    warm_up(runner, workload)
    outputs, times, round_times, cpu = run_rounds(runner, workload, seed, seconds=seconds)
    wall = sum(round_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": setup_s,
        "draws_per_s": len(outputs) / wall,
        "cpu_s_per_draw": cpu / len(outputs),
        "peak_rss_mb": peak_rss_mb,
        "nrmse_mean": nrmse_mean(outputs),
    }
    info = {"draws": len(outputs), "wall_s": wall, "cpu_s": cpu, "round_s": round_times,
            "draw_s_p50": statistics.median(times)}
    if len(times) >= 100:
        info["draw_s_p90"] = statistics.quantiles(times, n=10)[-1]
    return outputs, runner, result(outputs, metrics, units), info


def traced_run(workload, seed: int, units: dict, spans_path=None):
    import tracer as tracing
    from workloads import Runner

    runner = Runner()
    warm_up(runner, workload)
    before = tracing.bindings()
    tracer = tracing.Tracer()
    plain, outputs = [], []
    plain_wall = traced_wall = 0.0
    # each round runs untraced and then traced, so both see the same machine speed
    for r in range(workload.trace_rounds):
        out, _, secs, _ = run_rounds(runner, workload, seed, rounds=1, first=r)
        plain += out
        plain_wall += secs[0]
        with tracer:
            out, _, secs, _ = run_rounds(runner, workload, seed, rounds=1, first=r, tracer=tracer)
        outputs += out
        traced_wall += secs[0]
    if tracing.bindings() != before:
        raise RuntimeError("the tracer left a patched binding behind")
    if outputs != plain:
        raise RuntimeError("traced and untraced passes gave different outputs")
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    # traced minus untraced draws_per_s, over untraced, on the same draws
    metrics["trace.overhead_frac"] = plain_wall / traced_wall - 1.0
    if spans_path is not None:
        tracing.write_spans(spans_path, tracer.spans)
    info = {"draws": len(outputs), "spans": len(tracer.spans),
            "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall}
    return outputs, runner, result(outputs, metrics, units), info


def run_workload(args) -> int:
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.probe_setup:
        workload.draws(args.seed, 0)
        print("ready", flush=True)
        return 0
    units = declared_metrics()
    env = environment()
    OUT.mkdir(exist_ok=True)
    if args.trace:
        outputs, runner, res, info = traced_run(
            workload, args.seed, units["per_layer"],
            spans_path=OUT / f"{workload.name}-seed{args.seed}-spans.tsv.gz")
    else:
        outputs, runner, res, info = untraced_run(workload, args.seed, args.seconds,
                                                  units["end_to_end"])
    write_outputs(f"{workload.name}-seed{args.seed}-trace{int(args.trace)}.json",
                  {"workload": workload.name, "seed": args.seed, "environment": env,
                   "info": info, "result": res, "draws": outputs})
    errors = check(outputs, runner, workload, args.seed)
    if errors:
        print(f"error: {len(errors)} draw outputs are wrong:", file=sys.stderr)
        for err in errors[:20]:
            print(f"  {err}", file=sys.stderr)
        return 1
    print("environment " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    for name, metric in res["metrics"].items():
        print(f"{workload.name:<13} {name:<28} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(res))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print each metric per workload."""
    import workloads

    code = 0
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        print(f"{name}: attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<28} {m['value']:>16.6g} {m['unit']}")
    return code


def write_reference() -> int:
    """Record every draw of every workload's rounds at the default seed."""
    import workloads

    runner = workloads.Runner()
    payload = {"seed": workloads.DEFAULT_SEED, "rtol": workloads.REFERENCE_RTOL,
               "environment": environment(), "workloads": {}}
    for name, workload in workloads.WORKLOADS.items():
        outputs, _, round_times, _ = run_rounds(runner, workload, workloads.DEFAULT_SEED,
                                                rounds=workload.max_rounds)
        errors = workloads.check_by_recompute(outputs, runner,
                                              workload.by_key(workloads.DEFAULT_SEED))
        errors += [f"{o['key']}: {o['message']}" for o in outputs if o["status"] != "ok"]
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
        payload["workloads"][name] = {
            o["key"]: {k: o[k] for k in ("nrmse", "gamma", "sigma2", "status")} for o in outputs
        }
        print(f"{name}: {len(outputs)} draws in {sum(round_times):.1f} s")
    REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json from the current program")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vratio" / "__init__.py").is_file():
        print(f"error: the vratio sources are missing ({SRC / 'vratio'} not found); "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        return write_reference()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    # The program is measured on one BLAS thread. NumPy is first imported
    # inside main(), after this.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.exit(main())
