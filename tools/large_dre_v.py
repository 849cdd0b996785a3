"""Cross-validate 1-D DRE-V on large samples of the benchmark's models.

For each model and seed, draws m points from each density of that model
(vratio.bench.sample_model), scales both to their box and runs
cross_validate for DRE-V with the default plan, on one BLAS thread. Prints
one line per sample: the candidates, how many failed, the wall time and the
process's peak RSS so far (getrusage):

    python3 tools/large_dre_v.py [--m 100000] [--models 2] [--seeds 0] [--max-rss-mb 600]

Exits 1 if any candidate fails or the peak RSS exceeds --max-rss-mb, and 0
otherwise. The models must be 1-D (1 to 5).
"""

import argparse
import os
import resource
import sys
import time
from pathlib import Path

# one BLAS thread, as the benchmark runs; set before numpy loads OpenBLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vratio import bench, domain  # noqa: E402
from vratio.estimators import Method  # noqa: E402
from vratio.selection import CvPlan, SelectionError, cross_validate  # noqa: E402


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=100_000)
    parser.add_argument("--models", type=int, nargs="+", default=[2], choices=[1, 2, 3, 4, 5])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--max-rss-mb", type=float, default=600.0)
    args = parser.parse_args(argv)
    ok = True
    for model_id in args.models:
        for seed in args.seeds:
            num, den = bench.sample_model(bench.make_model(model_id), args.m, seed)
            s = domain.scale(num, den, domain.fit_domain_box(num, den))
            t0 = time.perf_counter()
            try:
                report = cross_validate(s, Method.DRE_V, CvPlan(seed=seed))
                counts = (len(report.candidates), report.failures)
            except SelectionError:  # every candidate failed
                counts = (len(CvPlan().gamma_grid),) * 2
            seconds = time.perf_counter() - t0
            rss = peak_rss_mb()
            ok &= counts[1] == 0 and rss <= args.max_rss_mb
            print(f"model {model_id} seed {seed} m {args.m}: {counts[0]} candidates, "
                  f"{counts[1]} failed, {seconds:.1f} s, peak RSS {rss:.0f} MB", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
