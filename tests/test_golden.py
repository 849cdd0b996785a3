"""Golden regression: the seed-0 outputs of a reduced paper table.

Models 1-7 at their smallest `vratio run` size (m = 50 in 1-D, m = 100 in
20-D) with all four methods, plus models 1-5 at m = 50 with the nonnegative
DRE-V fit, 3 draws each. Status, NRMSE and the selected gamma and sigma2 of
every draw must match `golden_seed0.json` to GOLDEN_RTOL.

Regenerate the file only for an intended change of the outputs:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
from pathlib import Path

import pytest

from vratio.bench import run_experiment
from vratio.estimators import Method
from vratio.selection import CvPlan

GOLDEN = Path(__file__).with_name("golden_seed0.json")
GOLDEN_RTOL = 1e-9
DRAWS = 3
CASES = (
    [(mid, 50 if mid <= 5 else 100, meth.value, False) for mid in range(1, 8) for meth in Method]
    + [(mid, 50, Method.DRE_V.value, True) for mid in range(1, 6)]
)


def case_key(model_id, m, method, nonneg):
    return f"m{model_id}/n{m}/{method}" + ("/nonneg" if nonneg else "")


def run_case(model_id, m, method, nonneg) -> list:
    records = run_experiment(model_id, m, Method(method), DRAWS, CvPlan(), base_seed=0,
                             nonneg=nonneg)
    return [{"status": r.status, "nrmse": r.nrmse, "gamma": r.gamma, "sigma2": r.sigma2}
            for r in records]


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return math.isclose(got, want, rel_tol=GOLDEN_RTOL, abs_tol=0.0)


@pytest.mark.parametrize("case", CASES, ids=lambda c: case_key(*c))
def test_golden_outputs(case):
    want = json.loads(GOLDEN.read_text())[case_key(*case)]
    got = run_case(*case)
    assert len(got) == len(want)
    for draw, (g, w) in enumerate(zip(got, want)):
        assert g["status"] == w["status"], f"draw {draw}"
        for field in ("nrmse", "gamma", "sigma2"):
            assert _close(g[field], w[field]), f"draw {draw} {field}: {g[field]!r} != {w[field]!r}"


if __name__ == "__main__":
    golden = {case_key(*case): run_case(*case) for case in CASES}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
