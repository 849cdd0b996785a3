"""Compare the draws of two benchmark runs, such as a parent and a change.

Reads two `benchmarks/out/<workload>-seed<n>-trace0.json` files and pairs
their draws by key; draws that only one run reached are left out. A gamma
or sigma2 counts as changed when it moves by more than ROUNDING_RTOL
relative, or to or from None: a move to another grid point. A smaller move
is rounding of the same grid point, such as a gamma scale summed in
another order. Prints each common draw whose status changed or whose gamma
or sigma2 changed; then, if any value moved by rounding, one line with
their count and the largest relative shift; then one summary line: the
common draws, the changed selections, the NRMSEs identical by repr and the
largest relative NRMSE difference. Exits 1 if a selection or a status
changed or if no key is common, and 0 otherwise:

    python3 tools/compare_draws.py A.json B.json
"""

import json
import math
import sys

GRID = ("gamma", "sigma2")
# the grids step by factors of 1.5 and more; a float sum in another order
# moves a value by a few eps
ROUNDING_RTOL = 1e-12


def load_draws(path: str) -> dict:
    with open(path) as fh:
        return {draw["key"]: draw for draw in json.load(fh)["draws"]}


def relative_difference(a, b) -> float:
    """|a - b| over the larger magnitude; 0 for equal values, NaN without two numbers."""
    if a is None or b is None or not (math.isfinite(a) and math.isfinite(b)):
        return math.nan
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/compare_draws.py A.json B.json", file=sys.stderr)
        return 2
    first, second = (load_draws(path) for path in argv)
    common = [key for key in first if key in second]
    changed = identical = rounded = 0
    largest = largest_rounding = 0.0
    for key in common:
        a, b = first[key], second[key]
        moved = [f"status {a['status']!r} -> {b['status']!r}"] if a["status"] != b["status"] else []
        for name in GRID:
            if repr(a[name]) == repr(b[name]):
                continue
            shift = relative_difference(a[name], b[name])
            if shift <= ROUNDING_RTOL:
                rounded += 1
                largest_rounding = max(largest_rounding, shift)
            else:  # also a None or NaN on either side, where shift is NaN
                moved.append(f"{name} {a[name]!r} -> {b[name]!r}")
        if moved:
            changed += 1
            print(f"{key}: {', '.join(moved)}")
        identical += repr(a["nrmse"]) == repr(b["nrmse"])
        diff = relative_difference(a["nrmse"], b["nrmse"])
        if not math.isnan(diff):
            largest = max(largest, diff)
    if rounded:
        print(f"{rounded} gamma or sigma2 values moved by rounding (at most {ROUNDING_RTOL:g} "
              f"relative), largest relative shift {largest_rounding:.3g}")
    print(f"{len(common)} common draws, {changed} changed selections, "
          f"{identical} NRMSEs identical by repr, largest relative NRMSE difference {largest:.3g}")
    return 1 if changed or not common else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
