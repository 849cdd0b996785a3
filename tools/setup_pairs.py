"""Compare the benchmark's setup time of two checkouts, such as a parent and a change.

Runs `benchmarks/run.py --probe-setup` of each checkout in a fresh
interpreter, alternating PARENT and CHANGE for N pairs so that both sides
see the same drift of a shared machine, and times each probe the way the
benchmark's `setup_s` does: from starting the process until it prints
"ready". Prints each side's median and quartiles, and the pairs in which
CHANGE was faster:

    python3 tools/setup_pairs.py PARENT CHANGE [--pairs N] [--workload W] [--seed S]

Exits 1 if a probe fails, and 0 otherwise.
"""

import argparse
import statistics
import subprocess
import sys
import time
from pathlib import Path


def probe(checkout: Path, workload: str, seed: int) -> float:
    """Seconds from starting `checkout`'s setup probe until it said "ready"."""
    cmd = [sys.executable, str(checkout / "benchmarks" / "run.py"), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if line != "ready" or code != 0:
        raise RuntimeError(f"setup probe of {checkout} failed (exit {code}, said {line!r})")
    return elapsed


def summary(parent: list[float], change: list[float]) -> list[str]:
    """One line per side with its median and quartiles, and one with the
    pairs in which the change was faster."""
    lines = []
    for name, times in (("parent", parent), ("change", change)):
        q1, median, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        lines.append(f"{name}: median {median:.3f} s, quartiles {q1:.3f}-{q3:.3f} s "
                     f"over {len(times)} probes")
    faster = sum(c < p for p, c in zip(parent, change))
    lines.append(f"change faster in {faster} of {len(parent)} pairs")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--workload", default="paper-1d")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    parent, change = [], []
    try:
        for _ in range(args.pairs):
            parent.append(probe(args.parent.resolve(), args.workload, args.seed))
            change.append(probe(args.change.resolve(), args.workload, args.seed))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(summary(parent, change)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
