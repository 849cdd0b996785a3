import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "low_rank_crossover.py"


def test_low_rank_crossover_prints_a_row_per_solve_and_a_crossover_per_solver():
    out = subprocess.run([sys.executable, str(TOOL), "--sizes", "12", "16", "--repeat", "1"],
                         check=True, capture_output=True, text=True).stdout.splitlines()
    header, rows = out[0].split(), [line.split() for line in out[1:] if line[:3] in ("ink", "rbf")]
    crossovers = [line for line in out if line.startswith("crossover ")]
    assert header[:6] == ["kernel", "solver", "n", "sigma2", "rank", "rank/n"]
    assert len(rows) == len(out) - 1 - len(crossovers)
    # per size one INK solve, and one solve per sigma2 of each RBF solver
    for n in ("12", "16"):
        count = [sum(row[0] == kind and row[1] == solver and row[2] == n for row in rows)
                 for kind, solver in (("ink", "product_many"), ("rbf", "product"),
                                      ("rbf", "ridge_square"))]
        assert count[0] == 1 and count[1] == count[2] > 1
    assert sorted({(kind, solver) for kind, solver, *_ in rows}) == [
        ("ink", "product_many"), ("rbf", "product"), ("rbf", "ridge_square")]
    for kind, solver, n, sigma2, rank, frac, low, dense, ratio in rows:
        assert int(n) in (12, 16) and 0 <= int(rank) <= int(n)
        assert (sigma2 == "-") == (kind == "ink") and 0.0 <= float(frac) <= 1.0
        assert float(low) > 0.0 and float(dense) > 0.0
    assert len(crossovers) == 6
    assert all(": low-rank faster up to rank/n " in line and ", slower from " in line
               for line in crossovers)
