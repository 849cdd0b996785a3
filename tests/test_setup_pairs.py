import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import setup_pairs  # noqa: E402

TOOL = Path(setup_pairs.__file__)


def test_summary_gives_each_sides_median_and_quartiles_and_the_faster_pairs():
    parent = [0.50, 0.40, 0.70, 0.60, 0.45]
    change = [0.41, 0.48, 0.55, 0.52, 0.45]
    assert setup_pairs.summary(parent, change) == [
        "parent: median 0.500 s, quartiles 0.425-0.650 s over 5 probes",
        "change: median 0.480 s, quartiles 0.430-0.535 s over 5 probes",
        "change faster in 3 of 5 pairs",
    ]


def test_summary_of_one_pair():
    assert setup_pairs.summary([0.5], [0.5]) == [
        "parent: median 0.500 s, quartiles 0.500-0.500 s over 1 probes",
        "change: median 0.500 s, quartiles 0.500-0.500 s over 1 probes",
        "change faster in 0 of 1 pairs",
    ]


def fake_checkout(root: Path, said: str) -> Path:
    """A checkout whose setup probe prints `said`."""
    (root / "benchmarks").mkdir(parents=True)
    (root / "benchmarks" / "run.py").write_text(f"print({said!r}, flush=True)\n")
    return root


def run_tool(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True)


def test_pairs_of_probes_are_run_and_summarised(tmp_path):
    parent = fake_checkout(tmp_path / "parent", "ready")
    change = fake_checkout(tmp_path / "change", "ready")
    proc = run_tool(parent, change, "--pairs", 2, "--workload", "paper-20d", "--seed", 3)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["parent", "change"]
    assert all(line.endswith("over 2 probes") for line in lines[:2])
    assert lines[2].startswith("change faster in ") and lines[2].endswith(" of 2 pairs")


def test_a_failed_probe_exits_1(tmp_path):
    parent = fake_checkout(tmp_path / "parent", "ready")
    change = fake_checkout(tmp_path / "change", "not ready")
    proc = run_tool(parent, change, "--pairs", 1)
    assert proc.returncode == 1
    assert "said 'not ready'" in proc.stderr
