import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "large_dre_v.py"


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), "--m", "300", *args],
                          capture_output=True, text=True)


def test_large_dre_v_prints_a_line_per_sample_and_checks_the_peak_rss():
    done = run_tool("--models", "1", "2", "--seeds", "0")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["model 1 seed 0 m 300",
                                                      "model 2 seed 0 m 300"]
    assert all(": 15 candidates, 0 failed, " in line and " MB" in line for line in lines)
    # no process fits in 1 MB
    assert run_tool("--max-rss-mb", "1").returncode == 1
