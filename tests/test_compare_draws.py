import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_draws.py"


def draw(key, gamma=0.5, sigma2=None, nrmse=0.25, status="ok"):
    return {"key": key, "gamma": gamma, "sigma2": sigma2, "nrmse": nrmse, "status": status}


def run_tool(tmp_path, first, second) -> tuple[int, list[str]]:
    paths = []
    for name, draws in (("a.json", first), ("b.json", second)):
        path = tmp_path / name
        path.write_text(json.dumps({"workload": "tiny", "seed": 7, "draws": draws}))
        paths.append(path)
    proc = subprocess.run([sys.executable, str(TOOL), *map(str, paths)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout.splitlines()


def test_identical_draws_pass_and_unpaired_keys_are_left_out(tmp_path):
    first = [draw("r0/a"), draw("r0/b", sigma2=0.3), draw("r1/a")]
    second = [draw("r0/b", sigma2=0.3), draw("r0/a")]
    code, lines = run_tool(tmp_path, first, second)
    assert code == 0
    assert lines == ["2 common draws, 0 changed selections, 2 NRMSEs identical by repr, "
                     "largest relative NRMSE difference 0"]


def test_nrmse_rounding_is_counted_but_passes(tmp_path):
    code, lines = run_tool(tmp_path, [draw("r0/a"), draw("r0/b", nrmse=0.5)],
                           [draw("r0/a", nrmse=0.25 * (1 + 2**-50)), draw("r0/b", nrmse=0.5)])
    assert code == 0
    assert lines == ["2 common draws, 0 changed selections, 1 NRMSEs identical by repr, "
                     "largest relative NRMSE difference 8.88e-16"]


def test_changed_selection_or_status_fails_and_is_printed(tmp_path):
    first = [draw("r0/a"), draw("r0/b", sigma2=0.3), draw("r0/c")]
    second = [draw("r0/a", gamma=0.25), draw("r0/b", sigma2=0.6),
              draw("r0/c", gamma=None, nrmse=None, status="failed")]
    code, lines = run_tool(tmp_path, first, second)
    assert code == 1
    assert lines == [
        "r0/a: gamma 0.5 -> 0.25",
        "r0/b: sigma2 0.3 -> 0.6",
        "r0/c: status 'ok' -> 'failed', gamma 0.5 -> None",
        "3 common draws, 3 changed selections, 2 NRMSEs identical by repr, "
        "largest relative NRMSE difference 0",
    ]


def test_no_common_key_fails(tmp_path):
    code, lines = run_tool(tmp_path, [draw("r0/a")], [draw("r1/a")])
    assert code == 1
    assert lines == ["0 common draws, 0 changed selections, 0 NRMSEs identical by repr, "
                     "largest relative NRMSE difference 0"]


def test_a_shift_within_the_rounding_bound_is_reported_but_passes(tmp_path):
    first = [draw("r0/a"), draw("r0/b", sigma2=0.3), draw("r0/c")]
    second = [draw("r0/a", gamma=0.5 * (1 + 2**-50)), draw("r0/b", sigma2=0.3 * (1 + 5e-13)),
              draw("r0/c")]
    code, lines = run_tool(tmp_path, first, second)
    assert code == 0
    assert lines == [
        "2 gamma or sigma2 values moved by rounding (at most 1e-12 relative), "
        "largest relative shift 5e-13",
        "3 common draws, 0 changed selections, 3 NRMSEs identical by repr, "
        "largest relative NRMSE difference 0",
    ]


def test_a_shift_beyond_the_rounding_bound_is_a_changed_selection(tmp_path):
    first = [draw("r0/a"), draw("r0/b", sigma2=0.3)]
    second = [draw("r0/a", gamma=0.5 * (1 + 3e-12)), draw("r0/b", sigma2=0.3 * (1 + 1e-15))]
    code, lines = run_tool(tmp_path, first, second)
    assert code == 1
    assert lines == [
        f"r0/a: gamma 0.5 -> {0.5 * (1 + 3e-12)!r}",
        "1 gamma or sigma2 values moved by rounding (at most 1e-12 relative), "
        "largest relative shift 1.11e-15",
        "2 common draws, 1 changed selections, 2 NRMSEs identical by repr, "
        "largest relative NRMSE difference 0",
    ]
