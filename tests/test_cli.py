import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from vratio import bench, cli, selection
from vratio.bench import ExperimentRecord
from vratio.cli import (
    ConfigError,
    ExperimentConfig,
    main,
    parse_config,
    print_table,
    write_csv,
)
from vratio.estimators import Method
from vratio.selection import SelectionError
from vratio.solve import SingularSystemError


def test_parse_config_defaults():
    config = parse_config()
    assert config.models == [1, 2, 3, 4, 5, 6, 7]
    assert config.methods == ["dre-v", "dre-vk-ink", "dre-vk-rbf", "ulsif"]
    assert config.sizes is None
    assert config.draws == 20 and config.folds == 5
    assert config.gamma_scaled is True


def test_parse_config_text_and_overrides():
    text = "models = 2,3\ndraws = 4  # comment\nnonneg = true\n"
    config = parse_config(text, {"draws": 7, "seed": 9})
    assert config.models == [2, 3]
    assert config.draws == 7  # flag beats file
    assert config.seed == 9
    assert config.nonneg is True


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("gamma = 0.1\n")
    with pytest.raises(ConfigError):
        parse_config(None, {"bogus": 1})


def test_parse_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        parse_config("draws = 0\n")
    with pytest.raises(ConfigError):
        parse_config("methods = kliep\n")
    with pytest.raises(ConfigError):
        parse_config("models = 9\n")
    with pytest.raises(ConfigError):
        parse_config("nonneg = maybe\n")
    with pytest.raises(ConfigError):
        parse_config("draws\n")
    for text in ("sigma2_multipliers = 1.0,nan\n", "sigma2_multipliers = inf\n"):
        with pytest.raises(ConfigError, match="sigma2_multipliers must be nonempty, finite"):
            parse_config(text)


def test_config_round_trips_through_text():
    config = parse_config("models = 1,4\nsizes = 60\nmargin = 0.05\nseed = 3\n")
    again = parse_config(config.to_text())
    assert again == config


def test_sizes_for_dimension_defaults():
    config = parse_config()
    assert config.sizes_for(2) == [50, 100, 200]
    assert config.sizes_for(6) == [100, 200, 500]
    assert parse_config("sizes = 75\n").sizes_for(6) == [75]


def test_gamma_grid_from_config():
    config = parse_config("gamma_min = 0.01\ngamma_max = 1.0\ngamma_count = 3\n")
    assert np.allclose(config.plan().gamma_grid, [0.01, 0.1, 1.0])
    single = parse_config("gamma_min = 0.5\ngamma_max = 0.5\ngamma_count = 1\n")
    assert np.allclose(single.plan().gamma_grid, [0.5])


def test_write_csv_exact_layout(tmp_path):
    records = [
        ExperimentRecord(2, 50, Method.DRE_V, 1, 11, 0.5, None, 0.25, "ok"),
        ExperimentRecord(2, 50, Method.DRE_V, 0, 10, None, None, None, "failed",
                         "SelectionError: all 15 candidates failed, e.g. gamma=1"),
    ]
    path = tmp_path / "out.csv"
    write_csv(str(path), records)
    expected = (
        "model,m,method,draw,seed,gamma_selected,sigma2_selected,nrmse,status,message\n"
        '2,50,dre-v,0,10,,,,failed,"SelectionError: all 15 candidates failed, e.g. gamma=1"\n'
        "2,50,dre-v,1,11,0.5,,0.25,ok,\n"
    )
    assert path.read_text() == expected


def test_print_table_smoke():
    records = [ExperimentRecord(2, 50, Method.DRE_V, 0, 0, 0.5, None, 0.3, "ok")]
    config = ExperimentConfig(methods=["dre-v"])
    buf = io.StringIO()
    print_table(config, records, out=buf)
    text = buf.getvalue()
    assert "dre-v" in text and "0.300" in text


def run_args(tmp_path, tag, extra=()):
    return [
        "run", "--models", "2", "--sizes", "40", "--methods", "dre-v,ulsif",
        "--draws", "2", "--seed", "1",
        "--out-csv", str(tmp_path / f"{tag}.csv"),
        "--out-json", str(tmp_path / f"{tag}.json"),
        *extra,
    ]


def test_run_end_to_end_and_deterministic(tmp_path, capsys):
    assert main(run_args(tmp_path, "a")) == 0
    assert main(run_args(tmp_path, "b")) == 0
    capsys.readouterr()
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    assert a == b
    rows = a.decode().strip().splitlines()
    assert rows[0] == (
        "model,m,method,draw,seed,gamma_selected,sigma2_selected,nrmse,status,message")
    assert len(rows) == 1 + 2 * 2  # two methods x two draws
    payload = json.loads((tmp_path / "a.json").read_text())
    assert {c["method"] for c in payload["cells"]} == {"dre-v", "ulsif"}
    # the config echo parses back to the run's settings
    echoed = parse_config(payload["config"])
    assert echoed.models == [2] and echoed.sizes == [40] and echoed.draws == 2


def test_run_writes_failure_message_to_csv(tmp_path, capsys, monkeypatch):
    def all_failed(s, method, plan):
        raise SelectionError(f"all 15 candidates failed to solve ({method.value})")

    monkeypatch.setattr(bench, "cross_validate", all_failed)
    assert main(run_args(tmp_path, "f")) == 1
    capsys.readouterr()
    with open(tmp_path / "f.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["failed"] * 4
    assert {r["message"] for r in rows} == {
        f"SelectionError: all 15 candidates failed to solve ({m})" for m in ("dre-v", "ulsif")}


def test_run_reads_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "models = 2\nsizes = 30\nmethods = dre-v\ndraws = 1\n"
        f"out_csv = {tmp_path / 'c.csv'}\nout_json = {tmp_path / 'c.json'}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert (tmp_path / "c.csv").exists()


def test_run_bad_config_returns_2(tmp_path, capsys):
    assert main(["run", "--models", "99"]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()


def test_run_rejects_more_folds_than_the_smallest_size(tmp_path, capsys):
    code = main(run_args(tmp_path, "k", ["--sizes", "3", "--folds", "5"]))
    assert code == 2
    assert "folds must not exceed the smallest sample size 3" in capsys.readouterr().err
    assert not (tmp_path / "k.csv").exists()
    with pytest.raises(ConfigError):
        parse_config("models = 2,6\nfolds = 60\n")  # default sizes: 50 for 1-D models


def test_fit_command(tmp_path, capsys):
    rng = np.random.default_rng(70)
    num = tmp_path / "num.txt"
    den = tmp_path / "den.txt"
    out = tmp_path / "w.txt"
    np.savetxt(num, rng.normal(1.0, 1.0, size=40))
    np.savetxt(den, rng.normal(0.0, 1.0, size=40))
    code = main(["fit", str(num), str(den), "--method", "dre-vk-ink", "--out", str(out)])
    assert code == 0
    weights = np.loadtxt(out)
    assert weights.shape == (40,)
    assert np.all(np.isfinite(weights))
    assert "selected gamma" in capsys.readouterr().out


def write_fit_inputs(tmp_path, num_text, den_text):
    num, den = tmp_path / "num.txt", tmp_path / "den.txt"
    num.write_text(num_text)
    den.write_text(den_text)
    return [str(num), str(den), "--out", str(tmp_path / "w.txt")]


def assert_reported_error(capsys, code, fragment):
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and fragment in captured.err
    assert "Traceback" not in captured.err


def test_fit_command_rejects_non_finite_points(tmp_path, capsys):
    paths = write_fit_inputs(tmp_path, "0.1\nnan\n0.3\n", "0.2\n0.4\n0.5\n")
    assert_reported_error(capsys, main(["fit", *paths, "--folds", "2"]), "finite")


def test_fit_command_rejects_more_folds_than_points(tmp_path, capsys):
    paths = write_fit_inputs(tmp_path, "0.1\n0.3\n", "0.2\n0.4\n0.5\n")
    assert_reported_error(capsys, main(["fit", *paths]), "--folds")


def test_fit_command_rejects_negative_margin(tmp_path, capsys):
    paths = write_fit_inputs(tmp_path, "0.1\n0.3\n0.6\n", "0.2\n0.4\n0.5\n")
    code = main(["fit", *paths, "--folds", "2", "--margin", "-1"])
    assert_reported_error(capsys, code, "margin must be nonnegative")


def test_fit_command_rejects_infinite_margin(tmp_path, capsys):
    paths = write_fit_inputs(tmp_path, "0.1\n0.3\n0.6\n", "0.2\n0.4\n0.5\n")
    code = main(["fit", *paths, "--folds", "2", "--margin", "inf"])
    assert_reported_error(capsys, code, "margin must be nonnegative and finite")


@pytest.mark.parametrize("num,den,margin", [
    ("1e308\n-1e308\n0\n", "0.5\n-1e308\n1\n", "0"),
    ("0\n10\n5\n", "1\n2\n3\n", "1e308"),
], ids=["range", "margin"])
def test_fit_command_rejects_a_box_without_finite_width(tmp_path, capsys, num, den, margin):
    # the overflow is reported by the error alone, with no RuntimeWarning
    paths = write_fit_inputs(tmp_path, num, den)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["fit", *paths, "--folds", "2", "--margin", margin])
    assert_reported_error(capsys, code, "coordinate 0: the data's box")


def test_fit_command_rejects_files_of_different_dimensions(tmp_path, capsys):
    paths = write_fit_inputs(tmp_path, "0.1\n0.3\n0.6\n", "0.2 0.1\n0.4 0.3\n0.5 0.9\n")
    assert_reported_error(capsys, main(["fit", *paths, "--folds", "2"]),
                          "numerator dimension 1 != denominator dimension 2")


@pytest.mark.parametrize("flag,value,fragment", [
    ("--margin", "nan", "margin must be nonnegative and finite"),
    ("--margin", "inf", "margin must be nonnegative and finite"),
    ("--gamma-min", "nan", "gamma grid spec"),
    ("--gamma-max", "inf", "gamma grid spec"),
])
def test_run_rejects_non_finite_values(tmp_path, capsys, flag, value, fragment):
    code = main(run_args(tmp_path, "s", ["--models", "2", "--sizes", "20", "--draws", "1",
                                         flag, value]))
    assert_reported_error(capsys, code, fragment)
    assert not (tmp_path / "s.csv").exists()


def test_fit_command_reports_selection_error(tmp_path, capsys, monkeypatch):
    def all_failed(*args, **kwargs):
        raise SelectionError("all 15 candidates failed to solve")

    monkeypatch.setattr(cli, "cross_validate", all_failed)
    paths = write_fit_inputs(tmp_path, "0.1\n0.3\n0.6\n", "0.2\n0.4\n0.5\n")
    assert_reported_error(capsys, main(["fit", *paths, "--folds", "2"]), "candidates failed")


def test_fit_command_reports_singular_refit(tmp_path, capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise SingularSystemError("system singular to working precision (gamma=0.1)")

    monkeypatch.setattr(selection, "fit_system", singular)
    paths = write_fit_inputs(tmp_path, "0.1\n0.3\n0.6\n", "0.2\n0.4\n0.5\n")
    assert_reported_error(capsys, main(["fit", *paths, "--folds", "2"]), "singular")
    assert not (tmp_path / "w.txt").exists()


def test_fit_reports_an_unwritable_output_before_the_fit(tmp_path, capsys, monkeypatch):
    fits = []
    monkeypatch.setattr(cli, "cross_validate", lambda *a, **kw: fits.append(a))
    paths = write_fit_inputs(tmp_path, "0.1\n0.3\n0.6\n", "0.2\n0.4\n0.5\n")
    code = main(["fit", *paths, "--folds", "2", "--out", str(tmp_path / "nodir" / "w.txt")])
    assert_reported_error(capsys, code, "No such file or directory")
    assert fits == []


@pytest.mark.parametrize("name,out", [("num.txt", "{tmp}/num.txt"), ("den.txt", "./den.txt"),
                                      ("num.txt", "link.txt")],
                         ids=["numerator", "denominator", "hard-link"])
def test_fit_rejects_an_output_that_names_an_input(tmp_path, capsys, monkeypatch, name, out):
    # the fit would overwrite the input, and a failed fit would remove it
    fits = []
    monkeypatch.setattr(cli, "cross_validate", lambda *a, **kw: fits.append(a))
    monkeypatch.chdir(tmp_path)
    paths = write_fit_inputs(tmp_path, "0.1\n0.3\n0.6\n", "0.2\n0.4\n0.5\n")
    os.link(tmp_path / "num.txt", tmp_path / "link.txt")
    before = (tmp_path / name).read_bytes()
    code = main(["fit", *paths, "--folds", "2", "--out", out.format(tmp=tmp_path)])
    assert_reported_error(capsys, code, "--out must not name an input file")
    assert (tmp_path / name).read_bytes() == before
    assert fits == []


def assert_plans_equal(plan, expected):
    for f in dataclasses.fields(selection.CvPlan):
        got, want = getattr(plan, f.name), getattr(expected, f.name)
        assert (got is want is None) or np.array_equal(got, want), f.name


def test_run_and_fit_defaults_are_the_cv_defaults(tmp_path, capsys, monkeypatch):
    plans = []
    monkeypatch.setattr(cli, "run_experiment", lambda model, m, meth, draws, plan, *a, **kw:
                        plans.append(plan) or [])
    config = dataclasses.replace(parse_config(), out_csv=str(tmp_path / "r.csv"),
                                 out_json=str(tmp_path / "r.json"))
    cli.run(config)

    def no_fit(s, method, plan):
        plans.append(plan)
        raise SelectionError("not fitted")

    monkeypatch.setattr(cli, "cross_validate", no_fit)
    paths = write_fit_inputs(tmp_path, "0.1\n0.3\n0.6\n0.7\n0.8\n", "0.2\n0.4\n0.5\n0.6\n0.9\n")
    assert main(["fit", *paths]) == 2
    assert len(plans) > 1
    for plan in (plans[0], plans[-1]):
        assert_plans_equal(plan, selection.CvPlan())


def run_python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter with this package's source first on its path."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def test_fit_help_states_the_box_tolerance_and_the_methods(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "lies more than 1e-12 outside [0, 1] raises OutOfBoxError" in text
    assert "--method {dre-v,dre-vk-ink,dre-vk-rbf,ulsif}" in text


def test_python_m_vratio_runs_the_cli():
    done = run_python("-m", "vratio", "--help")
    assert done.returncode == 0, done.stderr
    assert "fit" in done.stdout and "run" in done.stdout


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    # scipy.stats and scipy.optimize cost every run hundreds of modules; only
    # solve_nonneg needs scipy.optimize, and it loads it on its first call
    probe = ("import sys, numpy as np, vratio, vratio.cli\n"
             "def loaded():\n"
             "    return ([m for m in sys.modules if m.startswith('scipy.stats')],\n"
             "            'scipy.optimize' in sys.modules)\n"
             "print(loaded())\n"
             "vratio.solve_nonneg(np.diag([2.0, 3.0]), np.ones(2))\n"
             "print(loaded())\n")
    done = run_python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["([], False)", "([], True)"]


DELETED_NAMES = (
    "Role", "ecdf_eval", "v_entry", "VDomainError", "gram", "ink1", "kernel_eval",
    "solve_psd_pencil", "Variant", "UnsupportedQueryError", "fit_dre_v_expansion",
    "validate_command", "SolveReport", "DEFAULT_MODELS", "DEFAULT_METHODS", "v_matrices",
)


def test_public_surface(capsys):
    import importlib

    import vratio

    assert len(vratio.__all__) == len(set(vratio.__all__))
    for name in vratio.__all__:
        assert getattr(vratio, name) is not None
    modules = [vratio] + [importlib.import_module(f"vratio.{m}") for m in (
        "bench", "cli", "domain", "estimators", "kernels", "selection", "solve", "vmatrix")]
    for name in DELETED_NAMES:
        assert name not in vratio.__all__
        assert not any(hasattr(mod, name) for mod in modules), name
    with pytest.raises(SystemExit) as exc:
        main(["validate"])
    assert exc.value.code == 2
    assert "invalid choice: 'validate'" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--models", "2,2"), ("--sizes", "40,50,40"), ("--methods", "dre-v,dre-v"),
])
def test_run_rejects_repeated_values(tmp_path, capsys, flag, value):
    code = main(run_args(tmp_path, "s", ["--draws", "1", flag, value]))
    assert_reported_error(capsys, code, f"{flag[2:]} must not repeat a value")
    assert not (tmp_path / "s.csv").exists()


def test_fit_command_reports_an_empty_file_once(tmp_path, capsys):
    paths = write_fit_inputs(tmp_path, "", "0.2\n0.4\n0.5\n")
    assert main(["fit", *paths, "--folds", "2"]) == 2
    assert capsys.readouterr().err == (
        f"error: {paths[0]}: sample set must contain at least one point\n")



# a non-default text value for every run setting; together they make one valid config
CHANGED_SETTINGS = {
    "models": "2,6", "sizes": "40,60", "methods": "ulsif,dre-v", "draws": "3", "folds": "3",
    "seed": "4", "margin": "0.05", "nonneg": "true", "gamma_min": "0.001", "gamma_max": "5.0",
    "gamma_count": "4", "gamma_scaled": "false", "sigma2_multipliers": "0.5,2.0,1e-3",
    "out_csv": "x.csv", "out_json": "y.json",
}


def run_config(monkeypatch, argv):
    """The config `vratio run argv` would run, without running it."""
    seen = []
    monkeypatch.setattr(cli, "run", lambda config: seen.append(config) or 0)
    assert main(["run", *argv]) == 0
    return seen[0]


def test_every_setting_is_set_alike_from_a_file_and_by_a_flag(tmp_path, monkeypatch):
    assert sorted(f.name for f in dataclasses.fields(ExperimentConfig)) == sorted(CHANGED_SETTINGS)
    defaults = tmp_path / "defaults.txt"
    defaults.write_text(ExperimentConfig().to_text())
    for key, text in CHANGED_SETTINGS.items():
        from_file = parse_config(f"{key} = {text}\n")
        assert getattr(from_file, key) != getattr(ExperimentConfig(), key), key
        flag = "--" + key.replace("_", "-")
        assert run_config(monkeypatch, [flag, text]) == from_file, key
        # the flag overrides the file's line
        assert run_config(monkeypatch, ["--config", str(defaults), flag, text]) == from_file, key


def test_config_with_every_setting_changed_round_trips_through_text():
    config = parse_config("".join(f"{k} = {v}\n" for k, v in CHANGED_SETTINGS.items()))
    defaults = ExperimentConfig()
    assert all(getattr(config, f.name) != getattr(defaults, f.name)
               for f in dataclasses.fields(config))
    assert config.to_text() == (
        "models = 2,6\nsizes = 40,60\nmethods = ulsif,dre-v\ndraws = 3\nfolds = 3\nseed = 4\n"
        "margin = 0.05\nnonneg = true\ngamma_min = 0.001\ngamma_max = 5.0\ngamma_count = 4\n"
        "gamma_scaled = false\nsigma2_multipliers = 0.5,2.0,0.001\nout_csv = x.csv\n"
        "out_json = y.json\n")
    assert parse_config(config.to_text()) == config


def test_bare_nonneg_flag_means_true(monkeypatch):
    assert run_config(monkeypatch, ["--nonneg"]).nonneg is True
    assert run_config(monkeypatch, ["--nonneg", "false"]).nonneg is False


def test_run_reports_a_bad_flag_value_like_a_bad_file_line(tmp_path, capsys):
    assert main(["run", "--draws", "abc"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --draws: cannot parse 'draws': ") and "usage" not in err
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("draws = abc\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: line 1: cannot parse 'draws': ")


def test_empty_sizes_flag_means_the_per_model_defaults(tmp_path, monkeypatch):
    assert run_config(monkeypatch, ["--sizes", ""]) == parse_config("sizes =\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("sizes = 40\n")
    assert run_config(monkeypatch, ["--config", str(cfg), "--sizes", ""]).sizes is None


@pytest.mark.parametrize("text,fragment", [
    ("gamma_count = 3\ngamma_min = 0.5\ngamma_max = 0.5\n", "gamma_grid must not repeat a value"),
    ("sigma2_multipliers = 1,1\n", "sigma2_multipliers must not repeat a value"),
    ("sigma2_multipliers = 0.3,3e-1\n", "sigma2_multipliers must not repeat a value"),
])
def test_run_rejects_repeated_grid_values(tmp_path, capsys, text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    code = main(run_args(tmp_path, "s", ["--draws", "1", "--config", str(cfg)]))
    assert_reported_error(capsys, code, fragment)
    assert not (tmp_path / "s.csv").exists()


def test_run_table_follows_redirected_stdout(tmp_path, capsys):
    config = parse_config(f"models = 2\nsizes = 20\nmethods = dre-v\ndraws = 1\n"
                          f"out_csv = {tmp_path / 'r.csv'}\nout_json = {tmp_path / 'r.json'}\n")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run(config) == 0
    assert buf.getvalue().splitlines()[0].split() == ["model", "m", "dre-v"]
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("bad", ["out_csv", "out_json"])
def test_run_reports_a_bad_output_path_before_any_draw(tmp_path, capsys, monkeypatch, bad):
    draws = []
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: draws.append(a) or [])
    paths = {"out_csv": tmp_path / "r.csv", "out_json": tmp_path / "r.json"}
    paths[bad] = tmp_path / "nodir" / paths[bad].name
    code = main(["run", "--models", "2", "--sizes", "30", "--draws", "2",
                 "--methods", "dre-v,ulsif", "--out-csv", str(paths["out_csv"]),
                 "--out-json", str(paths["out_json"])])
    assert_reported_error(capsys, code, "No such file or directory")
    assert draws == []


def test_run_rejects_one_file_for_both_outputs(tmp_path, capsys):
    (tmp_path / "link").symlink_to(tmp_path)
    same = tmp_path / "same.txt"
    for other in (same, tmp_path / "sub" / ".." / "same.txt", tmp_path / "link" / "same.txt"):
        with pytest.raises(ConfigError, match="out_csv and out_json must name different files"):
            parse_config(f"out_csv = {same}\nout_json = {other}\n")
        code = main(["run", "--draws", "1", "--out-csv", str(same), "--out-json", str(other)])
        assert_reported_error(capsys, code, "must name different files")
    assert not same.exists()


@pytest.mark.parametrize("command", ["run", "fit"])
@pytest.mark.parametrize("flag,value,message", [
    pytest.param("--folds", "1", "fold count must be an integer of at least 2, got 1", id="folds"),
    pytest.param("--seed", "-1", "seed must be a nonnegative integer, got -1", id="seed"),
])
def test_run_and_fit_report_the_cv_plans_message(tmp_path, capsys, command, flag, value, message):
    if command == "run":
        argv = run_args(tmp_path, "s", ["--models", "2", "--sizes", "20", "--draws", "1"])
    else:
        argv = ["fit", *write_fit_inputs(tmp_path, "0.1\n0.3\n0.6\n", "0.2\n0.4\n0.5\n"),
                "--folds", "2"]  # a later flag wins
    assert_reported_error(capsys, main([*argv, flag, value]), message)
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        [] if command == "run" else ["den.txt", "num.txt"])
