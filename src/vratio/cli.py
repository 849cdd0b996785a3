"""Command-line front end: benchmark runs and one-shot fits.

A `vratio run` setting is one `ExperimentConfig` field and nothing else: its
config-file key, its parser (from the field's annotation), its line in the
`to_text` echo and its `--key-name` flag all follow from the field.

The CV settings are checked once, by the selection.CvPlan that both commands
build from them: its fold count, seed, gamma grid and sigma2 multipliers.
`vratio run` builds its plan in ExperimentConfig.plan and `vratio fit` before
it opens --out, and both report the plan's ValueError as a ConfigError. The
CLI checks only what no plan can: the model ids and methods, the sizes and
draws, that the fold count does not exceed the smallest sample size, the
margin, distinct output paths and the gamma spec 0 < min <= max < inf, whose
check precedes log_grid (log10 of 0 would warn).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import typing
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from . import selection
from .bench import MODEL_IDS, ExperimentRecord, aggregate, make_model, run_experiment
from .domain import BOX_TOL, SampleSet, fit_domain_box, scale
from .estimators import Method
from .selection import CvPlan, SelectionError, cross_validate
from .solve import SingularSystemError

METHOD_NAMES = [m.value for m in Method]
SIZES_1D = [50, 100, 200]
SIZES_20D = [100, 200, 500]


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    models: list[int] = field(default_factory=lambda: list(MODEL_IDS))
    sizes: list[int] | None = None  # None -> per-model defaults by dimension
    methods: list[str] = field(default_factory=lambda: list(METHOD_NAMES))
    draws: int = 20
    folds: int = selection.DEFAULT_FOLDS
    seed: int = selection.DEFAULT_SEED
    margin: float = 0.0
    nonneg: bool = False  # dre-v only: solve for r >= 0 at the selected gamma
    gamma_min: float = selection.DEFAULT_GAMMA_MIN
    gamma_max: float = selection.DEFAULT_GAMMA_MAX
    gamma_count: int = selection.DEFAULT_GAMMA_COUNT
    gamma_scaled: bool = selection.DEFAULT_SCALE_GAMMA  # grid values are multipliers of tr(M)/n
    sigma2_multipliers: list[float] = field(
        default_factory=lambda: list(selection.DEFAULT_SIGMA2_MULTIPLIERS))
    out_csv: str = "results.csv"
    out_json: str = "results.json"

    def validate(self):
        if not self.models or not self.methods:
            raise ConfigError("models and methods must be nonempty")
        for mid in self.models:
            if mid not in MODEL_IDS:
                raise ConfigError(f"unknown model id {mid}")
        for meth in self.methods:
            if meth not in METHOD_NAMES:
                raise ConfigError(f"unknown method '{meth}'")
        if self.sizes is not None and (not self.sizes or any(m < 1 for m in self.sizes)):
            raise ConfigError("sizes must be nonempty positive integers")
        # a repeated value would run and count every cell it names more than once
        for name, values in (("models", self.models), ("sizes", self.sizes or []),
                             ("methods", self.methods)):
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} must not repeat a value, got {values}")
        if self.draws < 1:
            raise ConfigError("draws must be at least 1")
        smallest = min(min(self.sizes_for(mid)) for mid in self.models)
        if self.folds > smallest:
            raise ConfigError(f"folds must not exceed the smallest sample size {smallest}, "
                              f"got {self.folds}")
        if not 0 <= self.margin < np.inf:
            raise ConfigError(f"margin must be nonnegative and finite, got {self.margin}")
        if (not 0 < self.gamma_min <= self.gamma_max < np.inf) or self.gamma_count < 1:
            raise ConfigError("gamma grid spec must satisfy 0 < min <= max < inf, count >= 1")
        try:
            self.plan()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # the JSON would overwrite the CSV
        if os.path.realpath(self.out_csv) == os.path.realpath(self.out_json):
            raise ConfigError(f"out_csv and out_json must name different files, "
                              f"both name {self.out_csv!r}")

    def sizes_for(self, model_id: int) -> list[int]:
        if self.sizes is not None:
            return self.sizes
        return SIZES_20D if make_model(model_id).d == 20 else SIZES_1D

    def plan(self) -> CvPlan:
        """The CV plan of every draw; ValueError for settings that CvPlan rejects."""
        return CvPlan(
            k=self.folds,
            gamma_grid=selection.log_grid(self.gamma_min, self.gamma_max, self.gamma_count),
            sigma2_grid=None,  # per-draw median heuristic times the configured multipliers
            seed=self.seed,
            scale_gamma=self.gamma_scaled,
            sigma2_multipliers=tuple(self.sigma2_multipliers),
        )

    def to_text(self) -> str:
        """Resolved key=value echo; parse_config reads it back to an equal config."""
        return "".join(f"{f.name} = {_format(getattr(self, f.name))}\n" for f in fields(self))


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return ",".join(_format(v) for v in value)
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true or false, got '{text}'")


def _parser(hint):
    """Text -> value for a field annotated `hint`: lists are comma-separated, an empty
    list is None where the field allows None."""
    if type(None) in typing.get_args(hint):
        inner = _parser(next(a for a in typing.get_args(hint) if a is not type(None)))
        return lambda text: inner(text) or None
    if typing.get_origin(hint) is list:
        item = _parser(typing.get_args(hint)[0])
        return lambda text: [item(tok.strip()) for tok in text.split(",") if tok.strip()]
    return _parse_bool if hint is bool else hint


_HINTS = typing.get_type_hints(ExperimentConfig)
_PARSERS = {f.name: _parser(_HINTS[f.name]) for f in fields(ExperimentConfig)}


def _parse_value(where: str, key: str, text: str):
    if key not in _PARSERS:
        raise ConfigError(f"{where}: unknown key '{key}'")
    try:
        return _PARSERS[key](text)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse '{key}': {exc}") from exc


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def parse_config(text: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from key=value text plus parsed overrides, such as the run flags (they win)."""
    values = {}
    if text is not None:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value, got '{raw.strip()}'")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key] = _parse_value(f"line {lineno}", key, val)
    for key, val in (overrides or {}).items():
        if key not in _PARSERS:
            raise ConfigError(f"unknown configuration key '{key}'")
        values[key] = val
    config = ExperimentConfig(**values)
    config.validate()
    return config


# the CSV header is the record's field names, with these three renamed
_CSV_NAMES = {"model_id": "model", "gamma": "gamma_selected", "sigma2": "sigma2_selected"}


def _record_rows(records: list[ExperimentRecord]):
    """The records' fields in order, as _format writes them, with the method by name."""
    for rec in sorted(records, key=lambda r: (r.model_id, r.m, r.method.value, r.draw)):
        yield [_format(rec.method.value if f.name == "method" else getattr(rec, f.name))
               for f in fields(rec)]


def write_csv(path: str, records: list[ExperimentRecord]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([_CSV_NAMES.get(f.name, f.name) for f in fields(ExperimentRecord)])
        writer.writerows(_record_rows(records))


def write_json(path: str, config: ExperimentConfig, records: list[ExperimentRecord]):
    agg = aggregate(records)
    cells = [
        {"model": mid, "m": m, "method": meth.value, **stats}
        for (mid, m, meth), stats in agg.items()
    ]
    payload = {"config": config.to_text(), "cells": cells}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def print_table(config: ExperimentConfig, records: list[ExperimentRecord], out=None):
    """Mean (std) NRMSE per model/size row and method column."""
    agg = aggregate(records)
    header = f"{'model':>5} {'m':>5}" + "".join(f" {meth:>16}" for meth in config.methods)
    print(header, file=out)
    keys = sorted({(mid, m) for (mid, m, _) in agg})
    for mid, m in keys:
        row = f"{mid:>5} {m:>5}"
        for meth in config.methods:
            stats = agg.get((mid, m, Method(meth)))
            if stats is None or stats["mean"] is None:
                row += f" {'failed':>16}"
            else:
                row += f" {stats['mean']:>8.3f} ({stats['std']:.3f})"
        print(row, file=out)


def run(config: ExperimentConfig) -> int:
    config.validate()
    plan = config.plan()
    # create both outputs up front: a path that cannot be written fails before any draw
    for path in (config.out_csv, config.out_json):
        open(path, "w").close()
    records: list[ExperimentRecord] = []
    for model_id in config.models:
        for m in config.sizes_for(model_id):
            for meth in config.methods:
                records.extend(
                    run_experiment(
                        model_id, m, Method(meth), config.draws, plan, config.seed,
                        margin=config.margin, nonneg=config.nonneg,
                    )
                )
    write_csv(config.out_csv, records)
    write_json(config.out_json, config, records)
    print_table(config, records)
    agg = aggregate(records)
    return 1 if any(stats["failures"] > 0 for stats in agg.values()) else 0


def _load_sample(path: str) -> SampleSet:
    try:
        with warnings.catch_warnings():
            # SampleSet rejects the empty file with its own message
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            pts = np.loadtxt(path, ndmin=2)
        return SampleSet(pts)
    except ValueError as exc:  # unparsable text, no points or non-finite points
        raise ConfigError(f"{path}: {exc}") from exc


def fit_command(args) -> int:
    # the fit overwrites --out and a failed fit removes it: neither may reach an
    # input, by the same path, a symbolic link or a hard link
    if os.path.exists(args.out) and any(os.path.samefile(args.out, path)
                                        for path in (args.numerator, args.denominator)):
        raise ConfigError(f"--out must not name an input file, got {args.out!r}")
    num = _load_sample(args.numerator)
    den = _load_sample(args.denominator)
    smallest = min(num.size, den.size)
    if args.folds > smallest:
        raise ConfigError(f"--folds must not exceed the smaller sample size {smallest}, "
                          f"got {args.folds}")
    try:
        plan = CvPlan(k=args.folds, seed=args.seed)
        box = fit_domain_box(num, den, margin=args.margin)
    except ValueError as exc:  # a bad fold count, seed or margin, or files of different dimensions
        raise ConfigError(str(exc)) from exc
    s = scale(num, den, box)
    # a path that cannot be written fails here, once the inputs are read, and not after the fit
    with open(args.out, "w") as out:
        try:
            report = cross_validate(s, Method(args.method), plan)
        except BaseException:
            os.remove(args.out)  # a failed fit leaves no output behind
            raise
        weights = report.estimate.predict(den.points)
        np.savetxt(out, weights)
    sigma_info = "" if report.selected_sigma2 is None else f", sigma2={report.selected_sigma2:g}"
    print(f"selected gamma={report.selected_gamma:g}{sigma_info}; wrote {len(weights)} "
          f"weights to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vratio", description="V-matrix density ratio estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the synthetic benchmark")
    p_run.add_argument("--config", help="key=value config file; flags override it")
    defaults = ExperimentConfig()
    for f in fields(ExperimentConfig):
        bare = {"nargs": "?", "const": "true"} if _HINTS[f.name] is bool else {}
        default = _format(getattr(defaults, f.name))
        p_run.add_argument(_flag(f.name), **bare,
                           help=f"config key {f.name} (default '{default}')")

    p_fit = sub.add_parser(
        "fit", help="estimate weights for two point files",
        description="Fit the density ratio numerator/denominator on the box around both "
                    "files (widened by --margin) and write its values at the denominator "
                    "points. The estimate is defined on that box only: a query whose "
                    f"box-scaled coordinate lies more than {BOX_TOL:g} outside [0, 1] raises "
                    "OutOfBoxError, and a point on a face is inside.")
    p_fit.add_argument("numerator", help="text file, one point per line")
    p_fit.add_argument("denominator", help="text file, one point per line")
    p_fit.add_argument("--method", default="dre-vk-ink", choices=METHOD_NAMES)
    p_fit.add_argument("--folds", type=int, default=selection.DEFAULT_FOLDS)
    p_fit.add_argument("--seed", type=int, default=selection.DEFAULT_SEED)
    p_fit.add_argument("--margin", type=float, default=0.0)
    p_fit.add_argument("--out", default="weights.txt")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            text = None
            if args.config:
                with open(args.config) as fh:
                    text = fh.read()
            config = parse_config(text, {
                f.name: _parse_value(_flag(f.name), f.name, getattr(args, f.name))
                for f in fields(ExperimentConfig) if getattr(args, f.name) is not None})
            return run(config)
        return fit_command(args)
    except (ConfigError, OSError, SelectionError, SingularSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
