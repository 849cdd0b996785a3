"""Command-line front end: benchmark runs and one-shot fits."""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .bench import ExperimentRecord, aggregate, make_model, run_experiment
from .domain import SampleSet, fit_domain_box, scale
from .estimators import Method
from .selection import DEFAULT_SIGMA2_MULTIPLIERS, CvPlan, SelectionError, cross_validate
from .solve import SingularSystemError

DEFAULT_MODELS = [1, 2, 3, 4, 5, 6, 7]
DEFAULT_METHODS = ["dre-v", "dre-vk-ink", "dre-vk-rbf", "ulsif"]
SIZES_1D = [50, 100, 200]
SIZES_20D = [100, 200, 500]


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    models: list[int] = field(default_factory=lambda: list(DEFAULT_MODELS))
    sizes: list[int] | None = None  # None -> per-model defaults by dimension
    methods: list[str] = field(default_factory=lambda: list(DEFAULT_METHODS))
    draws: int = 20
    folds: int = 5
    seed: int = 0
    margin: float = 0.0
    nonneg: bool = False
    gamma_min: float = 1e-5
    gamma_max: float = 10.0
    gamma_count: int = 15
    gamma_scaled: bool = True  # grid values are multipliers of tr(M)/n
    sigma2_multipliers: list[float] = field(
        default_factory=lambda: list(DEFAULT_SIGMA2_MULTIPLIERS)
    )
    out_csv: str = "results.csv"
    out_json: str = "results.json"

    def validate(self):
        if not self.models or not self.methods:
            raise ConfigError("models and methods must be nonempty")
        for mid in self.models:
            if mid not in DEFAULT_MODELS:
                raise ConfigError(f"unknown model id {mid}")
        for meth in self.methods:
            if meth not in DEFAULT_METHODS:
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
        if self.folds < 2:
            raise ConfigError("folds must be at least 2")
        smallest = min(min(self.sizes_for(mid)) for mid in self.models)
        if self.folds > smallest:
            raise ConfigError(f"folds must not exceed the smallest sample size {smallest}, "
                              f"got {self.folds}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not 0 <= self.margin < np.inf:
            raise ConfigError(f"margin must be nonnegative and finite, got {self.margin}")
        if (not 0 < self.gamma_min <= self.gamma_max < np.inf) or self.gamma_count < 1:
            raise ConfigError("gamma grid spec must satisfy 0 < min <= max < inf, count >= 1")
        if not self.sigma2_multipliers or not all(0 < v < np.inf for v in self.sigma2_multipliers):
            raise ConfigError("sigma2 multipliers must be finite and positive")

    def sizes_for(self, model_id: int) -> list[int]:
        if self.sizes is not None:
            return self.sizes
        return SIZES_20D if make_model(model_id).d == 20 else SIZES_1D

    def gamma_grid(self) -> np.ndarray:
        if self.gamma_count == 1:
            return np.array([self.gamma_min])
        return np.logspace(np.log10(self.gamma_min), np.log10(self.gamma_max), self.gamma_count)

    def to_text(self) -> str:
        """Resolved key=value echo; parse_config reads it back to an equal config."""
        lines = [
            "models = " + ",".join(str(v) for v in self.models),
            "sizes = " + ("" if self.sizes is None else ",".join(str(v) for v in self.sizes)),
            "methods = " + ",".join(self.methods),
            f"draws = {self.draws}",
            f"folds = {self.folds}",
            f"seed = {self.seed}",
            f"margin = {self.margin!r}",
            f"nonneg = {str(self.nonneg).lower()}",
            f"gamma_min = {self.gamma_min!r}",
            f"gamma_max = {self.gamma_max!r}",
            f"gamma_count = {self.gamma_count}",
            f"gamma_scaled = {str(self.gamma_scaled).lower()}",
            "sigma2_multipliers = " + ",".join(repr(v) for v in self.sigma2_multipliers),
            f"out_csv = {self.out_csv}",
            f"out_json = {self.out_json}",
        ]
        return "\n".join(lines) + "\n"


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"cannot parse boolean from '{text}'")


def _parse_list(text: str, conv):
    text = text.strip()
    if not text:
        return []
    try:
        return [conv(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"unparsable list '{text}': {exc}") from exc


_KEY_PARSERS = {
    "models": lambda v: _parse_list(v, int),
    "sizes": lambda v: _parse_list(v, int) or None,
    "methods": lambda v: _parse_list(v, str),
    "draws": int,
    "folds": int,
    "seed": int,
    "margin": float,
    "nonneg": _parse_bool,
    "gamma_min": float,
    "gamma_max": float,
    "gamma_count": int,
    "gamma_scaled": _parse_bool,
    "sigma2_multipliers": lambda v: _parse_list(v, float),
    "out_csv": str,
    "out_json": str,
}


def parse_config(text: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from key=value text plus flag overrides (flags win)."""
    values = {}
    if text is not None:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value, got '{raw.strip()}'")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _KEY_PARSERS:
                raise ConfigError(f"line {lineno}: unknown key '{key}'")
            try:
                values[key] = _KEY_PARSERS[key](val)
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: cannot parse '{key}': {exc}") from exc
    for key, val in (overrides or {}).items():
        if key not in _KEY_PARSERS:
            raise ConfigError(f"unknown configuration key '{key}'")
        if val is not None:
            values[key] = val
    known = {f.name for f in fields(ExperimentConfig)}
    assert set(_KEY_PARSERS) == known
    config = ExperimentConfig(**values)
    config.validate()
    return config


def _record_rows(records: list[ExperimentRecord]):
    for rec in sorted(records, key=lambda r: (r.model_id, r.m, r.method.value, r.draw)):
        yield [
            rec.model_id,
            rec.m,
            rec.method.value,
            rec.draw,
            rec.seed,
            "" if rec.gamma is None else repr(rec.gamma),
            "" if rec.sigma2 is None else repr(rec.sigma2),
            "" if rec.nrmse is None else repr(rec.nrmse),
            rec.status,
            rec.message,
        ]


def write_csv(path: str, records: list[ExperimentRecord]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["model", "m", "method", "draw", "seed", "gamma_selected",
             "sigma2_selected", "nrmse", "status", "message"]
        )
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


def print_table(config: ExperimentConfig, records: list[ExperimentRecord], out=sys.stdout):
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
    plan = CvPlan(
        k=config.folds,
        gamma_grid=config.gamma_grid(),
        sigma2_grid=None,  # per-draw median heuristic times the configured multipliers
        seed=config.seed,
        scale_gamma=config.gamma_scaled,
        sigma2_multipliers=tuple(config.sigma2_multipliers),
    )
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
    num = _load_sample(args.numerator)
    den = _load_sample(args.denominator)
    smallest = min(num.size, den.size)
    if not 2 <= args.folds <= smallest:
        raise ConfigError(f"--folds must be from 2 to the smaller sample size {smallest}, "
                          f"got {args.folds}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    try:
        box = fit_domain_box(num, den, margin=args.margin)
    except ValueError as exc:  # a negative margin or files of different dimensions
        raise ConfigError(str(exc)) from exc
    s = scale(num, den, box)
    plan = CvPlan(k=args.folds, seed=args.seed)
    report = cross_validate(s, Method(args.method), plan)
    weights = report.estimate.predict(den.points)
    np.savetxt(args.out, weights)
    sigma_info = "" if report.selected_sigma2 is None else f", sigma2={report.selected_sigma2:g}"
    print(f"selected gamma={report.selected_gamma:g}{sigma_info}; wrote {len(weights)} "
          f"weights to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vratio", description="V-matrix density ratio estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the synthetic benchmark")
    p_run.add_argument("--config", help="key=value config file")
    p_run.add_argument("--models", help="comma-separated model ids (1-7)")
    p_run.add_argument("--sizes", help="comma-separated sample sizes")
    p_run.add_argument("--methods", help="comma-separated methods: " + ",".join(DEFAULT_METHODS))
    p_run.add_argument("--draws", type=int)
    p_run.add_argument("--folds", type=int)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--margin", type=float)
    p_run.add_argument("--nonneg", action="store_const", const=True, default=None)
    p_run.add_argument("--gamma-min", type=float, dest="gamma_min")
    p_run.add_argument("--gamma-max", type=float, dest="gamma_max")
    p_run.add_argument("--gamma-count", type=int, dest="gamma_count")
    p_run.add_argument("--out-csv", dest="out_csv")
    p_run.add_argument("--out-json", dest="out_json")

    p_fit = sub.add_parser(
        "fit", help="estimate weights for two point files",
        description="Fit the density ratio numerator/denominator on the box around both "
                    "files (widened by --margin) and write its values at the denominator "
                    "points. The estimate is defined on that box only: a query whose "
                    "box-scaled coordinate lies more than 1e-12 outside [0, 1] raises "
                    "OutOfBoxError, and a point on a face is inside.")
    p_fit.add_argument("numerator", help="text file, one point per line")
    p_fit.add_argument("denominator", help="text file, one point per line")
    p_fit.add_argument("--method", default="dre-vk-ink", choices=DEFAULT_METHODS)
    p_fit.add_argument("--folds", type=int, default=5)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--margin", type=float, default=0.0)
    p_fit.add_argument("--out", default="weights.txt")
    return parser


def _run_overrides(args) -> dict:
    overrides = {}
    for key in ("draws", "folds", "seed", "margin", "nonneg", "gamma_min", "gamma_max",
                "gamma_count", "out_csv", "out_json"):
        overrides[key] = getattr(args, key)
    if args.models is not None:
        overrides["models"] = _parse_list(args.models, int)
    if args.sizes is not None:
        overrides["sizes"] = _parse_list(args.sizes, int)
    if args.methods is not None:
        overrides["methods"] = _parse_list(args.methods, str)
    return overrides


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            text = None
            if args.config:
                with open(args.config) as fh:
                    text = fh.read()
            config = parse_config(text, _run_overrides(args))
            return run(config)
        return fit_command(args)
    except (ConfigError, OSError, SelectionError, SingularSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
