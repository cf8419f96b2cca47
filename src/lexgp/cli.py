"""Batch experiment runner: method x trial matrices over a problem, with
per-trial generation logs and a summary table written as CSV."""

from __future__ import annotations

import argparse
import csv
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import Dataset, generate_uball5d, load_csv, split_normalize
from .engine import EngineConfig, run_trial
from .selection import Method, SelectionConfig

GENERATION_COLUMNS = ["generation", "best_train_mae", "diversity",
                      "median_cases_used", "elapsed_s"]
SUMMARY_COLUMNS = ["method", "problem", "median_test_mae", "rank", "total_time_s"]


@dataclass
class ExperimentConfig:
    problem: str = "uball5d"
    data: str | None = None          # CSV path; overrides the built-in problem
    target: str | None = None
    methods: list[Method] = field(default_factory=lambda: [Method.LEX])
    trials: int = 30
    seed: int = 0
    population: int = 1000
    generations: int = 1000
    eps_e: float = 5.0
    eps_y: float = 0.10
    split: float = 0.7
    out: str = "runs"
    jobs: int | None = None

    def __post_init__(self):
        self.methods = [Method(m) for m in self.methods]
        if not self.methods:
            raise ValueError("need at least one method")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0.0 < self.split < 1.0:
            raise ValueError("split ratio must be in (0, 1)")
        if self.jobs is not None and self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.data is None and self.problem != "uball5d":
            raise ValueError(f"unknown problem {self.problem!r}; "
                             "built-in problems: uball5d")
        # Engine settings fail here, before any output exists, not mid-run.
        for method in self.methods:
            _engine_config(self, method)

    @property
    def problem_name(self) -> str:
        return Path(self.data).stem if self.data else self.problem


@dataclass
class TrialResult:
    method: Method
    problem: str
    test_mae: float
    total_s: float


@dataclass
class SummaryRow:
    method: str
    problem: str
    median_test_mae: float
    rank: float
    total_time_s: float


def _engine_config(config: ExperimentConfig, method: Method) -> EngineConfig:
    return EngineConfig(
        population_size=config.population,
        generations=config.generations,
        selection=SelectionConfig(method=method, eps_e=config.eps_e, eps_y=config.eps_y),
    )


def _trial_split(config: ExperimentConfig, dataset: Dataset | None, trial: int):
    # Same per-trial seed for every method, so trials are paired across methods.
    rng = np.random.default_rng(config.seed + trial)
    if dataset is not None:
        return split_normalize(dataset, config.split, rng)
    return generate_uball5d(rng=rng)


def _run_task(args) -> tuple[TrialResult, list[list]]:
    config, dataset, method, trial = args
    split = _trial_split(config, dataset, trial)
    log = run_trial(_engine_config(config, method), split,
                    np.random.default_rng(config.seed + trial))
    rows = [[r.generation, r.best_train_mae, r.diversity, r.median_cases_used, r.elapsed_s]
            for r in log.records]
    result = TrialResult(method, config.problem_name, log.test_mae, log.total_s)
    return result, rows


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else
                             (repr(v) if isinstance(v, int) else repr(float(v)))
                             for v in row])


def _ranked(values: list[float]) -> list[float]:
    """Ascending ranks starting at 1; ties share their mean rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def emit_summary(results: list[TrialResult]) -> list[SummaryRow]:
    """One row per (method, problem): median best-of-run test MAE, median
    trial wall time, and the method's rank within the problem (1 = best)."""
    groups: dict[tuple[str, str], list[TrialResult]] = {}
    for r in results:
        groups.setdefault((r.method.value, r.problem), []).append(r)
    rows = [SummaryRow(method, problem,
                       float(np.median([r.test_mae for r in rs])), 0.0,
                       float(np.median([r.total_s for r in rs])))
            for (method, problem), rs in sorted(groups.items())]
    for problem in {row.problem for row in rows}:
        subset = [row for row in rows if row.problem == problem]
        for row, rank in zip(subset, _ranked([r.median_test_mae for r in subset])):
            row.rank = rank
    return rows


def _available_cores() -> int:
    """The cores this process may run on, which an affinity mask or a
    container's cpuset can make fewer than the host's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(config: ExperimentConfig) -> list[SummaryRow]:
    """Run the full method x trial matrix and write all output files."""
    # A missing or malformed CSV fails before any output exists.
    dataset = load_csv(config.data, config.target) if config.data else None
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    tasks = [(config, dataset, method, trial)
             for method in config.methods for trial in range(config.trials)]
    jobs = config.jobs or _available_cores()
    results = []
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_task, tasks))
    else:
        outcomes = [_run_task(t) for t in tasks]

    for (result, rows), (_, _, method, trial) in zip(outcomes, tasks):
        log_path = out_dir / f"{method.value}_trial{trial:03d}.csv"
        _write_csv(log_path, GENERATION_COLUMNS, rows)
        results.append(result)
        print(f"{method.value} trial {trial}: test_mae={result.test_mae:.6g} "
              f"({result.total_s:.1f}s)")

    summary = emit_summary(results)
    _write_csv(out_dir / "summary.csv", SUMMARY_COLUMNS,
               [[row.method, row.problem, row.median_test_mae, row.rank, row.total_time_s]
                for row in summary])
    for row in summary:
        print(f"{row.method:16s} {row.problem:12s} median_test_mae={row.median_test_mae:.6g} "
              f"rank={row.rank:g} total_time_s={row.total_time_s:.1f}")
    return summary


def _read_config_file(path: str) -> dict[str, str]:
    values = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexgp",
        description="Symbolic-regression GP benchmark runner with lexicase, "
                    "epsilon-lexicase, tournament, random, and age-fitness "
                    "Pareto methods.")
    parser.add_argument("--config", help="key=value config file; flags take precedence")
    parser.add_argument("--problem", help="built-in problem name (default: uball5d)")
    parser.add_argument("--data", help="CSV file to use instead of a built-in problem")
    parser.add_argument("--target", help="target column name (default: last column)")
    parser.add_argument("--methods", help="comma-separated method list, e.g. "
                                          "lex,lex_eps_e_mad,tourn,rand,afp")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--pop", type=int, dest="population")
    parser.add_argument("--gens", type=int, dest="generations")
    parser.add_argument("--eps-e", type=float, dest="eps_e")
    parser.add_argument("--eps-y", type=float, dest="eps_y")
    parser.add_argument("--split", type=float,
                        help="training share of the --data CSV (default: 0.7)")
    parser.add_argument("--out", help="output directory (default: runs)")
    parser.add_argument("--jobs", type=int, help="parallel trial workers, >= 1 "
                                                 "(default: available cores)")
    return parser


_FIELD_TYPES = {"trials": int, "seed": int, "population": int, "generations": int,
                "eps_e": float, "eps_y": float, "split": float, "jobs": int}
_FILE_KEYS = {"pop": "population", "gens": "generations"}
_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)}


def parse_config(argv=None) -> ExperimentConfig:
    args = build_parser().parse_args(argv)
    values: dict = {}
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            key = _FILE_KEYS.get(key, key).replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{args.config}: unknown config key {key!r}")
            if key == "methods":
                values[key] = [m.strip() for m in raw.split(",") if m.strip()]
            else:
                values[key] = _FIELD_TYPES.get(key, str)(raw)
    for key in ("problem", "data", "target", "trials", "seed", "population",
                "generations", "eps_e", "eps_y", "split", "out", "jobs"):
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    if args.methods is not None:
        values["methods"] = [m.strip() for m in args.methods.split(",") if m.strip()]
    # The built-in problem has a fixed train/test split and target.
    for key in ("split", "target"):
        if key in values and values.get("data") is None:
            raise ValueError(f"--{key} applies only to --data")
    if "problem" in values and values.get("data") is not None:
        raise ValueError("--problem and --data exclude each other")
    return ExperimentConfig(**values)


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        run_experiment(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
