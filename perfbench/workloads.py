"""Workload definitions, their seeded inputs, and the timed plans.

A plan is a fixed number of paired trials, derived from ``--seconds`` by a
fixed formula, never cut by the clock: every output, the quality metric and
the fingerprint are exact at a fixed seed and run length. Each workload's
nominal seconds per trial size its plan to about ``--seconds`` on a 2-core
x86 box; a slower machine takes longer for the same work.
"""

from __future__ import annotations

import contextlib
import csv
import io
import re
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from . import gate

# Trials of one run are seeded from disjoint blocks, so runs with
# neighbouring --seed values share no trial.
SEED_BLOCK = 1000
NOMINAL_JOBS = 2
# 256 training rows keep case vectors short; the 512 test rows and the
# larger table damp the run-to-run spread of the test MAE.
CSV_ROWS = 768
CSV_SPLIT = 1 / 3


@dataclass(frozen=True)
class Workload:
    name: str
    methods: tuple[str, ...]
    population: int
    generations: int
    trial_s: float      # nominal seconds per trial that size the plan
    cli: bool = False

    def trials(self, seconds: float) -> int:
        """Trials per method for a run of nominally ``seconds``."""
        if self.cli:
            share = seconds * NOMINAL_JOBS / (len(self.methods) * self.trial_s)
        else:
            share = seconds / self.trial_s
        return max(1, round(share))


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in [
    Workload("eps_mad_p1000", ("lex_eps_e_mad",), 1000, 10, 2.5),
    Workload("lex_p1000", ("lex",), 1000, 15, 4.0),
    Workload("afp_p1000", ("afp",), 1000, 10, 4.0),
    Workload("cli_matrix", ("lex", "lex_eps_e_mad", "tourn", "afp"), 200, 30, 0.7, cli=True),
]}


def trial_seed(seed: int, trial: int) -> int:
    return SEED_BLOCK * seed + trial


@dataclass
class Inputs:
    splits: list                 # one SplitDataset per trial
    csv_path: Path | None = None  # cli only: the table the runner loads


def write_csv(path: Path, seed: int) -> None:
    """A uball5d-shaped regression table drawn from the seed."""
    rng = np.random.default_rng([seed, CSV_ROWS])
    X = rng.uniform(0.05, 6.05, size=(CSV_ROWS, 5))
    y = 10.0 / (5.0 + ((X - 3.0) ** 2).sum(axis=1))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(X.shape[1])] + ["y"])
        for row, target in zip(X.tolist(), y.tolist()):
            writer.writerow([repr(v) for v in row] + [repr(target)])


def prepare(workload: Workload, seed: int, seconds: float, workdir: Path) -> Inputs:
    """Build a run's inputs: the benchmark's set-up, timed as ``setup_s``.

    The per-trial splits are the ones the engine will see. For the CLI
    workload they mirror the runner's own per-trial split, which the gate's
    spot check reuses.
    """
    import lexgp.data

    trials = workload.trials(seconds)
    if not workload.cli:
        return Inputs([lexgp.data.generate_uball5d(rng=np.random.default_rng(trial_seed(seed, k)))
                       for k in range(trials)])
    csv_path = workdir / "matrix.csv"
    write_csv(csv_path, seed)
    dataset = lexgp.data.load_csv(csv_path)
    splits = [lexgp.data.split_normalize(dataset, CSV_SPLIT,
                                         np.random.default_rng(trial_seed(seed, k)))
              for k in range(trials)]
    return Inputs(splits, csv_path)


def run_one(workload: Workload, method: str, split, seed: int, trial: int):
    """One trial through the library API; returns (RunLog, wall seconds)."""
    import lexgp.engine
    import lexgp.selection

    config = lexgp.engine.EngineConfig(
        population_size=workload.population, generations=workload.generations,
        selection=lexgp.selection.SelectionConfig(method=method))
    rng = np.random.default_rng(trial_seed(seed, trial))
    start = perf_counter()
    log = lexgp.engine.run_trial(config, split, rng)
    return log, perf_counter() - start


@dataclass
class Outcome:
    """What one timed plan produced."""

    generations: int
    wall_s: float
    test_maes: list[float]
    failures: list[list[str]]    # problems per attempted trial
    digests: list[str]           # fingerprint per trial (or output file)
    trial_walls: list[float]

    @property
    def attempted(self) -> int:
        return len(self.failures)

    @property
    def failed(self) -> int:
        return sum(1 for problems in self.failures if problems)


def run_engine_plan(workload: Workload, inputs: Inputs, seed: int) -> Outcome:
    """In-process workloads: every trial through ``lexgp.engine.run_trial``."""
    (method,) = workload.methods
    outcome = Outcome(0, 0.0, [], [], [], [])
    for k, split in enumerate(inputs.splits):
        try:
            log, wall = run_one(workload, method, split, seed, k)
        except Exception as exc:  # a crashed trial is a failed trial, not a lost run
            traceback.print_exc()
            outcome.failures.append([f"trial raised {exc!r}"])
            outcome.digests.append("raised")
            continue
        outcome.generations += len(log.records)
        outcome.wall_s += wall
        outcome.trial_walls.append(wall)
        outcome.test_maes.append(log.test_mae)
        outcome.failures.append(gate.check_run_log(log, split, workload.generations))
        outcome.digests.append(gate.log_fingerprint(log))
    return outcome


_TRIAL_LINE = re.compile(r"^(\S+) trial (\d+): test_mae=(\S+) ")


def run_cli_matrix(workload: Workload, inputs: Inputs, seed: int, out_dir: Path,
                   jobs: int) -> tuple[float, str]:
    """The CLI workload's timed part: one ``run_experiment`` over the method
    x trial matrix. Returns its wall seconds and what it printed."""
    import lexgp.cli

    config = lexgp.cli.ExperimentConfig(
        data=str(inputs.csv_path), methods=list(workload.methods),
        trials=len(inputs.splits), seed=trial_seed(seed, 0),
        population=workload.population, generations=workload.generations,
        split=CSV_SPLIT, out=str(out_dir), jobs=jobs)
    printed = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(printed):
            lexgp.cli.run_experiment(config)
    except Exception:  # the gate reports every trial whose output is missing
        traceback.print_exc()
    return perf_counter() - start, printed.getvalue()


def check_cli_outputs(workload: Workload, inputs: Inputs, seed: int, out_dir: Path,
                      wall: float, printed: str) -> tuple[Outcome, float]:
    """Gate the matrix's CSVs, summary and printed lines, and re-run its
    first task through the library, which must reproduce that task's CSV.
    Returns the outcome and the library re-run's wall seconds."""
    trials = len(inputs.splits)
    per_trial_test: dict[str, dict[int, float]] = {m: {} for m in workload.methods}
    for line in printed.splitlines():
        match = _TRIAL_LINE.match(line)
        if match and match[1] in per_trial_test:
            per_trial_test[match[1]][int(match[2])] = float(match[3])

    tasks = [(m, k) for m in workload.methods for k in range(trials)]
    failures = {task: gate.check_trial_csv(out_dir / gate.trial_csv_name(*task),
                                           workload.generations) for task in tasks}
    for m, k in tasks:
        if k not in per_trial_test[m]:
            failures[(m, k)].append("no test_mae line printed")
    summary, medians = gate.check_summary(
        out_dir / "summary.csv", inputs.csv_path.stem,
        {m: list(v.values()) for m, v in per_trial_test.items()})
    for m, k in tasks:
        failures[(m, k)].extend(summary[m])
    expected = {gate.trial_csv_name(*task) for task in tasks} | {"summary.csv"}
    extra = sorted(p.name for p in out_dir.iterdir() if p.name not in expected)
    if extra:
        failures[tasks[0]].append(f"unexpected output files {extra}")
    spot_problems, spot_wall = spot_check(workload, inputs, seed, out_dir,
                                          per_trial_test[tasks[0][0]].get(0))
    failures[tasks[0]].extend(spot_problems)

    digests = [gate.csv_fingerprint(path) for path in sorted(out_dir.glob("*.csv"))]
    outcome = Outcome(len(tasks) * workload.generations, wall, list(medians.values()),
                      [failures[task] for task in tasks], digests, [])
    return outcome, spot_wall


def spot_check(workload: Workload, inputs: Inputs, seed: int, out_dir: Path,
               printed_test_mae: float | None) -> tuple[list[str], float]:
    """Re-run the matrix's first task through the library: the log must pass
    the gate, match the CLI's CSV bit for bit except wall time, and match
    the test MAE the CLI printed."""
    method = workload.methods[0]
    log, wall = run_one(workload, method, inputs.splits[0], seed, 0)
    problems = gate.check_run_log(log, inputs.splits[0], workload.generations)
    path = out_dir / gate.trial_csv_name(method, 0)
    if path.is_file():
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        library = [[repr(r.generation), repr(r.best_train_mae), repr(r.diversity),
                    repr(r.median_cases_used)] for r in log.records]
        if [row[:4] for row in rows] != library:
            problems.append(f"{path.name} differs from a library re-run of the same trial")
    if printed_test_mae is None or float(f"{log.test_mae:.6g}") != printed_test_mae:
        problems.append(f"printed test MAE {printed_test_mae!r}, library re-run "
                        f"{log.test_mae!r}")
    return [f"spot check: {p}" for p in problems], wall
