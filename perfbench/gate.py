"""Correctness gate and RNG fingerprints.

The gate accepts a trial only when its outputs are internally consistent and
its best program, re-scored by the reference evaluator, reproduces the
train and test errors the run reported. A fingerprint is a digest of every
non-timing output, so a later change can show that it left the RNG stream
and every result bit-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from . import reference

# Exact equality is expected; the tolerance only absorbs a different
# summation order in a mean over a few thousand absolute errors.
REL_TOL = 1e-12

GENERATION_COLUMNS = ["generation", "best_train_mae", "diversity",
                      "median_cases_used", "elapsed_s"]
SUMMARY_COLUMNS = ["method", "problem", "median_test_mae", "rank", "total_time_s"]
TIMING_COLUMNS = {"elapsed_s", "total_time_s"}


def _node_token(node) -> str:
    if isinstance(node, float):
        return float(node).hex()
    if isinstance(node, int):
        return f"x{node}"
    return str(node.name)


def _records_problems(rows, generations: int) -> list[str]:
    """Checks shared by in-memory logs and trial CSVs. ``rows`` holds
    (generation, best_train_mae, diversity, median_cases_used, elapsed_s)."""
    problems = []
    if len(rows) != generations:
        problems.append(f"{len(rows)} generation records, expected {generations}")
    for k, (gen, best, div, cases, elapsed) in enumerate(rows):
        if gen != k:
            problems.append(f"record {k} is labelled generation {gen}")
        if not all(math.isfinite(v) for v in (best, div, cases, elapsed)):
            problems.append(f"generation {k} has a non-finite value")
        elif not (best >= 0 and 0 < div <= 1 and cases >= 0 and elapsed >= 0):
            problems.append(f"generation {k} has an out-of-range value")
    bests = [row[1] for row in rows]
    if any(later > earlier for earlier, later in zip(bests, bests[1:])):
        problems.append("best_train_mae increases across generations")
    return problems


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def check_run_log(log, split, generations: int, size_limits=(3, 50)) -> list[str]:
    """Problems found in one trial's RunLog; empty when it passes."""
    rows = [(r.generation, r.best_train_mae, r.diversity, r.median_cases_used, r.elapsed_s)
            for r in log.records]
    problems = _records_problems(rows, generations)
    if rows and not log.best_train_mae <= rows[-1][1]:
        problems.append("final best_train_mae is worse than the last generation's")
    nodes = log.best_program.nodes
    if not size_limits[0] <= len(nodes) <= size_limits[1]:
        problems.append(f"best program has {len(nodes)} nodes, outside {size_limits}")
    try:
        train = reference.mae(nodes, split.train.X, split.train.y)
        test = reference.mae(nodes, split.test.X, split.test.y)
    except ValueError as exc:
        return problems + [f"best program does not evaluate: {exc}"]
    if not _close(train, log.best_train_mae):
        problems.append(f"reported train MAE {log.best_train_mae!r}, reference {train!r}")
    if not _close(test, log.test_mae):
        problems.append(f"reported test MAE {log.test_mae!r}, reference {test!r}")
    return problems


def log_fingerprint(log) -> str:
    """Digest of ``RunLog.without_timing()``."""
    plain = log.without_timing()
    record = {
        "records": [[r.generation, r.best_train_mae.hex(), r.diversity.hex(),
                     r.median_cases_used.hex()] for r in plain.records],
        "best_program": [_node_token(n) for n in plain.best_program.nodes],
        "best_age": plain.best_program.age,
        "best_train_mae": plain.best_train_mae.hex(),
        "test_mae": plain.test_mae.hex(),
    }
    return hashlib.sha256(json.dumps(record, separators=(",", ":")).encode()).hexdigest()


def combine(digests) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def csv_fingerprint(path: Path) -> str:
    """Digest of a CSV without its wall-clock column."""
    header, rows = _read_csv(path)
    keep = [i for i, name in enumerate(header) if name not in TIMING_COLUMNS]
    text = "\n".join(",".join(row[i] for i in keep if i < len(row))
                     for row in [header] + rows)
    return hashlib.sha256(f"{path.name}\n{text}".encode()).hexdigest()


def trial_csv_name(method: str, trial: int) -> str:
    return f"{method}_trial{trial:03d}.csv"


def check_trial_csv(path: Path, generations: int) -> list[str]:
    """Problems in one per-trial generation log written by the CLI."""
    if not path.is_file():
        return [f"{path.name} is missing"]
    header, rows = _read_csv(path)
    if header != GENERATION_COLUMNS:
        return [f"{path.name} has header {header}"]
    try:
        parsed = [(int(r[0]), float(r[1]), float(r[2]), float(r[3]), float(r[4]))
                  for r in rows]
    except (ValueError, IndexError) as exc:
        return [f"{path.name} does not parse: {exc}"]
    return [f"{path.name}: {p}" for p in _records_problems(parsed, generations)]


def mean_ranks(values: list[float]) -> list[float]:
    """Ascending ranks from 1; equal values share their mean rank."""
    return [sum(1 for w in values if w < v) + (sum(1 for w in values if w == v) + 1) / 2
            for v in values]


def check_summary(path: Path, problem: str, per_trial_test: dict[str, list[float]]
                  ) -> tuple[dict[str, list[str]], dict[str, float]]:
    """Problems in summary.csv keyed by the method they concern, and each
    method's median test MAE as the summary states it.

    ``per_trial_test`` maps each method to the test MAEs the run printed for
    its trials (six significant digits), so the summary's medians are checked
    against the trials rather than taken on trust.
    """
    methods = sorted(per_trial_test)
    if not path.is_file():
        return {m: ["summary.csv is missing"] for m in methods}, {}
    header, rows = _read_csv(path)
    if header != SUMMARY_COLUMNS:
        return {m: [f"summary.csv has header {header}"] for m in methods}, {}
    problems: dict[str, list[str]] = {m: [] for m in methods}
    by_method = {}
    for row in rows:
        if len(row) != len(SUMMARY_COLUMNS) or row[0] not in problems or row[0] in by_method:
            return {m: [f"summary.csv has an unexpected row {row}"] for m in methods}, {}
        by_method[row[0]] = row
    medians = {}
    for m in methods:
        if m not in by_method:
            problems[m].append("no summary row")
            continue
        _, prob, median, rank, total = by_method[m]
        try:
            median, rank, total = float(median), float(rank), float(total)
        except ValueError:
            problems[m].append(f"summary row does not parse: {by_method[m]}")
            continue
        medians[m] = (median, rank)
        if prob != problem:
            problems[m].append(f"summary names problem {prob!r}, expected {problem!r}")
        if not (math.isfinite(median) and median >= 0 and math.isfinite(total) and total >= 0):
            problems[m].append("summary row has an out-of-range value")
        expected = float(np.median(per_trial_test[m])) if per_trial_test[m] else math.nan
        if not math.isclose(median, expected, rel_tol=1e-5):
            problems[m].append(f"median_test_mae {median!r}, trials give {expected!r}")
    if len(medians) == len(methods):
        expected_ranks = mean_ranks([medians[m][0] for m in methods])
        for m, want in zip(methods, expected_ranks):
            if medians[m][1] != want:
                problems[m].append(f"rank {medians[m][1]}, expected {want}")
    return problems, {m: median for m, (median, _) in medians.items()}
