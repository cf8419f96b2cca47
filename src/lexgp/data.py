"""Dataset loading, normalization, splitting, and the built-in benchmark."""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

# Training columns with a standard deviation below this are treated as
# constant and left unnormalized.
CONSTANT_STD = 1e-12


class LoadError(ValueError):
    """A CSV file could not be turned into a valid dataset."""


@dataclass
class Dataset:
    """An N x D feature matrix with a length-N target vector."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2 or self.y.ndim != 1:
            raise ValueError("X must be 2-D and y 1-D")
        n, d = self.X.shape
        if n < 1 or d < 1 or self.y.shape[0] != n:
            raise ValueError(f"inconsistent dataset shapes {self.X.shape}, {self.y.shape}")
        if not (np.isfinite(self.X).all() and np.isfinite(self.y).all()):
            raise ValueError("dataset contains non-finite values")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]


@dataclass
class SplitDataset:
    """Train/test partition, both normalized by training statistics."""

    train: Dataset
    test: Dataset


def load_csv(path, target: str | None = None) -> Dataset:
    """Read a comma-separated file with a header row into a Dataset.

    The target column is selected by name, defaulting to the last column;
    column names must be distinct after stripping whitespace. Every cell
    must parse as a finite real; violations raise LoadError naming the
    offending row by its line in the file, and its column. Empty and
    whitespace-only lines are skipped, a leading UTF-8 BOM is dropped, and
    an unreadable or non-UTF-8 file raises LoadError naming the path.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader if ",".join(row).strip()]
    except OSError as exc:
        raise LoadError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise LoadError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not rows:
        raise LoadError(f"{path}: empty file")
    header = [h.strip() for h in rows[0][1]]
    seen = set()
    for name in header:
        if name in seen:
            # header.index would take the first copy, and a second copy of
            # the target would silently become a feature.
            raise LoadError(f"{path}: duplicate column name {name!r}")
        seen.add(name)
    if len(header) < 2:
        raise LoadError(f"{path}: need at least one feature column and a target")
    if target is None:
        target_idx = len(header) - 1
    else:
        if target not in header:
            raise LoadError(f"{path}: no column named {target!r} (have {header})")
        target_idx = header.index(target)

    values = np.empty((len(rows) - 1, len(header)), dtype=float)
    for i, (r, row) in enumerate(rows[1:]):
        if len(row) != len(header):
            raise LoadError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
        for c, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise LoadError(
                    f"{path}: row {r}, column {header[c]!r}: cannot parse {cell!r}"
                ) from None
            if not math.isfinite(v):
                raise LoadError(f"{path}: row {r}, column {header[c]!r}: non-finite value {cell!r}")
            values[i, c] = v
    if values.shape[0] == 0:
        raise LoadError(f"{path}: no data rows")

    feature_cols = [c for c in range(len(header)) if c != target_idx]
    return Dataset(values[:, feature_cols], values[:, target_idx])


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset so that load_csv reproduces it bit for bit."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(dataset.n_features)] + ["y"])
        for row, target in zip(dataset.X, dataset.y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(target))])


def _normalized_split(train: Dataset, test: Dataset) -> SplitDataset:
    """Center/scale both splits using training-split statistics only."""
    mean = train.X.mean(axis=0)
    std = train.X.std(axis=0)
    constant = std < CONSTANT_STD
    if constant.any():
        cols = np.flatnonzero(constant).tolist()
        logger.warning("constant feature columns left unnormalized: %s", cols)
    mean = np.where(constant, 0.0, mean)
    std = np.where(constant, 1.0, std)

    y_mean = float(train.y.mean())
    y_std = float(train.y.std())
    if y_std < CONSTANT_STD:
        logger.warning("constant target left unnormalized")
        y_mean, y_std = 0.0, 1.0

    def apply(ds: Dataset) -> Dataset:
        return Dataset((ds.X - mean) / std, (ds.y - y_mean) / y_std)

    return SplitDataset(apply(train), apply(test))


def split_normalize(dataset: Dataset, ratio: float = 0.7, rng=None) -> SplitDataset:
    """Randomly partition rows into train/test and normalize both splits.

    The training share is round(ratio * N), clamped so both splits are
    nonempty. Statistics come from the training split alone.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")
    n = dataset.n_rows
    if n < 2:
        raise ValueError("need at least two rows to split")
    rng = rng if rng is not None else np.random.default_rng()
    perm = rng.permutation(n)
    n_train = min(max(int(round(ratio * n)), 1), n - 1)
    train_rows, test_rows = perm[:n_train], perm[n_train:]
    train = Dataset(dataset.X[train_rows], dataset.y[train_rows])
    test = Dataset(dataset.X[test_rows], dataset.y[test_rows])
    return _normalized_split(train, test)


def uball5d(X) -> np.ndarray:
    """Benchmark target: 10 / (5 + sum_i (x_i - 3)^2) over five features."""
    X = np.asarray(X, dtype=float)
    return 10.0 / (5.0 + ((X - 3.0) ** 2).sum(axis=-1))


def generate_uball5d(n_train: int = 1024, n_test: int = 5000, rng=None) -> SplitDataset:
    """Sample the five-feature benchmark with its own pre-sized test set.

    Features are drawn uniformly from [0.05, 6.05]; targets come from the
    closed-form response surface before normalization.
    """
    if n_train < 1 or n_test < 1:
        raise ValueError("sample counts must be positive")
    rng = rng if rng is not None else np.random.default_rng()
    X_train = rng.uniform(0.05, 6.05, size=(n_train, 5))
    X_test = rng.uniform(0.05, 6.05, size=(n_test, 5))
    return _normalized_split(Dataset(X_train, uball5d(X_train)),
                             Dataset(X_test, uball5d(X_test)))
