"""Datasets with domain structure: synthetic generators, CSV loading,
train-statistics standardization and evaluation metrics.

Both synthetic problems draw training data almost entirely from one cluster
of input space plus a handful of points from a second cluster, and test
entirely on the second cluster, so a model that keys on the majority
cluster's length-scale extrapolates badly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DilgpError, DimensionMismatch, InvalidDomainTag, NonFiniteInput
from .rng import rng_for


def check_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    """X and y as float arrays, checked as every fit needs them: X 2-D with at
    least one row, y of shape (n,), both finite. Code that takes X and y as
    this returns them (gp.gram_posterior, train.TrainState) checks nothing."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch(f"X must be 2-D, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise DimensionMismatch(f"y must have shape ({X.shape[0]},), got {y.shape}")
    if X.shape[0] < 1:
        raise DimensionMismatch("need at least one training point")
    if not np.isfinite(X).all():
        raise NonFiniteInput("inputs contain NaN or infinity")
    if not np.isfinite(y).all():
        raise NonFiniteInput("targets contain NaN or infinity")
    return X, y


@dataclass
class Dataset:
    """Feature matrix, targets and an optional per-row domain tag.

    Domain tags are carried for evaluation and reporting only; training code
    never reads them. Each must be an integer an int64 holds (2.0 is, 1.7,
    NaN and 2**63 are not); InvalidDomainTag names the first row that is not.
    """

    x: np.ndarray
    y: np.ndarray
    domain_tag: np.ndarray | None = None
    dropped_rows: int = 0

    def __post_init__(self):
        self.x, self.y = check_xy(self.x, self.y)
        if self.domain_tag is not None:
            self.domain_tag = _int_tags(self.domain_tag, self.y.shape)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            cols = [f"x{i}" for i in range(self.d)] + ["y"]
            if self.domain_tag is not None:
                cols.append("domain")
            writer.writerow(cols)
            for i in range(self.n):
                row = [repr(float(v)) for v in self.x[i]] + [repr(float(self.y[i]))]
                if self.domain_tag is not None:
                    row.append(str(int(self.domain_tag[i])))
                writer.writerow(row)


def _holds_int64(tag: np.ndarray) -> np.ndarray:
    """Which float tags are integers an int64 holds: the rule Dataset refuses
    a tag by and load_csv drops a row by."""
    return np.isfinite(tag) & (tag == np.trunc(tag)) & (-2.0 ** 63 <= tag) & (tag < 2.0 ** 63)


def _int_tags(tag, shape: tuple[int, ...]) -> np.ndarray:
    """The domain tags as int64, each an integer an int64 holds."""
    tag = np.asarray(tag)
    if tag.shape != shape:
        raise DimensionMismatch(f"domain_tag must have shape {shape}, got {tag.shape}")
    if tag.dtype.kind in "bi":
        return tag.astype(np.int64)
    if tag.dtype.kind == "u":
        ok = tag <= np.iinfo(np.int64).max
    else:
        try:
            tag = tag.astype(float)
        except (TypeError, ValueError):
            raise InvalidDomainTag(f"domain_tag must hold numbers, got dtype {tag.dtype}") from None
        ok = _holds_int64(tag)
    if not ok.all():
        row = int(np.flatnonzero(~ok)[0])
        raise InvalidDomainTag(f"domain_tag row {row} is {tag[row].item()!r}, "
                               "not an integer an int64 holds")
    return tag.astype(np.int64)


def synthetic_1d_mean(x: np.ndarray, cluster: int) -> np.ndarray:
    """Noise-free target of the 1-D problem for the given cluster."""
    x = np.asarray(x, dtype=float)
    if cluster == 0:
        return 3.0 * np.sin(x / (2.0 * np.pi))
    if cluster == 1:
        return -np.sin((x - 6.5) / (32.0 * np.pi)) + 0.5
    raise ValueError(f"cluster must be 0 or 1, got {cluster}")


def synthetic_2d_mean(X: np.ndarray, cluster: int) -> np.ndarray:
    """Noise-free target of the 2-D problem for the given cluster."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != 2:
        raise DimensionMismatch(f"expected shape (n, 2), got {X.shape}")
    if cluster == 0:
        return 1.5 * np.sin(30.0 * X[:, 0] + 20.0) + 1.5 * np.sin(30.0 * X[:, 1] + 20.0)
    if cluster == 1:
        return 0.5 * np.sin(50.0 * X[:, 0] + 20.0) + 0.5 * np.sin(50.0 * X[:, 1] + 20.0) + 1.1
    raise ValueError(f"cluster must be 0 or 1, got {cluster}")


def gen_synthetic_1d(seed: int) -> tuple[Dataset, Dataset]:
    """1-D shifted-cluster problem.

    Training: 100 points with x ~ N(0, 1) plus 15 points with x ~ N(6.5, 1).
    Test: 80 points from the second cluster. Targets are the cluster mean
    functions with additive Gaussian noise (variance 0.1, scaled by 3 on the
    first cluster's target).
    """
    rng = rng_for(seed, "synthetic-1d")
    s = math.sqrt(0.1)
    x1 = rng.normal(0.0, 1.0, 100)
    y1 = synthetic_1d_mean(x1, 0) + 3.0 * s * rng.standard_normal(100)
    x2_tr = rng.normal(6.5, 1.0, 15)
    y2_tr = synthetic_1d_mean(x2_tr, 1) + s * rng.standard_normal(15)
    x2_te = rng.normal(6.5, 1.0, 80)
    y2_te = synthetic_1d_mean(x2_te, 1) + s * rng.standard_normal(80)
    train = Dataset(np.concatenate([x1, x2_tr])[:, None],
                    np.concatenate([y1, y2_tr]),
                    np.concatenate([np.zeros(100, int), np.ones(15, int)]))
    test = Dataset(x2_te[:, None], y2_te, np.ones(80, int))
    return train, test


def gen_synthetic_2d(seed: int) -> tuple[Dataset, Dataset]:
    """2-D shifted-cluster problem (100 + 15 train, 80 test).

    Clusters sit at (0.3, 0.3) and (0.7, 0.7) with covariance 0.01 I. Noise
    is added per input coordinate (variances 0.1 and 0.05) and summed.
    """
    rng = rng_for(seed, "synthetic-2d")
    s1 = math.sqrt(0.1)
    s2 = math.sqrt(0.05)
    x1 = 0.3 + 0.1 * rng.standard_normal((100, 2))
    y1 = synthetic_2d_mean(x1, 0) + s1 * rng.standard_normal((100, 2)).sum(axis=1)
    x2_tr = 0.7 + 0.1 * rng.standard_normal((15, 2))
    y2_tr = synthetic_2d_mean(x2_tr, 1) + s2 * rng.standard_normal((15, 2)).sum(axis=1)
    x2_te = 0.7 + 0.1 * rng.standard_normal((80, 2))
    y2_te = synthetic_2d_mean(x2_te, 1) + s2 * rng.standard_normal((80, 2)).sum(axis=1)
    train = Dataset(np.vstack([x1, x2_tr]),
                    np.concatenate([y1, y2_tr]),
                    np.concatenate([np.zeros(100, int), np.ones(15, int)]))
    test = Dataset(x2_te, y2_te, np.ones(80, int))
    return train, test


GENERATORS = {"synthetic_1d": gen_synthetic_1d, "synthetic_2d": gen_synthetic_2d}


def load_csv(path, target_column: str, feature_columns: list[str] | None = None,
             domain_column: str | None = None) -> Dataset:
    """Read a dataset from CSV with a header row.

    Rows with unparseable or non-finite numeric cells, or a domain tag that
    is not an integer an int64 holds (1.5, 1e20), are dropped and counted in
    Dataset.dropped_rows. A file that cannot be opened, or unknown column
    names, raise an error (the latter listing the columns that are present).
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DilgpError(f"{path}: cannot open: {exc.strerror}") from None
    with fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if not header:
            raise DilgpError(f"{path}: empty file, no header row")
        wanted = [target_column] + (feature_columns or []) + ([domain_column] if domain_column else [])
        missing = [c for c in wanted if c not in header]
        if missing:
            raise DilgpError(f"{path}: missing column(s) {missing}; file has {header}")
        if feature_columns is None:
            feature_columns = [c for c in header if c not in (target_column, domain_column)]
            if not feature_columns:
                raise DilgpError(f"{path}: no feature columns left after excluding "
                                 f"{target_column!r} and {domain_column!r}")
        # each parsed row is its features, its target and its tag (0 without a column)
        rows, dropped = [], 0
        for row in reader:
            try:
                rows.append([float(row[c]) for c in feature_columns + [target_column]]
                            + [float(row[domain_column]) if domain_column else 0.0])
            except (TypeError, ValueError):
                dropped += 1
    cells = np.array(rows, dtype=float).reshape(len(rows), len(feature_columns) + 2)
    keep = np.isfinite(cells[:, :-1]).all(axis=1) & _holds_int64(cells[:, -1])
    dropped += int(np.count_nonzero(~keep))
    if not keep.any():
        raise DilgpError(f"{path}: no parseable data rows (dropped {dropped})")
    return Dataset(cells[keep, :-2], cells[keep, -2],
                   cells[keep, -1] if domain_column else None, dropped_rows=dropped)


@dataclass(frozen=True)
class Standardizer:
    """Column statistics fitted on training data only, or the identity."""

    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float

    @classmethod
    def identity(cls, d: int) -> "Standardizer":
        """Zero means and unit stds: (v - 0) / 1 and 0 + 1 * v are exact, so
        every map leaves its input's values unchanged."""
        return cls(np.zeros(d), np.ones(d), 0.0, 1.0)

    def transform_x(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.x_mean) / self.x_std

    def transform_y(self, y):
        return (np.asarray(y, dtype=float) - self.y_mean) / self.y_std

    def inverse_y(self, y_std_units: np.ndarray) -> np.ndarray:
        return self.y_mean + self.y_std * np.asarray(y_std_units, dtype=float)

    def scale_y(self, std_units: np.ndarray) -> np.ndarray:
        """Map a predictive std (or any y-scale quantity) back to raw units."""
        return self.y_std * np.asarray(std_units, dtype=float)


def fit_standardizer(train: Dataset) -> Standardizer:
    """Train means and stds; a zero std (a constant column or target) is
    replaced by 1, so that column is centered but not rescaled."""
    x_std = train.x.std(axis=0)
    y_std = float(train.y.std())
    return Standardizer(train.x.mean(axis=0), np.where(x_std == 0.0, 1.0, x_std),
                        float(train.y.mean()), y_std if y_std != 0.0 else 1.0)


@dataclass
class EvalReport:
    """Held-out metrics of one fitted model."""

    rmse: float
    n_test: int
    coverage_rate: float
    per_domain_rmse: dict | None = None

    def to_json_dict(self) -> dict:
        out = {"rmse": self.rmse, "n_test": self.n_test, "coverage_rate": self.coverage_rate}
        if self.per_domain_rmse is not None:
            out["per_domain_rmse"] = {str(k): v for k, v in sorted(self.per_domain_rmse.items())}
        return out


def rmse(pred, truth) -> float:
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape or pred.ndim != 1 or pred.shape[0] < 1:
        raise DimensionMismatch(f"shape mismatch {pred.shape} vs {truth.shape}")
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def coverage_rate(pred_mean, pred_std, truth) -> float:
    """Fraction of targets within one predictive standard deviation of the mean."""
    pred_mean = np.asarray(pred_mean, dtype=float)
    pred_std = np.asarray(pred_std, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if not (truth.shape == pred_mean.shape == pred_std.shape):
        raise DimensionMismatch(
            f"shape mismatch {pred_mean.shape} vs {pred_std.shape} vs {truth.shape}")
    if np.any(pred_std < 0):
        raise NonFiniteInput("predictive std must be >= 0")
    return float(np.mean(np.abs(truth - pred_mean) <= pred_std))
