"""Dataset loading, normalization, noise blending and splitting.

"Blended" data is a regression table augmented with irrelevant Gaussian
noise columns of prescribed variances, used to stress-test robustness.
Every operation here is deterministic given its seeds, so a (file,
noise spec, split spec) triple pins the train/test matrices exactly.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DataError(Exception):
    """Raised when a dataset file cannot be parsed or is inconsistent."""


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray
    y: np.ndarray
    feature_names: tuple
    name: str

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] != y.size or X.shape[0] < 1:
            raise DataError("X must be 2-D with one y entry per row")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise DataError("dataset contains non-finite values")
        names = tuple(str(n) for n in self.feature_names)
        if len(names) != X.shape[1]:
            raise DataError("feature_names must list one name per column")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_samples(self):
        return self.X.shape[0]

    @property
    def n_features(self):
        return self.X.shape[1]


@dataclass(frozen=True)
class NoiseSpec:
    """Variances of the irrelevant Gaussian columns to append, plus a seed."""

    variances: tuple
    seed: int = 0

    def __post_init__(self):
        v = tuple(float(x) for x in self.variances)
        if len(v) == 0 or any(x <= 0.0 for x in v):
            raise ValueError("variances must be non-empty and positive")
        object.__setattr__(self, "variances", v)


@dataclass(frozen=True)
class SplitSpec:
    """The first n_train rows, in file order, go to train."""

    n_train: int

    def __post_init__(self):
        if self.n_train < 1:
            raise ValueError("n_train must be positive")


def load_csv(path, target_column, has_header=True, categorical=None, name=None):
    """Load a comma-separated regression table.

    Parameters
    ----------
    path : str or Path
    target_column : str or int
        Column holding the target, by header name or 0-based index.
    has_header : bool
    categorical : dict, optional
        Per-column encodings for non-numeric cells, keyed by column name
        or index: {"sex": {"M": 1.0, "F": -1.0, "I": 0.0}}.
    name : str, optional
        Dataset name; defaults to the file stem.

    Raises DataError with the offending row/column on any parse failure.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]
    if not rows:
        raise DataError(f"{path}: file is empty")

    header = None
    if has_header:
        header = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
        if not rows:
            raise DataError(f"{path}: no data rows below the header")
    n_cols = len(rows[0])
    names = header if header is not None else [f"col{i}" for i in range(n_cols)]

    def column_index(key):
        if isinstance(key, int):
            if not 0 <= key < n_cols:
                raise DataError(f"{path}: column index {key} out of range (0..{n_cols - 1})")
            return key
        if header is None:
            raise DataError(f"{path}: column named {key!r} needs a header row")
        try:
            return header.index(key)
        except ValueError:
            raise DataError(f"{path}: no column named {key!r} in header") from None

    target_idx = column_index(target_column)
    encodings = {}
    for key, mapping in (categorical or {}).items():
        encodings[column_index(key)] = {str(k): float(v) for k, v in mapping.items()}

    data = np.empty((len(rows), n_cols))
    for r, row in enumerate(rows):
        if len(row) != n_cols:
            raise DataError(
                f"{path}: row {r + 1} has {len(row)} columns, expected {n_cols}"
            )
        for c, cell in enumerate(row):
            cell = cell.strip()
            if c in encodings:
                if cell in encodings[c]:
                    data[r, c] = encodings[c][cell]
                    continue
                raise DataError(
                    f"{path}: row {r + 1}, column {names[c]!r}: "
                    f"unknown category {cell!r}"
                )
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: row {r + 1}, column {names[c]!r}: "
                    f"cannot parse {cell!r} as a number"
                ) from None
            if not np.isfinite(value):
                raise DataError(
                    f"{path}: row {r + 1}, column {names[c]!r}: non-finite value"
                )
            data[r, c] = value

    keep = [i for i in range(n_cols) if i != target_idx]
    return Dataset(
        X=data[:, keep],
        y=data[:, target_idx],
        feature_names=tuple(names[i] for i in keep),
        name=name if name is not None else path.stem,
    )


@dataclass(frozen=True)
class NormalizationParams:
    """Per-column z-score statistics fitted on the training rows."""

    mean: np.ndarray
    std: np.ndarray
    constant: np.ndarray  # columns with zero range map to zero


def fit_normalization(ds):
    X = ds.X
    if ds.n_samples < 2:
        raise ValueError("normalization needs at least two rows")
    constant = X.max(axis=0) == X.min(axis=0)
    mean = X.mean(axis=0)
    std = X.std(axis=0)  # population convention
    std = np.where(constant | (std == 0.0), 1.0, std)
    return NormalizationParams(mean=mean, std=std, constant=constant)


def apply_normalization(ds, params):
    Z = ds.X - params.mean
    Z /= params.std
    Z[:, params.constant] = 0.0
    return Dataset(X=Z, y=ds.y, feature_names=ds.feature_names, name=ds.name)


def blend_noise(ds, spec):
    """Append one irrelevant N(0, variance) column per entry of the spec.

    Columns are drawn one at a time from a stream seeded by spec.seed, so
    the blend is reproducible; the original columns are untouched.
    """
    rng = np.random.default_rng(spec.seed)
    cols = [rng.normal(0.0, np.sqrt(v), size=ds.n_samples) for v in spec.variances]
    X = np.column_stack([ds.X] + cols)
    names = ds.feature_names + tuple(
        f"noise{k + 1}_var{v:g}" for k, v in enumerate(spec.variances)
    )
    return Dataset(X=X, y=ds.y, feature_names=names, name=ds.name)


def split(ds, spec):
    """Deterministic train/test split: the first n_train rows train, the rest test."""
    n = ds.n_samples
    if n < 2:
        raise ValueError(f"{ds.name}: a train/test split needs at least 2 rows, got {n}")
    if not 1 <= spec.n_train < n:
        raise ValueError(f"n_train must be in [1, {n - 1}], got {spec.n_train}")

    def take(rows, suffix):
        return Dataset(
            X=ds.X[rows].copy(),
            y=ds.y[rows].copy(),
            feature_names=ds.feature_names,
            name=f"{ds.name}/{suffix}",
        )

    return take(slice(spec.n_train), "train"), take(slice(spec.n_train, n), "test")


def make_blended_split(ds, noise_spec, split_spec):
    """Canonical blended-benchmark pipeline.

    Blend the full dataset (one noise draw across all rows), split, then
    z-score the original feature columns with training-row statistics.
    The appended noise columns stay raw, keeping the deliberate variance
    spread that makes them distinguishable from the real features. A
    `noise_spec` of None blends no columns: split, then z-score them all.

    Returns (train, test, params); params is the identity on the noise columns.
    """
    blended = ds if noise_spec is None else blend_noise(ds, noise_spec)
    train, test = split(blended, split_spec)
    params = fit_normalization(train)
    d = ds.n_features
    params.mean[d:] = 0.0
    params.std[d:] = 1.0
    params.constant[d:] = False
    return apply_normalization(train, params), apply_normalization(test, params), params


def save_csv(ds, path, manifest=None):
    """Persist a dataset as CSV (features then a final `target` column).

    When `manifest` is given (a flat dict), a plain-text sidecar
    `<path>.manifest.txt` records it together with the dataset shape so
    the file can be reproduced exactly.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + ["target"])
        for i in range(ds.n_samples):
            writer.writerow([repr(float(v)) for v in ds.X[i]] + [repr(float(ds.y[i]))])
    if manifest is not None:
        lines = [f"dataset: {ds.name}", f"rows: {ds.n_samples}", f"features: {ds.n_features}"]
        lines += [f"{k}: {v}" for k, v in manifest.items()]
        Path(f"{path}.manifest.txt").write_text("\n".join(lines) + "\n")
    return path
