"""Benchmark regression tasks.

`make_waveform` implements the classic three-base-wave generator (21
noisy attributes, three classes used here as a numeric target), so that
task is produced from its defining algorithm rather than a stored file.

The `*_task` generators for the housing, abalone and red-wine tables are
schema-matched synthetic stand-ins: same row/column counts, feature kinds
and target scale as the well-known UCI tables, built from documented
latent-factor models. They exist so the benchmark harness runs fully
offline; `benchmark_task` prefers a real CSV dropped into the data
directory and falls back to the generator otherwise (see data/README.md
for the expected file layout).
"""

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DataError, Dataset, SplitSpec, load_csv


def make_synthetic_regression(n_samples=200, n_features=4, seed=0, noise_std=0.1):
    """Small smooth regression problem for tests and demos."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(n_samples, n_features))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1 % n_features] ** 2
    if n_features >= 3:
        y = y + 0.3 * X[:, 2] * X[:, 0]
    y = y + rng.normal(0.0, noise_std, size=n_samples)
    names = tuple(f"x{i}" for i in range(n_features))
    return Dataset(X=X, y=y, feature_names=names, name="synthetic")


def make_waveform(n_samples=5000, seed=0):
    """Three-base-wave task: 21 attributes, class label as numeric target.

    Each sample is a random convex combination of two of three triangular
    base waves (peaks at positions 7, 15 and 11, height 6) plus unit
    Gaussian noise on every attribute; the class (0, 1, 2) names the pair.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(1, 22, dtype=float)
    peaks = np.array([7.0, 15.0, 11.0])
    base = np.maximum(6.0 - np.abs(t[None, :] - peaks[:, None]), 0.0)
    pairs = np.array([(0, 1), (0, 2), (1, 2)])
    cls = rng.integers(0, 3, size=n_samples)
    u = rng.random(n_samples)[:, None]
    ab = pairs[cls]
    X = u * base[ab[:, 0]] + (1.0 - u) * base[ab[:, 1]]
    X = X + rng.normal(0.0, 1.0, size=X.shape)
    names = tuple(f"w{i}" for i in range(1, 22))
    return Dataset(X=X, y=cls.astype(float), feature_names=names, name="waveform")


def make_housing_task(seed=0):
    """Housing-style table: 506 rows, 13 features, price-like target.

    Latent neighbourhood quality and industrial intensity drive skewed
    crime, pollution, room counts and status features; the target mixes
    linear, curved and interaction effects plus N(0, 2^2) noise, clipped
    to the conventional 5..50 price band.
    """
    rng = np.random.default_rng(seed)
    n = 506
    quality = rng.beta(2.0, 2.0, n)
    industry = rng.beta(2.0, 5.0, n)

    crim = np.exp(rng.normal(-2.0, 1.1, n)) * (1.0 + 6.0 * (1.0 - quality) ** 2)
    zn = np.where(rng.random(n) < 0.7, 0.0, 100.0 * quality * rng.random(n))
    indus = np.clip(2.0 + 25.0 * industry + rng.normal(0.0, 1.5, n), 0.5, 28.0)
    chas = (rng.random(n) < 0.07).astype(float)
    nox = np.clip(0.40 + 0.35 * industry + 0.05 * rng.random(n), 0.38, 0.88)
    rooms = 6.3 + 1.5 * (quality - 0.5) + rng.normal(0.0, 0.45, n)
    age = np.clip(100.0 * (0.35 + 0.6 * industry + rng.normal(0.0, 0.20, n)), 2.9, 100.0)
    dist = np.clip(np.exp(rng.normal(1.1, 0.5, n)) * (1.0 - 0.5 * industry), 1.1, 12.5)
    rad = np.where(rng.random(n) < 0.25, 24.0, rng.integers(1, 9, n).astype(float))
    tax = np.clip(280.0 + 400.0 * industry + rng.normal(0.0, 30.0, n), 187.0, 711.0)
    ptratio = np.clip(14.0 + 7.0 * (1.0 - quality) + rng.normal(0.0, 1.2, n), 12.6, 22.0)
    b = np.clip(396.9 - 400.0 * rng.beta(1.2, 9.0, n), 0.3, 396.9)
    lstat = np.clip(
        2.0 + 28.0 * (1.0 - quality) * rng.beta(2.0, 3.0, n) + rng.normal(0.0, 1.5, n),
        1.0,
        38.0,
    )

    X = np.column_stack(
        [crim, zn, indus, chas, nox, rooms, age, dist, rad, tax, ptratio, b, lstat]
    )
    names = (
        "crim", "zn", "indus", "chas", "nox", "rm", "age",
        "dis", "rad", "tax", "ptratio", "b", "lstat",
    )
    y_clean = (
        22.5
        + 6.8 * (rooms - 6.3)
        - 0.38 * (lstat - 11.0)
        + 0.012 * (lstat - 11.0) ** 2
        - 10.0 * (nox - 0.55)
        + 2.5 * chas
        - 0.35 * (ptratio - 17.5)
        - 1.1 * np.log1p(crim)
        + 1.2 * np.log(dist)
    )
    y = np.clip(y_clean + rng.normal(0.0, 2.0, n), 5.0, 50.0)
    return Dataset(X=X, y=y, feature_names=names, name="housing")


def make_abalone_task(seed=0):
    """Abalone-style table: 4177 rows, 1 discrete + 7 continuous features.

    A latent age drives saturating shell sizes and allometric weights;
    the ring-count target is the latent age plus noise, rounded and
    clipped to 1..29. Sex is encoded -1/0/+1 with infants skewed young.
    Two traits of the real table are kept deliberately: the morphometric
    block is almost perfectly collinear (near rank-2 once sex is known),
    which makes single random-feature regressors seed-sensitive, and the
    file order drifts (later rows skew older), so the conventional
    head/tail split carries mild covariate shift.
    """
    rng = np.random.default_rng(seed)
    n = 4177
    order_drift = np.linspace(0.0, 1.0, n)
    age = rng.gamma(shape=7.5, scale=1.32 * (1.0 + 0.5 * order_drift), size=n)
    infant = rng.random(n) < 1.0 / (1.0 + np.exp((age - 8.0) / 1.6))
    male = rng.random(n) < 0.53
    sex = np.where(infant, 0.0, np.where(male, 1.0, -1.0))

    growth = age / (age + 4.5)
    meas = 0.004  # metrology-grade scatter: keeps the block near-degenerate
    length = np.clip(0.10 + 0.62 * growth * (1.0 - 0.12 * infant) + rng.normal(0, meas, n), 0.07, 0.82)
    diameter = np.clip(length * (0.80 + rng.normal(0, meas, n)), 0.05, 0.66)
    height = np.clip(length * (0.27 + rng.normal(0, meas, n)), 0.0, 0.30)
    whole = np.clip(2.6 * length**2.9 * np.exp(rng.normal(0, meas, n)), 0.002, 2.9)
    shucked = whole * np.clip(0.44 + rng.normal(0, meas, n), 0.2, 0.7)
    viscera = whole * np.clip(0.22 + rng.normal(0, meas, n), 0.08, 0.4)
    shell = whole * np.clip(0.28 + rng.normal(0, meas, n), 0.1, 0.5)

    X = np.column_stack([sex, length, diameter, height, whole, shucked, viscera, shell])
    names = (
        "sex", "length", "diameter", "height",
        "whole_weight", "shucked_weight", "viscera_weight", "shell_weight",
    )
    rings = np.clip(np.rint(age + rng.normal(0.0, 2.0, n)), 1.0, 29.0)
    return Dataset(X=X, y=rings, feature_names=names, name="abalone")


def make_wine_task(seed=0):
    """Red-wine-style table: 1599 rows, 11 physicochemical features.

    Alcohol, volatile acidity and sulphates carry most of the signal, as
    in the familiar quality-scoring setup; the integer target lives on
    the 3..8 scale with mean near 5.6.
    """
    rng = np.random.default_rng(seed)
    n = 1599
    alcohol = np.clip(10.4 + rng.gamma(2.0, 0.55, n) - 1.1, 8.4, 14.9)
    volatile = np.clip(rng.gamma(7.0, 0.076, n), 0.12, 1.58)
    sulphates = np.clip(0.35 + rng.gamma(4.0, 0.08, n), 0.33, 2.0)
    fixed_acidity = np.clip(rng.normal(8.3, 1.7, n), 4.6, 15.9)
    citric = np.clip(0.9 - 0.7 * volatile + rng.normal(0, 0.12, n), 0.0, 1.0)
    residual_sugar = np.clip(np.exp(rng.normal(0.8, 0.35, n)), 0.9, 15.5)
    chlorides = np.clip(0.04 + rng.gamma(2.0, 0.022, n), 0.012, 0.61)
    free_so2 = np.clip(rng.gamma(2.2, 7.2, n), 1.0, 72.0)
    total_so2 = np.clip(free_so2 * (1.8 + rng.gamma(2.0, 0.5, n)), 6.0, 289.0)
    density = np.clip(
        0.9967 + 0.0008 * (fixed_acidity - 8.3) / 1.7 - 0.0009 * (alcohol - 10.4) / 1.1
        + rng.normal(0, 0.0008, n),
        0.990,
        1.004,
    )
    ph = np.clip(3.31 - 0.05 * (fixed_acidity - 8.3) / 1.7 + rng.normal(0, 0.12, n), 2.7, 4.0)

    X = np.column_stack(
        [fixed_acidity, volatile, citric, residual_sugar, chlorides,
         free_so2, total_so2, density, ph, sulphates, alcohol]
    )
    names = (
        "fixed_acidity", "volatile_acidity", "citric_acid", "residual_sugar",
        "chlorides", "free_sulfur_dioxide", "total_sulfur_dioxide",
        "density", "ph", "sulphates", "alcohol",
    )
    score = (
        5.64
        + 0.35 * (alcohol - 10.4) / 1.1
        - 0.30 * (volatile - 0.53) / 0.18
        + 0.15 * (sulphates - 0.66) / 0.17
        - 0.08 * (total_so2 - 46.0) / 33.0
        + rng.normal(0.0, 0.55, n)
    )
    quality = np.clip(np.rint(score), 3.0, 8.0)
    return Dataset(X=X, y=quality, feature_names=names, name="redwine")


@dataclass(frozen=True)
class BenchmarkTask:
    dataset: Dataset
    split: SplitSpec
    source: str  # "file:<path>" or "generated"


_SEX_CODES = {"M": 1.0, "F": -1.0, "I": 0.0}

# file name, candidate target columns, categorical-spec variants, generator, train rows
_TASKS = {
    "bh": ("boston_housing.csv", ("MEDV", "medv", "target"), (None,), make_housing_task, 400),
    "aba": (
        "abalone.csv",
        ("Rings", "rings", "target"),
        ({"Sex": _SEX_CODES}, {"sex": _SEX_CODES}, None),
        make_abalone_task,
        2000,
    ),
    "rw": ("winequality_red.csv", ("quality", "target"), (None,), make_wine_task, 1065),
    "wav": ("waveform.csv", ("class", "target"), (None,), make_waveform, 3000),
}

_ALIASES = {
    "bh": "bh", "housing": "bh", "boston": "bh",
    "aba": "aba", "abalone": "aba",
    "rw": "rw", "wine": "rw", "redwine": "rw",
    "wav": "wav", "waveform": "wav",
}


def _csv_head(path):
    """Header and first data row of a CSV file, cells stripped ([] if absent)."""
    with open(path, newline="") as fh:
        rows = (row for row in csv.reader(fh) if row and any(cell.strip() for cell in row))
        head = [[cell.strip() for cell in row] for row in itertools.islice(rows, 2)]
    return head + [[]] * (2 - len(head))


def _layout_fits(header, first, target, categorical):
    """Whether the header has the layout's columns and the first row its codes."""
    if target not in header:
        return False
    for column, codes in (categorical or {}).items():
        if column not in header:
            return False
        i = header.index(column)
        if i < len(first) and first[i] not in codes:
            return False
    return True


def benchmark_task(key, data_dir="data", seed=0):
    """Resolve one of the four named benchmark tasks.

    Loads `<data_dir>/<file>` when present (see data/README.md for the
    expected columns); otherwise generates the stand-in task with `seed`.
    The file is parsed only with the column layouts its header row and
    first data row allow, so a well-formed file is read once.
    """
    canon = _ALIASES.get(str(key).strip().lower())
    if canon is None:
        raise ValueError(f"unknown benchmark task {key!r}; choose from {sorted(set(_ALIASES))}")
    fname, target_candidates, categorical_variants, maker, n_train = _TASKS[canon]
    path = Path(data_dir) / fname
    if path.exists():
        header, first = _csv_head(path)
        last_error = f"no column named {' or '.join(target_candidates)} in the header"
        for target in target_candidates:
            for categorical in categorical_variants:
                if not _layout_fits(header, first, target, categorical):
                    continue
                try:
                    ds = load_csv(path, target, has_header=True, categorical=categorical)
                    return BenchmarkTask(ds, SplitSpec(n_train=n_train), source=f"file:{path}")
                except DataError as exc:
                    last_error = exc
        raise DataError(f"{path}: could not load with any known column layout: {last_error}")
    return BenchmarkTask(maker(seed=seed), SplitSpec(n_train=n_train), source="generated")
