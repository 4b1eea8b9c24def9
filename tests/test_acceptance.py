"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they execute. The benchmark-scale criteria (8-11) load the four
named tasks through `benchmark_task`, which prefers real CSV files under
data/ and otherwise uses the bundled generators; the line printed for
each dataset names the source actually used.
"""

import time

import numpy as np
import pytest

from rmse_elm.bench import ExperimentConfig, run_experiment
from rmse_elm.data import NoiseSpec
from rmse_elm.elm import hidden_output, predict, pseudoinverse, train_elm
from rmse_elm.recursive import EnsembleConfig, member_seed, train_rmse_elm
from rmse_elm.selective import (
    CorrelationMatrix,
    GaConfig,
    correlation_matrix,
    ensemble_error,
    ga_evolve,
    omission_gain,
    optimal_weights,
    should_omit,
)
from rmse_elm.synth import benchmark_task, make_synthetic_regression

SEVEN_NOISE = (2.0, 1.0, 0.5, 0.1, 0.005, 0.001, 0.0005)
TEN_NOISE = (2.0, 1.0, 0.5, 0.1, 0.05, 0.01, 0.005, 0.001, 0.0005, 0.0001)
MASTER_SEED = 2024


def announce(num, passed, detail):
    print(f"criterion {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------- 1-7: properties

def test_criterion_1_penrose_conditions():
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(1, 201))
        m = int(rng.integers(1, 101))
        if i % 3 == 0:  # rank-deficient every third draw
            r = max(1, min(n, m) // 2)
            a = rng.normal(size=(n, r)) @ rng.normal(size=(r, m))
        else:
            a = rng.normal(size=(n, m))
        p = pseudoinverse(a)
        worst = max(
            worst,
            np.linalg.norm(a @ p @ a - a),
            np.linalg.norm(p @ a @ p - p),
            np.linalg.norm((a @ p).T - a @ p),
            np.linalg.norm((p @ a).T - p @ a),
        )
    elapsed = time.perf_counter() - t0
    announce(
        1,
        worst < 1e-8 and elapsed < 10.0,
        f"worst Penrose residual {worst:.2e} over 100 matrices in {elapsed:.1f}s",
    )


def test_criterion_2_interpolation():
    # problems are drawn with d >= 2 and inputs spread over (-3, 3) so the
    # hidden matrix is numerically full rank (the regime the zero-error
    # property addresses; one-dimensional inputs collapse its rank)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 31))
        d = int(rng.integers(2, 9))
        X = rng.uniform(-3.0, 3.0, size=(n, d))
        while len(np.unique(X, axis=0)) < n:
            X = rng.uniform(-3.0, 3.0, size=(n, d))
        y = rng.normal(size=n)
        model = train_elm(X, y, n_hidden=n, activation="sigmoid", seed=int(rng.integers(2**31)))
        h = hidden_output(model.hidden, X)
        assert np.linalg.matrix_rank(h) == n
        worst = max(worst, np.linalg.norm(predict(model, X) - y) / np.linalg.norm(y))
    announce(2, worst < 1e-4, f"worst relative interpolation residual {worst:.2e}")


def test_criterion_3_quadratic_form_identity():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        s = int(rng.integers(5, 50))
        preds = rng.normal(size=(n, s))
        t = rng.normal(size=s)
        corr = correlation_matrix(preds, t)
        for w in (rng.dirichlet(np.ones(n)), np.full(n, 1.0 / n)):
            direct = float(np.mean((w @ preds - t) ** 2))
            worst = max(worst, abs(ensemble_error(w, corr) - direct))
    announce(3, worst < 1e-10, f"worst |w'Cw - direct MSE| = {worst:.2e}")


def test_criterion_4_omission_algebra():
    rng = np.random.default_rng(11)
    worst = 0.0
    disagreements = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        e = rng.normal(size=(n, n + 3))
        c = e @ e.T / (n + 3)
        corr = CorrelationMatrix((c + c.T) / 2.0, n_samples=n + 3)
        for k in range(n):
            gain = omission_gain(corr, k)
            e_all = corr.c.sum() / n**2
            keep = [i for i in range(n) if i != k]
            e_hat = corr.c[np.ix_(keep, keep)].sum() / (n - 1) ** 2
            worst = max(worst, abs(gain - (e_all - e_hat)))
            disagreements += should_omit(corr, k) != (gain > 0)
    announce(
        4,
        worst < 1e-12 and disagreements == 0,
        f"worst closed-form error {worst:.2e}, sign disagreements {disagreements}",
    )


def _simplex_grid_3(step=0.01):
    k = int(round(1.0 / step))
    return np.asarray(
        [
            (i * step, j * step, 1.0 - (i + j) * step)
            for i in range(k + 1)
            for j in range(k + 1 - i)
        ]
    )


def test_criterion_5_lagrange_optimality():
    rng = np.random.default_rng(13)
    grid = _simplex_grid_3(0.01)
    found = violations = 0
    while found < 200:
        e = rng.normal(size=(3, 6))
        c = e @ e.T / 6
        corr = CorrelationMatrix((c + c.T) / 2.0, n_samples=6)
        res = optimal_weights(corr)
        if not res.in_simplex:
            continue
        found += 1
        best = float(res.raw @ corr.c @ res.raw)
        grid_vals = np.einsum("ni,ij,nj->n", grid, corr.c, grid)
        violations += best > grid_vals.min() + 1e-12
    announce(5, violations == 0, f"{found} interior solutions, {violations} grid violations")


def test_criterion_6_ga_sanity():
    corr = CorrelationMatrix(np.diag([1.0, 100.0]), n_samples=10)
    uniform_err = ensemble_error(np.array([0.5, 0.5]), corr)
    mass_ok = monotone_ok = uniform_ok = 0
    for seed in range(20):
        w, hist = ga_evolve(corr, GaConfig(), seed=seed, with_history=True)
        mass_ok += w.w[0] >= 0.9
        monotone_ok += bool(np.all(np.diff(hist) >= 0.0))
        uniform_ok += ensemble_error(w, corr) <= uniform_err + 1e-12
    announce(
        6,
        mass_ok == 20 and monotone_ok == 20 and uniform_ok == 20,
        f"mass {mass_ok}/20, monotone {monotone_ok}/20, <=uniform {uniform_ok}/20",
    )


def test_criterion_7_subset_chain():
    rng = np.random.default_rng(21)
    chain_ok = eq_ok = eq_checked = 0
    for trial in range(50):
        ds = make_synthetic_regression(
            n_samples=int(rng.integers(40, 90)),
            n_features=int(rng.integers(2, 5)),
            seed=int(rng.integers(2**31)),
            noise_std=0.3,
        )
        cfg = EnsembleConfig(
            groups=2,
            group_size=5,
            n_hidden=8,
            ga=GaConfig(population_size=12, generations=8),
            seed=int(rng.integers(2**31)),
        )
        ens = train_rmse_elm(ds.X, ds.y, cfg)
        all_models = {(g, i) for g in range(2) for i in range(5)}
        chain_ok += set(ens.provenance) <= set(ens.pool_provenance) <= all_models
        if trial % 10 == 0:
            eq_checked += 1
            full = train_rmse_elm(
                ds.X,
                ds.y,
                EnsembleConfig(
                    groups=2, group_size=5, n_hidden=8,
                    threshold1=0.0, threshold2=0.0, ga=cfg.ga, seed=cfg.seed,
                ),
            )
            manual = np.mean(
                [
                    predict(
                        train_elm(ds.X, ds.y, 8, "sigmoid", seed=member_seed(cfg.seed, g, i)),
                        ds.X,
                    )
                    for g in range(2)
                    for i in range(5)
                ],
                axis=0,
            )
            eq_ok += bool(np.max(np.abs(full.predict(ds.X) - manual)) < 1e-10)
    announce(
        7,
        chain_ok == 50 and eq_ok == eq_checked,
        f"subset chain {chain_ok}/50, zero-threshold equality {eq_ok}/{eq_checked}",
    )


# ------------------------------------------------------- 8-11: benchmark scale

@pytest.fixture(scope="module")
def tasks():
    out = {}
    for key in ("BH", "Aba", "RW", "Wav"):
        task = benchmark_task(key)
        print(f"[data] {key}: {task.source}")
        out[key] = task
    return out


@pytest.fixture(scope="module")
def bh_batch(tasks):
    cfg = ExperimentConfig(
        datasets={"BH": (tasks["BH"].dataset, tasks["BH"].split)},
        noise_specs={"g7": NoiseSpec(SEVEN_NOISE, seed=101)},
        methods=("ELM", "RMSE-ELM"),
        runs=5,
        master_seed=MASTER_SEED,
    )
    t0 = time.perf_counter()
    report = run_experiment(cfg)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def aba_batch(tasks):
    cfg = ExperimentConfig(
        datasets={"Aba": (tasks["Aba"].dataset, tasks["Aba"].split)},
        noise_specs={"g7": NoiseSpec(SEVEN_NOISE, seed=101)},
        methods=("SimpleEnsemble", "E-GASEN", "RMSE-ELM"),
        runs=5,
        master_seed=MASTER_SEED,
    )
    t0 = time.perf_counter()
    report = run_experiment(cfg)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def matrix_batch(tasks):
    cfg = ExperimentConfig(
        datasets={k: (t.dataset, t.split) for k, t in tasks.items()},
        noise_specs={
            "g7": NoiseSpec(SEVEN_NOISE, seed=101),
            "g10": NoiseSpec(TEN_NOISE, seed=102),
        },
        methods=("ELM", "RMSE-ELM"),
        runs=5,
        master_seed=MASTER_SEED,
    )
    report = run_experiment(cfg)
    assert not report.errors, report.errors
    return report


def test_criterion_8_blended_housing(bh_batch):
    report, elapsed = bh_batch
    assert not report.errors, report.errors
    elm = report.cells[("ELM", "BH", "g7")]
    rmse = report.cells[("RMSE-ELM", "BH", "g7")]
    ok = (
        rmse.mean_mse < elm.mean_mse
        and 3.0 <= rmse.mean_mse <= 8.0
        and elapsed < 60.0
    )
    announce(
        8,
        ok,
        f"RMSE-ELM {rmse.mean_mse:.4f} vs ELM {elm.mean_mse:.4f}, "
        f"band [3, 8], elapsed {elapsed:.1f}s",
    )


def test_criterion_9_blended_abalone(aba_batch):
    report, elapsed = aba_batch
    assert not report.errors, report.errors
    rmse = report.cells[("RMSE-ELM", "Aba", "g7")]
    simple = report.cells[("SimpleEnsemble", "Aba", "g7")]
    egasen = report.cells[("E-GASEN", "Aba", "g7")]
    ok = (
        rmse.mean_mse < simple.mean_mse
        and rmse.mean_mse < egasen.mean_mse
        and elapsed < 180.0
    )
    announce(
        9,
        ok,
        f"RMSE-ELM {rmse.mean_mse:.4f} vs Simple {simple.mean_mse:.4f} "
        f"vs E-GASEN {egasen.mean_mse:.4f}, elapsed {elapsed:.1f}s",
    )


def test_criterion_10_stability_direction(matrix_batch):
    report = matrix_batch
    wins = 0
    cells = []
    for ds in ("BH", "Aba", "RW", "Wav"):
        for nz in ("g7", "g10"):
            elm = report.cells[("ELM", ds, nz)]
            rmse = report.cells[("RMSE-ELM", ds, nz)]
            win = rmse.std_mse < elm.std_mse
            wins += win
            cells.append(f"{ds}/{nz}:{'W' if win else 'L'}")
    announce(10, wins >= 6, f"STD wins {wins}/8 ({', '.join(cells)})")


def test_criterion_11_computational_cost(matrix_batch):
    report = matrix_batch
    order_ok = all(
        report.cells[("ELM", ds, nz)].mean_cc_s < report.cells[("RMSE-ELM", ds, nz)].mean_cc_s
        for ds in ("BH", "Aba", "RW", "Wav")
        for nz in ("g7", "g10")
    )
    bh_cc = report.cells[("RMSE-ELM", "BH", "g7")].mean_cc_s
    announce(
        11,
        order_ok and bh_cc < 30.0,
        f"ELM < RMSE-ELM in all 8 cells: {order_ok}; blended-BH RMSE-ELM training {bh_cc:.2f}s",
    )
