"""The workloads count failed calls and still report when every call fails."""

import math
import sys
import types

import rmse_elm as R
import rmse_elm.cli  # noqa: F401  (the package does not import its CLI)
import workloads
from test_checks import _matrix


def _raise(*args, **kwargs):
    raise FloatingPointError("injected")


def test_a_fit_workload_whose_every_fit_fails_still_reports():
    wl = workloads.FitWorkload("broken", "bh", workloads.G7, fits=3, predicts=2, train=_raise)
    data = R.make_synthetic_regression(n_samples=30, n_features=2, seed=1)
    wl.X, wl.y, wl.X_test, wl.y_test = data.X, data.y, data.X, data.y
    wl.seeds = workloads.derived_seeds(1, wl.fits)
    out, t, failed = wl.run_round(R)
    assert failed == wl.ops_per_round() == 9
    assert wl.check(out) == ([], [])
    metrics = wl.round_metrics([t, t])
    assert math.isnan(metrics["fit_cpu_s.p50"]) and math.isnan(metrics["predict_rows_per_cpu_s"])


def _fake_package(code, stderr_lines):
    def main(argv):
        for line in stderr_lines:
            print(line, file=sys.stderr)
        return code
    return types.SimpleNamespace(cli=types.SimpleNamespace(main=main), bench=R.bench,
                                 ElmEnsemble=R.ElmEnsemble)


def _matrix_workload(tmp_path):
    wl = workloads.MatrixWorkload()
    wl.workdir, wl.config, wl.round_index, wl.n_test = tmp_path, tmp_path / "m.ini", 0, 10
    return wl


def test_a_matrix_whose_every_cell_fails_counts_them_all(tmp_path):
    wl = _matrix_workload(tmp_path)
    fake = _fake_package(4, [f"cell failed ('Aba', 'g7', '{m}'): singular" for m in wl.canonical])
    (a, ta, fa), (b, tb, fb) = wl.run_round(fake), wl.run_round(fake)
    assert fa == fb == wl.ops_per_round()
    assert wl.check(a) == ([], []) and wl.same_outputs(a, b)
    metrics = wl.round_metrics([ta, tb])
    assert math.isnan(metrics["fit_cpu_s.p50"]) and math.isnan(metrics["predict_rows_per_cpu_s"])


def test_a_matrix_that_runs_no_cell_is_a_check_failure(tmp_path):
    wl = _matrix_workload(tmp_path)
    out, _, failed = wl.run_round(_fake_package(2, ["config error: no [experiment]"]))
    assert failed == wl.ops_per_round()
    problems, rels = wl.check(out)
    assert problems and rels == []


def test_the_meter_times_each_cell_once_and_restores_the_package(tmp_path, capsys):
    originals = (R.bench.train_gasen_elm, R.bench.predict, R.ElmEnsemble.predict)
    meter = workloads.MatrixWorkload._meter(R)
    meter.install()
    try:
        _matrix(tmp_path)  # elm and gasen-elm, 2 runs each
    finally:
        meter.uninstall()
    assert originals == (R.bench.train_gasen_elm, R.bench.predict, R.ElmEnsemble.predict)
    assert len(meter.times["fit"]) == 4 and len(meter.times["predict"]) == 4
    assert min(meter.times["fit"] + meter.times["predict"]) >= 0.0
