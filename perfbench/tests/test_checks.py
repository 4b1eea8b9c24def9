"""Each output check passes on a real output and rejects a broken one."""

import dataclasses
import itertools

import numpy as np
import pytest

import checks
import rmse_elm as R
import rmse_elm.cli


@pytest.fixture(scope="module")
def fitted():
    train = R.make_synthetic_regression(n_samples=120, n_features=3, seed=1)
    test = R.make_synthetic_regression(n_samples=40, n_features=3, seed=2)
    cfg = R.EnsembleConfig(groups=2, group_size=5, n_hidden=10, seed=3,
                           ga=R.GaConfig(population_size=10, generations=10))
    ens = R.train_rmse_elm(train.X, train.y, cfg)
    return train, test, ens, ens.predict(test.X)


def test_fit_checks_pass_on_the_program_output(fitted):
    train, test, ens, pred = fitted
    preds, scales = checks.rebuild_member_predictions(ens.members, test.X)
    assert checks.check_finite_shape(pred, test.n_samples, "ok") == []
    assert checks.check_ensemble_average(pred, preds, scales, "ok") == []
    assert checks.check_ambiguity(pred, preds, test.y, "ok") == []
    for m in ens.members:
        assert checks.check_normal_equations(m, train.X, train.y, "ok") == []


def test_perturbed_readout_is_rejected(fitted):
    train, _, ens, _ = fitted
    m = ens.members[0]
    beta = m.output_weights.copy()
    beta[0, 0] += 1e-6 * np.linalg.norm(beta)
    bad = dataclasses.replace(m, output_weights=beta)
    assert checks.check_normal_equations(bad, train.X, train.y, "bad")


def test_wrong_averaging_is_rejected(fitted):
    train, test, _, _ = fitted
    ens = R.train_simple_ensemble(train.X, train.y, n_learners=5, n_hidden=10, seed=1)
    preds, scales = checks.rebuild_member_predictions(ens.members, test.X)
    assert checks.check_ensemble_average(ens.predict(test.X), preds, scales, "ok") == []
    weights = np.linspace(1.0, 2.0, len(preds))
    assert checks.check_ensemble_average(weights @ preds / weights.sum(), preds, scales, "bad")
    assert checks.check_ensemble_average(np.median(preds, axis=0), preds, scales, "bad")
    assert checks.check_ensemble_average(preds[:-1].mean(axis=0), preds, scales, "bad")


def test_ambiguity_rejects_an_average_worse_than_its_members(fitted):
    _, test, ens, pred = fitted
    preds, _ = checks.rebuild_member_predictions(ens.members, test.X)
    assert checks.check_ambiguity(pred + 10.0, preds, test.y, "bad")


def test_non_finite_or_misshapen_predictions_are_rejected(fitted):
    _, test, _, pred = fitted
    broken = pred.copy()
    broken[3] = np.nan
    assert checks.check_finite_shape(broken, test.n_samples, "bad")
    assert checks.check_finite_shape(pred[:-1], test.n_samples, "bad")


def _group_inputs(fitted):
    train, _, ens, _ = fitted
    members = [R.train_elm(train.X, train.y, 10, seed=R.member_seed(3, 0, i)) for i in range(5)]
    preds = np.array([R.predict(m, train.X) for m in members])
    return preds, train.y


def test_correlation_check(fitted):
    preds, y = _group_inputs(fitted)
    corr = R.correlation_matrix(preds, y)
    assert checks.check_correlation(preds, y, corr.c, "ok") == []
    tampered = corr.c.copy()
    tampered[0, 1] = tampered[1, 0] = tampered[0, 1] * 1.001
    assert checks.check_correlation(preds, y, tampered, "bad")


def test_ga_weight_checks(fitted):
    preds, y = _group_inputs(fitted)
    corr = R.correlation_matrix(preds, y)
    w = R.ga_evolve(corr, R.GaConfig(population_size=20, generations=30), seed=5).w
    assert checks.check_simplex(w, "ok") == []
    problems, gap = checks.check_ga_weights(w, corr.c, "ok")
    assert problems == [] and gap >= 1.0
    off = w.copy()
    off[0] -= 0.01
    assert checks.check_simplex(off, "bad")
    assert checks.check_simplex(np.r_[w[:-1], w[-1] - 2.0], "bad")
    # shrunk weights leave the simplex and drop below its optimum
    assert checks.check_ga_weights(0.5 * w, corr.c, "bad")[0]
    worst = np.zeros_like(w)
    worst[int(np.argmax(np.diag(corr.c)))] = 1.0
    assert checks.check_ga_weights(worst, corr.c, "bad")[0]


def test_selection_check():
    w = np.array([0.05, 0.30, 0.25, 0.40])
    assert checks.check_selection(w, 0.25, [1, 2, 3], "ok") == []
    assert checks.check_selection(w, 0.25, [1, 3], "bad")
    assert checks.check_selection(w, 0.5, [3], "ok") == []
    assert checks.check_selection(w, 0.5, [0], "bad")


def test_members_outside_the_pool_are_rejected(fitted):
    train, _, ens, _ = fitted
    assert checks.check_members_in_pool(ens, list(ens.members), "ok") == []
    stranger = R.train_elm(train.X, train.y, 10, seed=99)
    assert checks.check_members_in_pool(ens, [stranger], "bad")
    moved = dataclasses.replace(ens, pool_provenance=((9, 9),))
    assert checks.check_members_in_pool(moved, list(ens.members), "bad")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_qp_oracle_matches_a_simplex_grid_on_three_learners(seed):
    rng = np.random.default_rng(seed)
    err = rng.normal(size=(3, 50)) + rng.normal(size=50) * (seed + 1)
    c = err @ err.T / 50
    w, value, lower = checks.simplex_qp(c)
    assert checks.check_simplex(w, "qp") == []
    steps = 300
    grid = min(
        float(v @ c @ v)
        for i, j in itertools.product(range(steps + 1), repeat=2) if i + j <= steps
        for v in [np.array([i, j, steps - i - j]) / steps]
    )
    assert lower <= value <= grid * (1 + 1e-12)
    assert grid - value <= 1e-3 * value


def _matrix(tmp_path):
    config = tmp_path / "m.ini"
    config.write_text(
        "[experiment]\nmethods = elm, gasen-elm\nruns = 2\nseed = 4\n"
        f"out_dir = {tmp_path / 'unused'}\ndata_dir = {tmp_path / 'data'}\n\n"
        "[ensemble]\ngroups = 1\ngroup_size = 4\nhidden = 8\n\n"
        "[ga]\npopulation = 8\ngenerations = 5\n\n"
        "[noise:g1]\nvariances = 1\n\n"
        f"[dataset:H]\ntask = housing\nn_train = 400\n")
    bench, report = tmp_path / "bench", tmp_path / "report"
    assert rmse_elm.cli.main(["bench", "--config", str(config), "--out", str(bench)]) == 0
    assert rmse_elm.cli.main(["report", "--records", str(bench / "runrecords.csv"),
                              "--out", str(report)]) == 0
    return bench, report


def test_matrix_checks_and_tampered_reports(tmp_path, capsys):
    bench, report = _matrix(tmp_path)
    ok, records = checks.check_matrix_report(bench, report, ("ELM", "GASEN-ELM"), 2, "ok")
    assert ok == [] and len(records) == 4

    rows = checks.read_table(bench / "mse.csv")
    rows[1][2] = repr(float(rows[1][2]) * (1 + 1e-9))
    (bench / "mse.csv").write_text("\n".join(",".join(r) for r in rows) + "\n")
    assert checks.check_matrix_report(bench, report, ("ELM", "GASEN-ELM"), 2, "bad")[0]


def test_missing_record_and_tampered_rebuild_are_rejected(tmp_path, capsys):
    bench, report = _matrix(tmp_path)
    rows = checks.read_table(report / "std.csv")
    rows[1][3] = "0.5"
    (report / "std.csv").write_text("\n".join(",".join(r) for r in rows) + "\n")
    assert checks.check_matrix_report(bench, report, ("ELM", "GASEN-ELM"), 2, "bad")[0]

    lines = (bench / "runrecords.csv").read_text().splitlines()
    (bench / "runrecords.csv").write_text("\n".join(lines[:-1]) + "\n")
    problems, _ = checks.check_matrix_report(bench, bench, ("ELM", "GASEN-ELM"), 2, "bad")
    assert any("expected 2" in p for p in problems)


def test_tracer_changes_no_output_and_restores_the_package(fitted):
    import spans
    import workloads

    train, test, _, _ = fitted
    cfg = R.EnsembleConfig(groups=2, group_size=5, n_hidden=10, seed=8,
                           ga=R.GaConfig(population_size=10, generations=10))
    plain = R.train_rmse_elm(train.X, train.y, cfg).predict(test.X)
    originals = (R.train_rmse_elm, rmse_elm.recursive.train_elm, rmse_elm.synth.load_csv,
                 R.ElmEnsemble.predict)
    tracer = spans.Tracer(R, keep_results=workloads.KEEP)
    tracer.install()
    try:
        tracer.request("fit")
        traced = R.train_rmse_elm(train.X, train.y, cfg).predict(test.X)
    finally:
        tracer.uninstall()
    assert np.array_equal(plain, traced)
    assert originals == (R.train_rmse_elm, rmse_elm.recursive.train_elm,
                         rmse_elm.synth.load_csv, R.ElmEnsemble.predict)
    names = [s.name for s in tracer.spans]
    assert names[0] == "recursive.train_rmse_elm"
    assert names.count("elm.train_elm") == 10 and names.count("selective.ga_evolve") == 3
    assert "recursive.ElmEnsemble.predict" in names
    assert all(s.end >= s.start and s.self_s >= -1e-9 for s in tracer.spans)
