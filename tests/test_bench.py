import itertools
import time
import weakref

from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmse_elm.bench as bench
import rmse_elm.cli as cli
import rmse_elm.elm
import rmse_elm.recursive as recursive
from rmse_elm.bench import (
    METHODS,
    ExperimentConfig,
    RunRecord,
    canonical_method,
    comparison_pct,
    load_experiment_config,
    mse,
    read_records,
    run_experiment,
    std_over_runs,
    summarize_records,
    write_records,
    write_report,
)
from rmse_elm.data import DataError, Dataset, NoiseSpec, SplitSpec, save_csv
from rmse_elm.recursive import EnsembleConfig, train_e_gasen, train_simple_ensemble
from rmse_elm.selective import GaConfig
from rmse_elm.synth import make_housing_task, make_synthetic_regression


class TestMse:
    def test_perfect_prediction(self):
        t = np.array([1.0, 2.0, 3.0])
        assert mse(t, t) == 0.0

    def test_constant_offset(self):
        t = np.array([1.0, 2.0, 3.0])
        assert mse(t + 1.0, t) == 1.0

    def test_hand_value(self):
        assert mse(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == 2.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.ones(3), np.ones(2))


class TestStdOverRuns:
    def test_identical_values(self):
        assert std_over_runs([4.2] * 5) == 0.0

    def test_hand_value(self):
        assert std_over_runs([0.0, 2.0]) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=5)
        m = sum(values) / 5
        oracle = np.sqrt(sum((v - m) ** 2 for v in values) / 4)
        assert abs(std_over_runs(values) - oracle) < 1e-12

    def test_needs_two(self):
        with pytest.raises(ValueError):
            std_over_runs([1.0])


class TestComparisonPct:
    def test_equal_is_zero(self):
        assert comparison_pct(3.3, 3.3) == 0.0

    def test_benchmark_pair(self):
        # 5.8564 vs 4.7763 -> 18.44 percent improvement
        assert comparison_pct(5.8564, 4.7763) == pytest.approx(18.44, abs=0.01)

    def test_sign_convention(self):
        assert comparison_pct(1.0, 2.0) == -100.0

    def test_antisymmetry_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.uniform(0.1, 10.0, size=2)
            assert comparison_pct(a, b) + comparison_pct(b, a) * (b / a) == pytest.approx(0.0, abs=1e-10)

    def test_nonpositive_baseline_rejected(self):
        with pytest.raises(ValueError):
            comparison_pct(0.0, 1.0)
        with pytest.raises(ValueError):
            comparison_pct(-2.0, 1.0)


class TestRunRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunRecord("ELM", "d", "n", 0, test_mse=float("nan"), wall_time_s=0.1, seed=1,
                      master_seed=0)
        with pytest.raises(ValueError):
            RunRecord("ELM", "d", "n", 0, test_mse=-1.0, wall_time_s=0.1, seed=1, master_seed=0)
        for wall in (float("nan"), float("inf"), -0.1):
            with pytest.raises(ValueError, match="^wall_time_s must be finite and nonnegative"):
                RunRecord("ELM", "d", "n", 0, test_mse=1.0, wall_time_s=wall, seed=1,
                          master_seed=0)
        # values bench never writes: a negative run index or seed, a non-canonical method
        good = dict(method="ELM", dataset="d", noise_id="n", run_index=0, test_mse=1.0,
                    wall_time_s=0.1, seed=1, master_seed=0)
        for name in ("run_index", "seed", "master_seed"):
            with pytest.raises(ValueError, match=f"^{name} must be non-negative"):
                RunRecord(**{**good, name: -1})
        for method in ("xgboost", "elm", "rmse"):
            with pytest.raises(ValueError, match=f"method '{method}' is not one of"):
                RunRecord(**{**good, "method": method})
        assert [RunRecord(**{**good, "method": m}).method for m in METHODS] == list(METHODS)


def tiny_config(**kw):
    ds = make_synthetic_regression(n_samples=70, n_features=3, seed=0, noise_std=0.2)
    base = dict(
        datasets={"syn": (ds, SplitSpec(n_train=50))},
        noise_specs={"n2": NoiseSpec((1.0, 0.1), seed=5)},
        methods=("ELM",),
        runs=1,
        master_seed=11,
        ensemble=EnsembleConfig(
            groups=2,
            group_size=3,
            n_hidden=6,
            ga=GaConfig(population_size=8, generations=5, elitism_count=1),
        ),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_experiment_config_rejects_a_negative_master_seed():
    with pytest.raises(ValueError, match="master seed must be a non-negative integer"):
        tiny_config(master_seed=-1)
    assert tiny_config(master_seed=0).master_seed == 0


def test_experiment_config_rejects_an_empty_methods_list():
    with pytest.raises(ValueError, match="methods must name at least one method"):
        tiny_config(methods=())


class TestRunExperiment:
    def test_single_cell_single_run(self):
        report = run_experiment(tiny_config())
        assert len(report.records) == 1
        stats = report.cells[("ELM", "syn", "n2")]
        assert stats.n_runs == 1
        assert np.isnan(stats.std_mse)  # undefined with one run
        assert np.isfinite(stats.mean_mse)

    def test_deterministic_given_master_seed(self):
        a = run_experiment(tiny_config(runs=3, methods=("ELM", "RMSE-ELM")))
        b = run_experiment(tiny_config(runs=3, methods=("ELM", "RMSE-ELM")))
        assert [r.test_mse for r in a.records] == [r.test_mse for r in b.records]
        assert [r.seed for r in a.records] == [r.seed for r in b.records]

    def test_master_seed_changes_runs(self):
        a = run_experiment(tiny_config(runs=2))
        b = run_experiment(tiny_config(runs=2, master_seed=12))
        assert [r.test_mse for r in a.records] != [r.test_mse for r in b.records]

    def test_failed_cell_recorded_not_fatal(self):
        ds = make_synthetic_regression(n_samples=30, seed=0)
        cfg = tiny_config(
            methods=METHODS,
            datasets={
                "ok": (make_synthetic_regression(n_samples=70, seed=1), SplitSpec(n_train=50)),
                # a 1-row training split cannot be normalized -> cell error
                "bad": (ds, SplitSpec(n_train=1)),
            }
        )
        report = run_experiment(cfg)
        # the split that cannot be made fails every method with its one message
        assert set(report.errors) == {("bad", "n2", m) for m in METHODS}
        assert len(set(report.errors.values())) == 1
        assert set(report.cells) == {(m, "ok", "n2") for m in METHODS}

    def test_every_configured_cell_has_runs_or_a_failure(self, monkeypatch, tmp_path):
        # a failed load, a failed split and a failed unit: each configured key is in
        # exactly one of cells and errors, and the tables keep the configured order
        X = np.arange(30.0).reshape(10, 3)
        X[1, 0] = 1e308  # its training std overflows: the split fails, naming the column
        huge = Dataset(X, np.arange(10.0), ("a", "b", "c"), "huge")

        def broken(*args, **kwargs):
            raise RuntimeError("member broke")

        monkeypatch.setattr(bench, "train_elm", broken)
        methods = ("ELM", "SimpleEnsemble", "RMSE-ELM")
        cfg = tiny_config(
            methods=methods,
            datasets={"lost": (DataError("lost.csv: file is empty"), None),
                      "huge": (huge, SplitSpec(n_train=6)),
                      "syn": tiny_config().datasets["syn"]},
            noise_specs={"clean": NoiseSpec(()), "n2": NoiseSpec((1.0, 0.1), seed=5)})
        report = run_experiment(cfg)
        keys = [(d, n, m) for d in cfg.datasets for n in cfg.noise_specs for m in methods]
        assert [((m, d, n) in report.cells) + ((d, n, m) in report.errors)
                for d, n, m in keys] == [1] * len(keys)
        assert len(report.cells) + len(report.errors) == len(keys)
        assert report.errors == {
            **{("lost", n, m): "dataset load failed: lost.csv: file is empty"
               for n in cfg.noise_specs for m in methods},
            **{("huge", n, m): "DataError: huge/train: column 'a' is too large to z-score: "
                               "its training mean or std overflows"
               for n in cfg.noise_specs for m in methods},
            **{("syn", n, "ELM"): "RuntimeError: member broke" for n in cfg.noise_specs},
        }
        assert report.dataset_ids == ("lost", "huge", "syn")
        out = write_report(report, tmp_path / "rep")
        assert (out / "mse.csv").read_text().splitlines()[1].startswith("lost,clean,")
        summary = (out / "summary.txt").read_text().splitlines()
        assert [line for line in summary if line.startswith("[")] == [
            f"[{d} / {n}]" for d in cfg.datasets for n in cfg.noise_specs]

    def test_each_split_is_blended_once(self, monkeypatch):
        # one task per (dataset, noise): every method runs on the one split
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return blend(*args, **kwargs)

        blend = bench.make_blended_split
        monkeypatch.setattr(bench, "make_blended_split", counting)
        ds = make_synthetic_regression(n_samples=70, n_features=3, seed=0, noise_std=0.2)
        report = run_experiment(tiny_config(
            methods=METHODS,
            datasets={"a": (ds, SplitSpec(n_train=50)), "b": (ds, SplitSpec(n_train=40))},
            noise_specs={"n2": NoiseSpec((1.0, 0.1), seed=5), "m1": NoiseSpec((0.5,), seed=6)}))
        assert not report.errors and len(report.records) == 2 * 2 * len(METHODS)
        assert len(calls) == 2 * 2

    def test_a_failed_unit_fails_only_its_own_cells(self, monkeypatch):
        # ELM breaks on its second run: it keeps neither run, and the simple
        # average and the nested methods of the same split keep every record
        calls = []

        def breaks_second(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("member broke")
            return train(*args, **kwargs)

        def records(cfg):
            return [replace(r, wall_time_s=0.0) for r in run_experiment(cfg).records]

        others = METHODS[1:]
        expected = records(tiny_config(runs=2, methods=others))
        train = bench.train_elm
        monkeypatch.setattr(bench, "train_elm", breaks_second)
        report = run_experiment(tiny_config(runs=2, methods=METHODS))
        assert len(calls) == 2
        assert report.errors == {("syn", "n2", "ELM"): "RuntimeError: member broke"}
        assert [replace(r, wall_time_s=0.0) for r in report.records] == expected
        assert [(r.method, r.run_index) for r in expected] == [
            (m, run) for m in others for run in (0, 1)]
        assert set(report.cells) == {(m, "syn", "n2") for m in others}

    def test_all_methods_produce_cells(self):
        cfg = tiny_config(methods=("ELM", "SimpleEnsemble", "GASEN-ELM", "E-GASEN", "RMSE-ELM"))
        report = run_experiment(cfg)
        assert not report.errors
        assert len(report.cells) == 5

    def test_cells_call_their_trainer_through_bench(self, monkeypatch):
        # a wrapper put under a bench name (a profiler, the benchmark's CPU
        # meter) must see every training call: one per run for ELM and the
        # simple average, and one of the widest listed nested trainer for
        # the nested methods, whose narrower ones train nothing more. Every
        # method predicts once per run: the nested ones share each member's
        # test prediction through a memo, but each still makes its own
        # ElmEnsemble.predict call, so these counts hold.
        runs = 2
        trainers = {"ELM": "train_elm", "SimpleEnsemble": "train_simple_ensemble",
                    "GASEN-ELM": "train_gasen_elm", "E-GASEN": "train_e_gasen",
                    "RMSE-ELM": "train_rmse_elm"}
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in tuple(trainers.values()) + ("predict",):
            monkeypatch.setattr(bench, name, counting(name, getattr(bench, name)))
        monkeypatch.setattr(recursive.ElmEnsemble, "predict",
                            counting("ElmEnsemble.predict", recursive.ElmEnsemble.predict))
        monkeypatch.setattr(recursive, "train_elm", counting("members", recursive.train_elm))
        for methods in (METHODS, ("GASEN-ELM", "ELM", "E-GASEN"), ("SimpleEnsemble", "GASEN-ELM")):
            calls.clear()
            cfg = tiny_config(runs=runs, methods=methods)
            report = run_experiment(cfg)
            assert not report.errors
            nested = [m for m in bench._NESTED if m in methods]
            called = [m for m in methods if m not in nested] + nested[-1:]
            group_size, groups = cfg.ensemble.group_size, cfg.ensemble.groups
            members = {"SimpleEnsemble": groups * group_size, "GASEN-ELM": group_size,
                       "E-GASEN": groups * group_size, "RMSE-ELM": groups * group_size}
            expected = Counter({trainers[m]: runs for m in called})
            expected["members"] = runs * sum(members.get(m, 0) for m in called)
            expected["predict"] = runs * ("ELM" in methods)
            expected["ElmEnsemble.predict"] = runs * (len(methods) - ("ELM" in methods))
            assert calls == expected, methods

    def test_parallel_jobs_match_serial(self):
        # every method, selective ones included: whole records but their wall times
        def records(jobs):
            report = run_experiment(tiny_config(runs=2, methods=METHODS, jobs=jobs))
            assert not report.errors
            return [replace(r, wall_time_s=0.0) for r in report.records]

        serial = records(1)
        assert len(serial) == 2 * len(METHODS)
        assert records(2) == serial

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_records_and_axes_keep_matrix_order(self, jobs):
        # config order that does not sort, and the nested methods spread out,
        # widest first: records and tables follow the matrix
        ds = make_synthetic_regression(n_samples=70, n_features=3, seed=0, noise_std=0.2)
        for methods in (("SimpleEnsemble", "ELM"),
                        ("RMSE-ELM", "ELM", "GASEN-ELM", "SimpleEnsemble", "E-GASEN")):
            cfg = tiny_config(
                runs=2, methods=methods, jobs=jobs,
                datasets={"zz": (ds, SplitSpec(n_train=50)), "aa": (ds, SplitSpec(n_train=40))},
                noise_specs={"n2": NoiseSpec((1.0, 0.1), seed=5), "m1": NoiseSpec((0.5,), seed=6)},
            )
            report = run_experiment(cfg)
            assert (report.dataset_ids, report.noise_ids, report.methods) == (
                ("zz", "aa"), ("n2", "m1"), methods)
            assert [(r.dataset, r.noise_id, r.method, r.run_index) for r in report.records] == [
                (d, n, m, run) for d in ("zz", "aa") for n in ("n2", "m1")
                for m in methods for run in (0, 1)]


NESTED_ORDERS = [order for k in (1, 2, 3) for order in itertools.permutations(bench._NESTED, k)]


class TestNestedMethods:
    """GASEN-ELM, E-GASEN and RMSE-ELM share one fit per run on the run's one seed."""

    def test_records_do_not_depend_on_the_methods_listed(self):
        def records(methods):
            report = run_experiment(tiny_config(runs=2, methods=methods))
            assert not report.errors
            by_method = {}
            for r in report.records:
                by_method.setdefault(r.method, []).append(replace(r, wall_time_s=0.0))
            return by_method

        full = records(("ELM",) + bench._NESTED)
        for order in NESTED_ORDERS:
            for methods in (order, ("ELM",) + order, order + ("ELM",)):
                got = records(methods)
                assert got == {m: full[m] for m in methods}, methods

    def test_each_pool_member_is_predicted_once_per_run(self, monkeypatch):
        # at validation_fraction 0 training predicts nothing (`fitted=` gives the
        # estimation rows), so every recursive.predict call is a test prediction:
        # the three readings share the fit's models and predict each pool member once;
        # the shared vectors are freed with their run, before the next run trains
        runs = 2
        cfg = tiny_config(runs=runs, methods=bench._NESTED)
        assert cfg.ensemble.validation_fraction == 0
        predicted, vectors, marks, pools, read = [], [], [], [], []

        def spy(model, X):
            predicted.append(model)
            out = rmse_elm.elm.predict(model, X)
            vectors.append(weakref.ref(out))
            return out

        def train(*args, **kwargs):
            assert all(v() is None for v in vectors)
            marks.append(len(predicted))
            ens = recursive.train_rmse_elm(*args, **kwargs)
            marks.append(len(predicted))
            pools.append(ens.pool_members)
            return ens

        def ensemble_predict(self, X, **kwargs):
            read.append(self.n_members)
            return original(self, X, **kwargs)

        original = recursive.ElmEnsemble.predict
        monkeypatch.setattr(recursive, "predict", spy)
        monkeypatch.setattr(bench, "train_rmse_elm", train)
        monkeypatch.setattr(recursive.ElmEnsemble, "predict", ensemble_predict)
        assert not run_experiment(cfg).errors
        marks.append(len(predicted))
        assert len(pools) == runs and len(read) == 3 * runs
        for run, pool in enumerate(pools):
            start, fitted, end = marks[2 * run: 2 * run + 3]
            assert fitted == start  # the fit made no prediction
            assert sorted(map(id, predicted[fitted:end])) == sorted(map(id, pool))
            assert sum(read[3 * run: 3 * run + 3]) > len(pool)  # the readings overlap

    def test_nested_methods_share_rmse_elms_seed(self):
        # and so does every other method: one seed per (dataset, noise, run),
        # a different one for each
        ds = make_synthetic_regression(n_samples=70, n_features=3, seed=0, noise_std=0.2)
        report = run_experiment(tiny_config(
            runs=3, methods=METHODS,
            datasets={"a": (ds, SplitSpec(n_train=50)), "b": (ds, SplitSpec(n_train=40))},
            noise_specs={"n2": NoiseSpec((1.0, 0.1), seed=5), "m1": NoiseSpec((0.5,), seed=6)}))
        assert not report.errors
        seeds = {}
        for r in report.records:
            seeds.setdefault((r.dataset, r.noise_id, r.run_index), set()).add(r.seed)
        assert len(seeds) == 2 * 2 * 3 and all(len(s) == 1 for s in seeds.values())
        assert len(set().union(*seeds.values())) == len(seeds)

    def test_elm_is_layer1_member_0_0_and_the_simple_average_extends_group_0(self):
        data = make_synthetic_regression(n_samples=60, n_features=3, seed=2)
        X, y, X_test = data.X[:45], data.y[:45], data.X[45:]
        cfg = tiny_config().ensemble
        assert cfg.validation_fraction == 0
        pass_ = train_e_gasen(X, y, replace(cfg, threshold1=0.0))
        assert pass_.provenance[0] == (0, 0)
        elm, first = bench.fit("ELM", X, y, cfg), pass_.members[0]
        assert np.array_equal(elm.output_weights, first.output_weights)
        assert np.array_equal(elm.predict(X_test), first.predict(X_test))
        simple = bench.fit("SimpleEnsemble", X, y, cfg)
        assert simple.n_members == cfg.groups * cfg.group_size
        group0 = [m for m, (g, _) in zip(pass_.members, pass_.provenance) if g == 0]
        assert len(group0) == cfg.group_size
        for a, b in zip(simple.members, group0):
            assert np.array_equal(a.output_weights, b.output_weights)
            assert np.array_equal(a.predict(X_test), b.predict(X_test))

    @settings(max_examples=12, deadline=None)
    @given(master_seed=st.integers(0, 2**64),
           methods=st.lists(st.sampled_from(METHODS), min_size=1, unique=True),
           runs=st.integers(1, 2))
    def test_every_record_carries_its_master_seed_and_derived_seed(self, master_seed, methods,
                                                                     runs):
        report = run_experiment(tiny_config(master_seed=master_seed, methods=methods, runs=runs))
        assert not report.errors and len(report.records) == len(methods) * runs
        for r in report.records:
            assert r.master_seed == master_seed
            assert r.seed == bench._run_seed(master_seed, r.dataset, r.noise_id, r.run_index)

    def test_a_failed_pass_fails_every_listed_nested_cell(self, monkeypatch):
        def broken(X, y, config):
            raise RuntimeError("pass broke")

        monkeypatch.setattr(bench, "train_rmse_elm", broken)
        report = run_experiment(tiny_config(runs=2, methods=("GASEN-ELM", "ELM", "RMSE-ELM")))
        assert report.errors == {("syn", "n2", m): "RuntimeError: pass broke"
                                 for m in ("GASEN-ELM", "RMSE-ELM")}
        assert [(r.method, r.run_index) for r in report.records] == [("ELM", 0), ("ELM", 1)]
        assert set(report.cells) == {("ELM", "syn", "n2")}

    def test_wall_time_is_attributed_by_the_stages_used(self):
        report = run_experiment(tiny_config(runs=3, methods=bench._NESTED))
        wall = {(r.method, r.run_index): r.wall_time_s for r in report.records}
        for run in range(3):
            assert 0.0 < wall["GASEN-ELM", run] <= wall["E-GASEN", run] <= wall["RMSE-ELM", run]

    @pytest.mark.parametrize("methods", [
        ("ELM",), ("RMSE-ELM",), ("ELM", "GASEN-ELM"), ("E-GASEN", "ELM", "GASEN-ELM"),
        ("RMSE-ELM", "GASEN-ELM", "E-GASEN"), METHODS,
    ])
    def test_summary_names_the_methods_that_share_a_fit(self, tmp_path, methods):
        # the CC line appears exactly when two or more nested methods share a
        # fit, names them in the config's order, and report's rebuild keeps it
        out = write_report(run_experiment(tiny_config(methods=methods)), tmp_path / "bench")
        assert cli.main(["report", "--records", str(out / "runrecords.csv"),
                         "--out", str(tmp_path / "rebuilt")]) == 0
        shared = [m for m in methods if m in bench._NESTED]
        expected = ([f"CC is attributed: {', '.join(shared)} share one fit per run, "
                     "and each is charged the stages of it that it uses"]
                    if len(shared) > 1 else [])
        for summary in (out / "summary.txt", tmp_path / "rebuilt" / "summary.txt"):
            lines = summary.read_text().splitlines()
            assert [line for line in lines if line.startswith("CC is attributed")] == expected


class TestRecordsAndReport:
    def test_records_round_trip(self, tmp_path):
        report = run_experiment(tiny_config(runs=3, methods=("ELM", "RMSE-ELM")))
        path = write_records(report.records, tmp_path / "records.csv")
        back = read_records(path)
        assert list(back) == list(report.records)

    def test_report_stats_recomputable_from_records(self, tmp_path):
        report = run_experiment(tiny_config(runs=4, methods=("ELM",)))
        path = write_records(report.records, tmp_path / "records.csv")
        cells = summarize_records(read_records(path))
        for key, stats in report.cells.items():
            assert abs(cells[key].mean_mse - stats.mean_mse) < 1e-12
            assert abs(cells[key].std_mse - stats.std_mse) < 1e-12

    def test_write_report_files(self, tmp_path):
        report = run_experiment(tiny_config(runs=2, methods=("ELM", "RMSE-ELM")))
        out = write_report(report, tmp_path / "rep")
        for fname in ("runrecords.csv", "mse.csv", "std.csv", "cc.csv",
                      "mse_comparison.csv", "std_comparison.csv", "summary.txt"):
            assert (out / fname).exists(), fname
        summary = (out / "summary.txt").read_text()
        assert "master seed: 11" in summary
        assert "RMSE-ELM" in summary

    def test_single_run_flagged_in_summary(self, tmp_path):
        report = run_experiment(tiny_config(runs=1))
        out = write_report(report, tmp_path / "rep")
        assert "undefined (single run)" in (out / "summary.txt").read_text()

    def test_wall_time_monotone_in_model_count(self):
        ds = make_synthetic_regression(n_samples=200, n_features=5, seed=3)

        def train_time(n):
            t0 = time.perf_counter()
            train_simple_ensemble(ds.X, ds.y, n_learners=n, n_hidden=20, seed=0)
            return time.perf_counter() - t0

        assert train_time(2) < train_time(32)


SHIPPED_CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.ini"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_config_loads(path):
    # a shipped config that drifts from the loader's key table fails here
    cfg = load_experiment_config(path)
    assert cfg.datasets and all(split_spec for _, split_spec in cfg.datasets.values())


class TestConfigFile:
    def write_config(self, tmp_path):
        ds = make_synthetic_regression(n_samples=60, n_features=3, seed=0)
        csv_path = save_csv(ds, tmp_path / "syn.csv")
        text = f"""
[experiment]
methods = elm, rmse
runs = 2
seed = 42

[ensemble]
groups = 2
group_size = 3
hidden = 6

[ga]
population = 8
generations = 4
elitism = 1

[noise:g2]
variances = 1, 0.5
seed = 3

[dataset:syn]
path = {csv_path}
target = target
n_train = 40
"""
        p = tmp_path / "bench.ini"
        p.write_text(text)
        return p

    def test_load_and_run(self, tmp_path):
        cfg = load_experiment_config(self.write_config(tmp_path))
        assert cfg.methods == ("ELM", "RMSE-ELM")
        assert cfg.runs == 2
        assert cfg.master_seed == 42
        assert cfg.ensemble.ga.population_size == 8
        report = run_experiment(cfg)
        assert not report.errors
        assert len(report.records) == 4

    def test_byte_order_mark_is_accepted(self, tmp_path):
        # a config saved by an editor that starts UTF-8 files with a BOM
        cfg_path = self.write_config(tmp_path)
        cfg_path.write_bytes(b"\xef\xbb\xbf" + cfg_path.read_bytes().lstrip())
        assert load_experiment_config(cfg_path).master_seed == 42

    def test_unknown_section_fails_the_load(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        cfg_path.write_text(cfg_path.read_text().replace("[ga]", "[genetic]"))
        with pytest.raises(ValueError, match=r"unknown section \[genetic\]"):
            load_experiment_config(cfg_path)

    def test_synthetic_task_reference(self, tmp_path):
        text = """
[experiment]
methods = elm
runs = 1
seed = 1

[noise:g1]
variances = 0.5

[dataset:wav]
task = waveform
n_train = 100
"""
        p = tmp_path / "bench.ini"
        p.write_text(text)
        cfg = load_experiment_config(p)
        ds, split_spec = cfg.datasets["wav"]
        assert ds.X.shape[1] == 21
        assert split_spec.n_train == 100

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            load_experiment_config(tmp_path / "none.ini")

    def test_missing_sections(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[experiment]\nmethods = elm\n")
        with pytest.raises(ValueError, match="dataset"):
            load_experiment_config(p)

    def test_broken_dataset_becomes_error_cells(self, tmp_path):
        broken_section = f"""[dataset:broken]
path = {tmp_path / "missing.csv"}
target = target
n_train = 10

"""
        cfg_path = self.write_config(tmp_path)
        cfg_path.write_text(cfg_path.read_text().replace("[dataset:syn]",
                                                         broken_section + "[dataset:syn]"))
        cfg = load_experiment_config(cfg_path)
        assert list(cfg.datasets) == ["broken", "syn"]
        assert isinstance(cfg.datasets["broken"][0], DataError)
        report = run_experiment(cfg)
        # the broken dataset is reported per cell; the good one still ran
        message = f"dataset load failed: dataset file not found: {tmp_path / 'missing.csv'}"
        assert report.errors == {("broken", "g2", m): message for m in ("ELM", "RMSE-ELM")}
        assert set(report.cells) == {(m, "syn", "g2") for m in ("ELM", "RMSE-ELM")}
        out = write_report(report, tmp_path / "rep_broken")
        # the broken dataset keeps its place, first as configured, in the tables and summary
        rows = (out / "mse.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in rows] == [["dataset", "noise"], ["broken", "g2"],
                                                         ["syn", "g2"]]
        assert rows[1] == "broken,g2,,"
        summary = (out / "summary.txt").read_text()
        sections = [line for line in summary.splitlines() if line.startswith("[")]
        assert sections == ["[broken / g2]", "[syn / g2]"]
        assert f"ELM: FAILED ({message})" in summary

    def test_empty_variances_is_a_clean_column(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        cfg_path.write_text(cfg_path.read_text().replace(
            "[dataset:syn]", "[noise:clean]\nvariances =\n\n[dataset:syn]"))
        cfg = load_experiment_config(cfg_path)
        assert cfg.noise_specs["clean"] == NoiseSpec(())
        assert cli.main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
        records = read_records(tmp_path / "b" / "runrecords.csv")
        assert [r.noise_id for r in records] == ["g2"] * 4 + ["clean"] * 4
        # report rebuilds the clean column's tables byte for byte
        assert cli.main(["report", "--records", str(tmp_path / "b" / "runrecords.csv"),
                         "--out", str(tmp_path / "r")]) == 0
        for name in ("mse.csv", "std.csv", "cc.csv", "mse_comparison.csv",
                     "std_comparison.csv", "summary.txt"):
            assert (tmp_path / "r" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("kind", ["path-not-utf8", "path-is-a-directory", "task-not-utf8"])
    def test_unreadable_data_file_becomes_error_cells_naming_it(self, tmp_path, kind):
        # a data file that cannot be read fails its dataset's cells, not the load,
        # and the message names the file, not the config section
        bad = tmp_path / "data" / ("boston_housing.csv" if kind == "task-not-utf8" else "bad.csv")
        bad.parent.mkdir()
        if kind == "path-is-a-directory":
            bad.mkdir()
            message = f"[Errno 21] Is a directory: '{bad}'"
        else:
            bad.write_bytes(b"crim,MEDV,target\n1,2,3\n4,5,\xff\n")
            message = f"{bad}: not UTF-8 text"
        source = "task = housing" if kind == "task-not-utf8" else f"path = {bad}\nn_train = 10"
        cfg_path = self.write_config(tmp_path)
        text = cfg_path.read_text().replace("seed = 42\n", "seed = 42\ndata_dir = data\n", 1)
        cfg_path.write_text(f"{text}\n[dataset:broken]\n{source}\n")
        cfg = load_experiment_config(cfg_path)
        assert str(cfg.datasets["broken"][0]) == message
        assert cfg.datasets["broken"][1] is None
        report = run_experiment(cfg)
        assert report.errors[("broken", "g2", "ELM")] == f"dataset load failed: {message}"
        assert [r.dataset for r in report.records] == ["syn"] * 4
        summary = (write_report(report, tmp_path / "rep") / "summary.txt").read_text()
        assert f"ELM: FAILED (dataset load failed: {message})" in summary


# a [noise] and a [dataset] section, with which any [experiment] loads
CORE_SECTIONS = """
[noise:g1]
variances = 0.5

[dataset:wav]
task = waveform
n_train = 100
"""


def load_sections(tmp_path, sections):
    p = tmp_path / "bench.ini"
    p.write_text("".join(f"[{name}]\n{body}\n" for name, body in sections.items()) + CORE_SECTIONS)
    return load_experiment_config(p)


def config_settings(cfg):
    """Every setting an [experiment], [ensemble] or [ga] key can reach, by field path."""
    flat = {name: getattr(cfg, name) for name in ("methods", "runs", "master_seed", "jobs",
                                                  "out_dir")}
    flat.update((f"ensemble.{f.name}", getattr(cfg.ensemble, f.name))
                for f in fields(EnsembleConfig) if f.name != "ga")
    flat.update((f"ensemble.ga.{f.name}", getattr(cfg.ensemble.ga, f.name))
                for f in fields(GaConfig))
    return flat


class TestConfigTable:
    @pytest.mark.parametrize("section, line, name, value", [
        ("experiment", "methods = gasen, e-gasen", "methods", ("GASEN-ELM", "E-GASEN")),
        ("experiment", "runs = 3", "runs", 3),
        ("experiment", "seed = 9", "master_seed", 9),
        ("experiment", "jobs = 2", "jobs", 2),
        ("experiment", "out_dir = elsewhere", "out_dir", "elsewhere"),
        ("ensemble", "groups = 3", "ensemble.groups", 3),
        ("ensemble", "group_size = 7", "ensemble.group_size", 7),
        ("ensemble", "hidden = 9", "ensemble.n_hidden", 9),
        ("ensemble", "activation = gaussian", "ensemble.activation", "gaussian"),
        ("ensemble", "lambda1 = 0.3", "ensemble.threshold1", 0.3),
        ("ensemble", "lambda2 = 0.4", "ensemble.threshold2", 0.4),
        ("ensemble", "validation_fraction = 0.25", "ensemble.validation_fraction", 0.25),
        ("ga", "population = 12", "ensemble.ga.population_size", 12),
        ("ga", "generations = 7", "ensemble.ga.generations", 7),
        ("ga", "crossover = 0.5", "ensemble.ga.crossover_prob", 0.5),
        ("ga", "mutation = 0.2", "ensemble.ga.mutation_prob", 0.2),
        ("ga", "mutation_scale = 0.3", "ensemble.ga.mutation_scale", 0.3),
        ("ga", "elitism = 3", "ensemble.ga.elitism_count", 3),
    ])
    def test_each_key_sets_its_field_and_no_other(self, tmp_path, section, line, name, value):
        base = config_settings(load_sections(tmp_path, {"experiment": ""}))
        assert base[name] != value  # the test value is not the default
        sections = {"experiment": ""}
        sections[section] = line
        assert config_settings(load_sections(tmp_path, sections)) == {**base, name: value}

    def test_left_out_keys_keep_the_dataclass_defaults(self, tmp_path):
        cfg = load_sections(tmp_path, {"experiment": "methods = simple"})
        assert cfg.methods == ("SimpleEnsemble",)
        assert cfg.ensemble == EnsembleConfig()
        assert cfg.ensemble.ga == GaConfig()
        assert (cfg.runs, cfg.master_seed, cfg.jobs, cfg.out_dir) == (5, 0, 1, "reports")
        assert load_sections(tmp_path, {"experiment": ""}).methods == ("ELM", "RMSE-ELM")

    @pytest.mark.parametrize("experiment, dataset, passed", [
        ("", "", {}),
        ("data_dir = elsewhere", "seed = 3", {"data_dir": "elsewhere", "seed": 3}),
    ], ids=["left-out", "set"])
    def test_task_keys_reach_benchmark_task(self, tmp_path, monkeypatch, experiment, dataset,
                                            passed):
        calls = []
        real_task = bench.benchmark_task

        def recording_task(key, **kwargs):
            calls.append((key, kwargs))
            return real_task(key)

        monkeypatch.setattr(bench, "benchmark_task", recording_task)
        p = tmp_path / "bench.ini"
        p.write_text(f"[experiment]\n{experiment}\n" + CORE_SECTIONS + dataset + "\n")
        load_experiment_config(p)
        if "data_dir" in passed:  # taken from the config file's directory
            passed = {**passed, "data_dir": tmp_path / passed["data_dir"]}
        assert calls == [("waveform", passed)]

    def test_relative_paths_follow_the_config_file(self, tmp_path, monkeypatch):
        config_dir, elsewhere = tmp_path / "configs", tmp_path / "elsewhere"
        elsewhere.mkdir()
        housing = make_housing_task(seed=0)
        y = housing.y.copy()
        y[0] += 1.0  # so the file's table is told apart from the generator's
        save_csv(replace(housing, y=y), config_dir / "data" / "boston_housing.csv")
        save_csv(make_synthetic_regression(n_samples=60, n_features=3, seed=0),
                 config_dir / "syn.csv")
        p = config_dir / "bench.ini"
        p.write_text("[experiment]\ndata_dir = data\n[noise:g1]\nvariances = 0.5\n"
                     "[dataset:BH]\ntask = housing\n[dataset:syn]\npath = syn.csv\nn_train = 40\n")
        monkeypatch.chdir(elsewhere)
        cfg = load_experiment_config(Path("..") / "configs" / "bench.ini")
        assert all(split_spec for _, split_spec in cfg.datasets.values())
        assert np.array_equal(cfg.datasets["BH"][0].y, y)
        assert cfg.datasets["syn"][0].n_samples == 60


class TestCanonicalMethod:
    def test_aliases(self):
        assert canonical_method("rmse") == "RMSE-ELM"
        assert canonical_method("E-GASEN") == "E-GASEN"
        assert canonical_method("Simple") == "SimpleEnsemble"

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown method"):
            canonical_method("xgboost")
