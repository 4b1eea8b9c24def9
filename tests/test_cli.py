import ast
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import rmse_elm.cli as cli
import rmse_elm.bench as bench
from rmse_elm.bench import load_experiment_config, mse, read_records
from rmse_elm.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from rmse_elm.data import (
    NoiseSpec,
    SplitSpec,
    apply_normalization,
    fit_normalization,
    load_csv,
    make_blended_split,
    save_csv,
    split,
)
from rmse_elm.elm import train_elm
from rmse_elm.recursive import (
    EnsembleConfig,
    member_seed,
    train_e_gasen,
    train_gasen_elm,
    train_rmse_elm,
    train_simple_ensemble,
)
from rmse_elm.selective import DegenerateEnsembleError
from rmse_elm.synth import benchmark_task, make_synthetic_regression


@pytest.fixture()
def csv_path(tmp_path):
    ds = make_synthetic_regression(n_samples=80, n_features=3, seed=0, noise_std=0.2)
    return str(save_csv(ds, tmp_path / "syn.csv"))


def run_cli(args):
    return main(args)


class TestTrain:
    def test_plain_elm(self, csv_path, capsys):
        code = run_cli(["train", "--dataset", csv_path, "--hidden", "8", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "master seed: 3" in out
        mse_line = [l for l in out.splitlines() if l.startswith("test MSE:")][0]
        assert np.isfinite(float(mse_line.split(":")[1]))

    def test_rmse_elm_prints_layer_counts(self, csv_path, capsys):
        code = run_cli([
            "train", "--dataset", csv_path, "--method", "rmse-elm",
            "--groups", "2", "--group-size", "4", "--hidden", "6",
            "--noise", "1,0.5", "--seed", "1",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        pool = int([l for l in out.splitlines() if "layer-1 pool size" in l][0].split(":")[1])
        survivors = int([l for l in out.splitlines() if "layer-2 survivors" in l][0].split(":")[1])
        assert 1 <= survivors <= pool <= 8

    @pytest.mark.parametrize("method, noise", [
        *[pytest.param(m, "1,0.5", id=m)
          for m in ("elm", "simple", "gasen-elm", "e-gasen", "rmse-elm")],
        pytest.param("elm", None, id="elm-no-noise"),
        pytest.param("rmse-elm", None, id="rmse-elm-no-noise"),
    ])
    def test_matches_a_direct_trainer_call(self, method, noise, csv_path, capsys):
        code = run_cli([
            "train", "--dataset", csv_path, "--method", method, "--groups", "2",
            "--group-size", "3", "--hidden", "6", "--lambda", "0.2", "--seed", "4",
        ] + (["--noise", noise] if noise else []))
        printed = [l for l in capsys.readouterr().out.splitlines() if l.startswith("test MSE:")]
        assert code == EXIT_OK
        train, test, _ = make_blended_split(
            load_csv(csv_path, "target"), NoiseSpec((1.0, 0.5) if noise else ()),
            SplitSpec(n_train=60),
        )
        X, y = train.X, train.y
        cfg = EnsembleConfig(groups=2, group_size=3, n_hidden=6, threshold1=0.2, seed=4)
        # what each method means in terms of the train flags above: ELM is
        # layer-1 member (0, 0) of the seed's ensembles
        fitted = {
            "elm": lambda: train_elm(X, y, 6, "sigmoid", seed=member_seed(4, 0, 0)),
            "simple": lambda: train_simple_ensemble(X, y, 2 * 3, 6, "sigmoid", seed=4),
            "gasen-elm": lambda: train_gasen_elm(X, y, cfg),
            "e-gasen": lambda: train_e_gasen(X, y, cfg),
            "rmse-elm": lambda: train_rmse_elm(X, y, cfg),
        }[method]()
        assert printed == [f"test MSE: {mse(fitted.predict(test.X), test.y):.6g}"]

    def test_training_time_leaves_out_the_predict(self, csv_path, capsys, monkeypatch):
        clock = [0.0]

        class Stub:
            def predict(self, X):
                clock[0] += 100.0
                return np.zeros(len(X))

        def fake_fit(method, X, y, config):
            clock[0] += 0.5
            return Stub()

        monkeypatch.setattr(cli, "fit", fake_fit)
        monkeypatch.setattr(cli.time, "perf_counter", lambda: clock[0])
        code = run_cli(["train", "--dataset", csv_path])
        assert code == EXIT_OK
        assert "training time: 0.5000 s" in capsys.readouterr().out

    @pytest.mark.parametrize("error", [
        DegenerateEnsembleError("singular correlations"),
        np.linalg.LinAlgError("SVD did not converge"),
    ], ids=["degenerate", "linalg"])
    def test_numerical_failure_exits_4_with_one_line(self, csv_path, capsys, monkeypatch, error):
        def failing_fit(method, X, y, config):
            raise error

        monkeypatch.setattr(cli, "fit", failing_fit)
        code = run_cli(["train", "--dataset", csv_path, "--method", "rmse"])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERIC
        assert err == f"numerical failure: {error}\n"

    def test_one_row_dataset_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("x1,x2,target\n1.0,2.0,3.0\n")
        code = run_cli(["train", "--dataset", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "a blended train/test split needs at least 3 rows, got 1" in err

    @pytest.mark.parametrize("n_train", [0, 1, 506])
    def test_n_train_outside_the_blended_range_names_the_flag(self, n_train, capsys):
        code = run_cli(["train", "--dataset", "task:housing", "--n-train", str(n_train)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err.splitlines() == [f"error: --n-train must be in [2, 505], got {n_train}"]
        assert "test MSE" not in captured.out

    def test_two_training_rows_are_enough(self, capsys):
        code = run_cli(["train", "--dataset", "task:housing", "--n-train", "2", "--hidden", "4"])
        assert code == EXIT_OK
        assert "train rows: 2  test rows: 504" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["elm", "simple", "gasen-elm", "e-gasen", "rmse-elm"])
    def test_summary_lines_follow_the_method(self, method, csv_path, capsys):
        # two-layer methods print the pool and its survivors, the flat ensembles
        # their members, and a single ELM neither
        code = run_cli(["train", "--dataset", csv_path, "--method", method, "--groups", "2",
                        "--group-size", "3", "--hidden", "6", "--seed", "4"])
        out = capsys.readouterr().out.splitlines()
        assert code == EXIT_OK
        train, _, _ = make_blended_split(load_csv(csv_path, "target"), NoiseSpec(()),
                                         SplitSpec(n_train=60))
        cfg = EnsembleConfig(groups=2, group_size=3, n_hidden=6, seed=4)
        fitted = bench.fit(method, train.X, train.y, cfg)
        if method in ("e-gasen", "rmse-elm"):
            expected = [f"layer-1 pool size: {fitted.pool_size}",
                        f"layer-2 survivors: {fitted.n_members}"]
        else:
            expected = [] if method == "elm" else [f"survivors: {fitted.n_members}"]
        assert [l for l in out if "survivors" in l or "pool" in l] == expected

    def test_jobs_flag_removed(self, csv_path, capsys):
        assert run_cli(["train", "--dataset", csv_path, "--jobs", "2"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: rmse-elm: unrecognized arguments: --jobs 2\n"

    def test_synthetic_task_reference(self, capsys):
        code = run_cli(["train", "--dataset", "task:waveform", "--hidden", "8",
                        "--n-train", "200", "--seed", "2"])
        assert code == EXIT_OK
        assert "test MSE" in capsys.readouterr().out

    def test_task_dataset_is_the_table_bench_reads(self, capsys):
        # --seed seeds the models only: the table is benchmark_task's, as for a bench config
        code = run_cli(["train", "--dataset", "task:housing", "--n-train", "400",
                        "--seed", "11"])
        printed = [l for l in capsys.readouterr().out.splitlines() if l.startswith("test MSE:")]
        assert code == EXIT_OK
        train, test = split(benchmark_task("housing").dataset, SplitSpec(n_train=400))
        params = fit_normalization(train)
        train, test = apply_normalization(train, params), apply_normalization(test, params)
        model = train_elm(train.X, train.y, 50, "sigmoid", seed=member_seed(11, 0, 0))
        assert printed == [f"test MSE: {mse(model.predict(test.X), test.y):.6g}"]

    @pytest.mark.parametrize("flags", [["--target-col", "MEDV"], ["--target-col", "target"],
                                       ["--no-header"]], ids=" ".join)
    def test_task_dataset_rejects_csv_flags(self, flags, capsys):
        code = run_cli(["train", "--dataset", "task:housing"] + flags)
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err.splitlines() == [
            "error: --target-col and --no-header apply to CSV datasets, not task:housing"]
        assert "test MSE" not in captured.out

    def test_csv_target_column_defaults_to_target(self, csv_path, tmp_path, capsys):
        runs = [["--target-col", "target"], [], ["--target-col", "3"]]
        printed = []
        for flags in runs:
            assert run_cli(["train", "--dataset", csv_path, "--hidden", "8"] + flags) == EXIT_OK
            printed.append([l for l in capsys.readouterr().out.splitlines()
                            if l.startswith("test MSE:")])
        assert printed[0] == printed[1] == printed[2] and len(printed[0]) == 1
        renamed = tmp_path / "renamed.csv"
        renamed.write_text("a,b,c,y\n" + "".join(open(csv_path).readlines()[1:]))
        code = run_cli(["train", "--dataset", str(renamed), "--hidden", "8"])
        assert code == EXIT_DATA
        assert "no column named 'target'" in capsys.readouterr().err

    def test_missing_file_names_path(self, capsys):
        code = run_cli(["train", "--dataset", "/no/such/file.csv"])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert "/no/such/file.csv" in err

    def test_unknown_method_is_config_error(self, csv_path, capsys):
        code = run_cli(["train", "--dataset", csv_path, "--method", "mlp"])
        assert code == EXIT_CONFIG

    def test_unknown_flag_rejected(self, csv_path, capsys):
        assert run_cli(["train", "--dataset", csv_path, "--frobnicate"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: rmse-elm: unrecognized arguments: --frobnicate\n"

    def test_help_is_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: rmse-elm train [-h] --dataset DATASET")


class TestBlend:
    def test_writes_csv_and_manifest(self, csv_path, tmp_path, capsys):
        out_path = tmp_path / "blended.csv"
        code = run_cli([
            "blend", "--dataset", csv_path, "--noise", "2,1,0.5",
            "--seed", "9", "--out", str(out_path),
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "master seed: 9" in out
        assert out_path.exists()
        manifest = (tmp_path / "blended.csv.manifest.txt").read_text()
        assert "noise_seed: 9" in manifest
        assert "2.0, 1.0, 0.5" in manifest

    def test_blend_adds_columns(self, csv_path, tmp_path):
        out_path = tmp_path / "b.csv"
        run_cli(["blend", "--dataset", csv_path, "--noise", "1", "--noise", "0.5",
                 "--out", str(out_path)])
        header = out_path.read_text().splitlines()[0]
        assert header.count(",") == 3 + 2  # 3 features + 2 noise + target


# every file bench writes, each of which report rebuilds when no cell failed
REPORT_FILES = ("runrecords.csv", "mse.csv", "std.csv", "cc.csv", "mse_comparison.csv",
                "std_comparison.csv", "summary.txt")


class TestBenchAndReport:
    def write_config(self, tmp_path, csv_path, methods="elm, rmse", extra_datasets=()):
        text = f"""
[experiment]
methods = {methods}
runs = 2
seed = 5
out_dir = {tmp_path / "reports"}

[ensemble]
groups = 2
group_size = 3
hidden = 6

[ga]
population = 8
generations = 4

[noise:g2]
variances = 1, 0.5
seed = 3

[dataset:syn]
path = {csv_path}
target = target
n_train = 60
"""
        for ident in extra_datasets:
            text += f"\n[dataset:{ident}]\npath = {csv_path}\nn_train = 50\n"
        p = tmp_path / "bench.ini"
        p.write_text(text)
        return p

    @pytest.mark.parametrize("methods, extra_datasets, cells", [
        ("elm, rmse", (), [("syn", "ELM"), ("syn", "RMSE-ELM")]),
        # config order that does not sort: report must follow it, not the alphabet
        ("rmse, elm", ("abc",),
         [("syn", "RMSE-ELM"), ("syn", "ELM"), ("abc", "RMSE-ELM"), ("abc", "ELM")]),
    ], ids=["sorted", "unsorted"])
    def test_bench_then_report(self, csv_path, tmp_path, capsys, methods, extra_datasets, cells):
        cfg = self.write_config(tmp_path, csv_path, methods, extra_datasets)
        code = run_cli(["bench", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "master seed: 5" in out
        reports = tmp_path / "reports"
        assert (reports / "summary.txt").exists()
        # records list the cells in matrix order, each cell's runs in turn
        records = read_records(reports / "runrecords.csv")
        assert [(r.dataset, r.noise_id, r.method, r.run_index) for r in records] == [
            (ds_id, "g2", method, run) for ds_id, method in cells for run in (0, 1)]

        code = run_cli(["report", "--records", str(reports / "runrecords.csv"),
                        "--out", str(tmp_path / "rebuilt")])
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "master seed: 5"
        for name in REPORT_FILES:
            assert (tmp_path / "rebuilt" / name).read_bytes() == (reports / name).read_bytes(), name

    def test_non_ascii_ids_under_an_ascii_locale(self, csv_path, tmp_path):
        # every file is read and written as UTF-8, whatever the locale's encoding
        cfg = self.write_config(tmp_path, csv_path)
        text = cfg.read_text().replace("[dataset:syn]", "[dataset:café]")
        cfg.write_text(text.replace("[noise:g2]", "[noise:gé]"), encoding="utf-8")
        env = {**os.environ, "LC_ALL": "C", "LANG": "C", "PYTHONCOERCECLOCALE": "0",
               "PYTHONUTF8": "0"}
        reports, rebuilt = tmp_path / "reports", tmp_path / "rebuilt"
        records = reports / "runrecords.csv"
        for argv in (["bench", "--config", str(cfg)],
                     ["report", "--records", str(records), "--out", str(rebuilt)]):
            proc = subprocess.run([sys.executable, "-m", "rmse_elm.cli", *argv], env=env,
                                  capture_output=True, text=True)
            assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert (reports / "mse.csv").read_bytes().splitlines()[1].startswith("café,gé,".encode())
        for name in REPORT_FILES:
            assert (rebuilt / name).read_bytes() == (reports / name).read_bytes(), name

    @pytest.mark.parametrize("setting, message, section", [
        pytest.param("lambda1 = 2", "{cfg}: [ensemble] thresholds must lie in [0, 1]", "ensemble",
                     id="lambda1 = 2-thresholds must lie in [0, 1]-ensemble"),
        pytest.param("activation = relu", "{cfg}: [ensemble] unknown activation 'relu'", "ensemble",
                     id="activation = relu-unknown activation 'relu'-ensemble"),
        # a node kind that was deleted
        pytest.param("activation = hardlim",
                     "{cfg}: [ensemble] unknown activation 'hardlim'; "
                     "choose one of ['gaussian', 'multiquadric', 'sigmoid']", "ensemble",
                     id="activation = hardlim-unknown activation 'hardlim'-ensemble"),
        # a retired or misspelt key must not quietly fall back to its default
        ("resample_noise = true", "{cfg}: [experiment] has unknown keys: resample_noise",
         "experiment"),
        ("serial_timing = true", "{cfg}: [experiment] has unknown keys: serial_timing",
         "experiment"),
        ("seed = 3", "{cfg}: [ga] has unknown keys: seed", "ga"),
        ("hiden = 6", "{cfg}: [ensemble] has unknown keys: hiden", "ensemble"),
        ("shuffle = 3", "{cfg}: [dataset:syn] has unknown keys: shuffle", "dataset:syn"),
        # [dataset] keys that no config set, now deleted
        ("categorical = sex: M=1, F=-1", "{cfg}: [dataset:syn] has unknown keys: categorical",
         "dataset:syn"),
        ("has_header = false", "{cfg}: [dataset:syn] has unknown keys: has_header",
         "dataset:syn"),
        ("shuffle_seed = 3", "{cfg}: [dataset:syn] has unknown keys: shuffle_seed",
         "dataset:syn"),
        # the GA's fixed breeding settings, even at the values they had by default
        ("crossover = 0.8", "{cfg}: [ga] has unknown keys: crossover", "ga"),
        ("mutation = 0.1", "{cfg}: [ga] has unknown keys: mutation", "ga"),
        ("mutation_scale = 0.1", "{cfg}: [ga] has unknown keys: mutation_scale", "ga"),
        ("elitism = 2", "{cfg}: [ga] has unknown keys: elitism", "ga"),
    ])
    def test_bad_ensemble_setting_fails_before_any_cell(self, csv_path, tmp_path, capsys,
                                                        monkeypatch, setting, message, section):
        cfg = self.write_config(tmp_path, csv_path)
        cfg.write_text(cfg.read_text().replace(f"[{section}]\n", f"[{section}]\n{setting}\n"))
        ran = []
        monkeypatch.setattr(cli, "run_experiment", ran.append)
        code = run_cli(["bench", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err.startswith(f"error: {message.format(cfg=cfg)}")
        assert captured.err.count("\n") == 1
        assert ran == []
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("section, rows", [
        ("path = {csv}\ntarget = target\nn_train = {n}", 80),
        ("task = housing\nn_train = {n}", 506),
    ], ids=["path", "task"])
    @pytest.mark.parametrize("n_train", [0, 1, "rows", 900])
    def test_bad_n_train_fails_before_any_cell(self, csv_path, tmp_path, capsys,
                                               monkeypatch, section, rows, n_train):
        n = rows if n_train == "rows" else n_train
        cfg = self.write_config(tmp_path, csv_path)
        text = cfg.read_text().replace(
            f"path = {csv_path}\ntarget = target\nn_train = 60",
            section.format(csv=csv_path, n=n),
        )
        cfg.write_text(text.replace("[experiment]", f"[experiment]\ndata_dir = {tmp_path}"))
        ran = []
        monkeypatch.setattr(cli, "run_experiment", ran.append)
        code = run_cli(["bench", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err == (f"error: {cfg}: [dataset:syn] n_train must be in "
                       f"[2, {rows - 1}], got {n}\n")
        assert ran == []
        assert not (tmp_path / "reports" / "runrecords.csv").exists()

    @pytest.mark.parametrize("old, new, message", [
        ("runs = 2", "runs = abc",
         "[experiment] runs = 'abc': invalid literal for int() with base 10: 'abc'"),
        ("groups = 2", "groups = 2.5",
         "[ensemble] groups = '2.5': invalid literal for int() with base 10: '2.5'"),
        ("n_train = 60", "n_train = ten",
         "[dataset:syn] n_train = 'ten': invalid literal for int() with base 10: 'ten'"),
        ("variances = 1, 0.5\n", "", "[noise:g2] needs variances"),
        ("path = {csv}\ntarget = target\n", "", "[dataset:syn] needs task or path"),
    ], ids=["runs", "groups", "n_train", "no-variances", "no-task-or-path"])
    def test_config_error_names_file_and_section(self, csv_path, tmp_path, capsys, monkeypatch,
                                                 old, new, message):
        cfg = self.write_config(tmp_path, csv_path)
        text = cfg.read_text()
        assert old.format(csv=csv_path) in text
        cfg.write_text(text.replace(old.format(csv=csv_path), new))
        ran = []
        monkeypatch.setattr(cli, "run_experiment", ran.append)
        code = run_cli(["bench", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err == f"error: {cfg}: {message}\n"
        assert ran == []
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("old, new, message", [
        ("runs = 2\n", "runs = 2\nruns = 3\n",
         "While reading from 'bench.ini' [line 5]: option 'runs' in section 'experiment' "
         "already exists"),
        ("\n[experiment]\n", "runs = 3\n[experiment]\n",
         "File contains no section headers. file: 'bench.ini', line: 1 'runs = 3\\n'"),
        # no interpolation: the path loads with its "%" as written
        ("reports\n", "a%b/%(runs)s\n", None),
    ], ids=["duplicate-key", "no-section-header", "percent-in-path"])
    def test_malformed_ini_is_one_line_config_error(self, csv_path, tmp_path, capsys,
                                                    monkeypatch, old, new, message):
        cfg = self.write_config(tmp_path, csv_path)
        text = cfg.read_text()
        assert old in text
        cfg.write_text(text.replace(old, new, 1))
        if message is None:
            assert load_experiment_config(cfg).out_dir == f"{tmp_path}/a%b/%(runs)s"
            return
        ran = []
        monkeypatch.setattr(cli, "run_experiment", ran.append)
        code = run_cli(["bench", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err == f"error: {cfg}: {message}\n"
        assert "Traceback" not in captured.err
        assert ran == []

    @pytest.mark.parametrize("old, new, message", [
        ("path = {csv}\ntarget = target\n", "task = housing\npath = /no/such.csv\n"
         "target = nothing\n", "[dataset:syn] path, target cannot be set with task"),
        ("path = {csv}\ntarget = target\n", "task = housing\ntarget = nothing\n",
         "[dataset:syn] target cannot be set with task"),
        # a task's generator always runs at seed 0: no source takes a seed
        ("path = {csv}\ntarget = target\n", "task = housing\nseed = 0\n",
         "[dataset:syn] has unknown keys: seed"),
        ("target = target\n", "target = target\nseed = 5\n",
         "[dataset:syn] has unknown keys: seed"),
    ], ids=["task-path-target", "task-target", "task-seed", "path-seed"])
    def test_dataset_key_of_the_other_source_fails(self, csv_path, tmp_path, capsys,
                                                    monkeypatch, old, new, message):
        cfg = self.write_config(tmp_path, csv_path)
        text = cfg.read_text()
        assert old.format(csv=csv_path) in text
        cfg.write_text(text.replace(old.format(csv=csv_path), new))
        ran = []
        monkeypatch.setattr(cli, "run_experiment", ran.append)
        code = run_cli(["bench", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err == f"error: {cfg}: {message}\n"
        assert ran == []

    @pytest.mark.parametrize("methods, canonical", [
        ("elm, gasen, rmse", ("ELM", "GASEN-ELM", "RMSE-ELM")),
        ("rmse, elm", ("RMSE-ELM", "ELM")),  # not sorted: the lines follow the tables
    ], ids=["sorted", "unsorted"])
    def test_every_cell_failed_exits_4_and_leaves_no_records(self, tmp_path, capsys,
                                                             methods, canonical):
        # one line per failed cell, "cell failed (dataset, noise, method): message",
        # whose key parses back to its tuple, in the configured order
        missing = tmp_path / "missing.csv"
        cfg = self.write_config(tmp_path, str(missing), methods=methods)
        code = run_cli(["bench", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERIC
        lines = err.splitlines()
        assert all(line.startswith("cell failed (") for line in lines)
        keys = [ast.literal_eval(line[len("cell failed "):line.index("):") + 1]) for line in lines]
        assert keys == [("syn", "g2", m) for m in canonical]
        assert all(line.endswith(f"dataset file not found: {missing}") for line in lines)
        mse_header = (tmp_path / "reports" / "mse.csv").read_text().splitlines()[0]
        assert mse_header == ",".join(("dataset", "noise") + canonical)

        records = tmp_path / "reports" / "runrecords.csv"
        assert read_records(records) == []
        code = run_cli(["report", "--records", str(records), "--out", str(tmp_path / "rebuilt")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {records}: contains no run records\n"
        assert not (tmp_path / "rebuilt").exists()

    def test_bench_missing_config(self, capsys):
        code = run_cli(["bench", "--config", "/no/such.ini"])
        assert code == EXIT_CONFIG

    def test_bench_override_seed(self, csv_path, tmp_path, capsys):
        cfg = self.write_config(tmp_path, csv_path)
        code = run_cli(["bench", "--config", str(cfg), "--seed", "99", "--runs", "1",
                        "--out", str(tmp_path / "r2")])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "master seed: 99" in out

    def test_flags_match_a_config_with_their_values(self, csv_path, tmp_path, capsys):
        # --runs, --seed, --jobs and --out replace the loaded file's values; only
        # jobs > 1 notes on stdout that its wall times are not authoritative
        cfg = self.write_config(tmp_path, csv_path)
        assert run_cli(["bench", "--config", str(cfg), "--runs", "1", "--seed", "7",
                        "--jobs", "2", "--out", str(tmp_path / "flags")]) == EXIT_OK
        note = "note: jobs > 1; wall-time (CC) numbers are not authoritative\n"
        assert note in capsys.readouterr().out
        text = cfg.read_text().replace("runs = 2", "runs = 1").replace("seed = 5", "seed = 7")
        cfg.write_text(text.replace(str(tmp_path / "reports"), str(tmp_path / "file")))
        assert run_cli(["bench", "--config", str(cfg)]) == EXIT_OK
        assert note not in capsys.readouterr().out

        def records(name):
            return [replace(r, wall_time_s=0.0)
                    for r in read_records(tmp_path / name / "runrecords.csv")]

        assert len(records("flags")) == 2
        assert records("flags") == records("file")


RECORDS_HEADER = "method,dataset,noise_id,run_index,test_mse,wall_time_s,seed,master_seed\n"
GOOD_RECORD = "ELM,syn,g2,0,1.5,0.01,7,3\n"


@pytest.mark.parametrize("text, message", [
    ("method,dataset\n" + GOOD_RECORD, ": not a run-record file"),
    # a records file from before the master seed was a column
    (RECORDS_HEADER.replace(",master_seed", "") + "ELM,syn,g2,0,1.5,0.01,7\n",
     ": not a run-record file"),
    (RECORDS_HEADER + GOOD_RECORD + "ELM,syn,g2,1,1.5\n", ", line 3: expected 8 fields, got 5"),
    (RECORDS_HEADER + GOOD_RECORD + "\n" + GOOD_RECORD, ", line 3: expected 8 fields, got 0"),
    (RECORDS_HEADER + GOOD_RECORD.replace("\n", ",extra\n"), ", line 2: expected 8 fields, got 9"),
    (RECORDS_HEADER + "ELM,syn,g2,first,1.5,0.01,7,3\n", ", line 2: invalid literal for int()"),
    (RECORDS_HEADER + "ELM,syn,g2,0,1.5,0.01,7,three\n", ", line 2: invalid literal for int()"),
    (RECORDS_HEADER + "ELM,syn,g2,0,-1.5,0.01,7,3\n", ", line 2: test_mse must be finite"),
    (RECORDS_HEADER + "ELM,syn,g2,0,1.5,nan,7,3\n",
     ", line 2: wall_time_s must be finite and nonnegative"),
    (RECORDS_HEADER + "ELM,syn,g2,0,1.5,inf,7,3\n",
     ", line 2: wall_time_s must be finite and nonnegative"),
    # the csv module reads no field over 131072 characters
    (RECORDS_HEADER + GOOD_RECORD + "ELM," + "s" * 131073 + ",g2,1,1.5,0.01,7,3\n",
     ", line 3: field larger than field limit (131072)"),
    # values bench never writes: a negative run index or seed, and a method outside METHODS
    (RECORDS_HEADER + "ELM,syn,g2,-3,1.5,0.01,7,3\n", ", line 2: run_index must be non-negative"),
    (RECORDS_HEADER + "ELM,syn,g2,0,1.5,0.01,-7,3\n", ", line 2: seed must be non-negative"),
    (RECORDS_HEADER + GOOD_RECORD + "ELM,syn,g2,1,1.5,0.01,7,-2\n",
     ", line 3: master_seed must be non-negative"),
    (RECORDS_HEADER + "xgboost,syn,g2,0,1.5,0.01,7,3\n",
     ", line 2: method 'xgboost' is not one of"),
    # an alias `bench --config` accepts is not a name `bench` writes
    (RECORDS_HEADER + "rmse,syn,g2,0,1.5,0.01,7,3\n", ", line 2: method 'rmse' is not one of"),
], ids=["header", "seven-columns", "short-row", "blank-line", "extra-field", "bad-int",
        "bad-master-seed", "negative-mse", "nan-wall-time", "inf-wall-time",
        "field-over-limit", "negative-run-index", "negative-seed",
        "negative-master-seed", "unknown-method", "method-alias"])
def test_malformed_records_are_config_errors(tmp_path, capsys, text, message):
    path = tmp_path / "runrecords.csv"
    path.write_text(text)
    code = run_cli(["report", "--records", str(path), "--out", str(tmp_path / "rep")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith(f"error: {path}{message}")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("rows, seeds", [
    (GOOD_RECORD, "3"),
    # records of two bench runs concatenated: each distinct seed once, ascending
    (GOOD_RECORD.replace(",3\n", ",12\n") + GOOD_RECORD.replace(",0,", ",1,")
     + GOOD_RECORD.replace(",0,", ",2,").replace(",3\n", ",12\n"), "3, 12"),
], ids=["one-seed", "mixed-seeds"])
def test_report_names_the_records_master_seeds(tmp_path, capsys, rows, seeds):
    path = tmp_path / "runrecords.csv"
    path.write_text(RECORDS_HEADER + rows)
    code = run_cli(["report", "--records", str(path), "--out", str(tmp_path / "rep")])
    assert code == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == f"master seed: {seeds}"
    assert (tmp_path / "rep" / "summary.txt").read_text().splitlines()[1] == f"master seed: {seeds}"


def test_unreadable_records_remove_only_the_directories_report_made(tmp_path, capsys):
    # report reads its records before it makes --out, so records that cannot
    # be read make no directory, nested or not, and leave one that was there
    (tmp_path / "kept").mkdir()
    for out in ("made/nested", "kept"):
        code = run_cli(["report", "--records", str(tmp_path / "absent.csv"),
                        "--out", str(tmp_path / out)])
        assert code == EXIT_CONFIG
        assert "No such file" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["kept"]


class TestEntryPoint:
    def test_module_invocation(self, csv_path):
        proc = subprocess.run(
            [sys.executable, "-m", "rmse_elm.cli", "train", "--dataset", csv_path,
             "--hidden", "6", "--seed", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "test MSE" in proc.stdout


GOOD_CSV = "a,b,target\n" + "".join(f"{i},{i % 3},{0.5 * i}\n" for i in range(12))
GOOD_INI = """[experiment]
methods = elm
runs = 1
out_dir = {dir}/reports

[noise:g1]
variances = 1

[dataset:syn]
path = {dir}/good.csv
n_train = 9
"""
TRUNCATED_RECORD = "ELM,syn,g2,1,1."
SEED_LINE = f"master seed: {cli.DEFAULT_SEED}\n"


def _csv_row(name, text, expected):
    return pytest.param({"t.csv": text}, ["train", "--dataset", "{dir}/t.csv", "--hidden", "3"],
                        EXIT_DATA, "data error: {dir}/t.csv" + expected, SEED_LINE, id=name)


def _ini_row(name, old, new, expected):
    return pytest.param({"b.ini": GOOD_INI.replace(old, new, 1)}, ["bench", "--config", "{dir}/b.ini"],
                        EXIT_CONFIG, "error: {dir}/b.ini: " + expected, "", id=name)


def _records_row(name, text, expected):
    return pytest.param({"r.csv": text}, ["report", "--records", "{dir}/r.csv", "--out", "{dir}/rep"],
                        EXIT_CONFIG, "error: {dir}/r.csv" + expected, "", id=name)


# each row's last field is the stdout its command writes before it fails
@pytest.mark.parametrize("files, argv, code, message, stdout", [
    # flags argparse itself rejects
    pytest.param({}, ["train", "--dataset", "{dir}/good.csv", "--hidden", "abc"], EXIT_CONFIG,
                 "error: rmse-elm train: argument --hidden: invalid int value: 'abc'",
                 "", id="flag-bad-int"),
    pytest.param({}, ["train"], EXIT_CONFIG,
                 "error: rmse-elm train: the following arguments are required: --dataset",
                 "", id="flag-missing-required"),
    pytest.param({}, ["bench", "--config", "{dir}/b.ini", "--frobnicate"], EXIT_CONFIG,
                 "error: rmse-elm: unrecognized arguments: --frobnicate", "", id="flag-unknown"),
    pytest.param({}, [], EXIT_CONFIG,
                 "error: rmse-elm: the following arguments are required: command",
                 "", id="command-missing"),
    pytest.param({}, ["frobnicate"], EXIT_CONFIG,
                 "error: rmse-elm: argument command: invalid choice: 'frobnicate'",
                 "", id="command-unknown"),
    # a value the config it feeds rejects: the deleted hardlim node kind
    pytest.param({}, ["train", "--dataset", "{dir}/good.csv", "--activation", "hardlim"],
                 EXIT_CONFIG, "error: unknown activation 'hardlim'; "
                 "choose one of ['gaussian', 'multiquadric', 'sigmoid']\n",
                 "", id="flag-activation-hardlim"),
    # settings the config rejects fail before the table is generated or read
    pytest.param({}, ["train", "--dataset", "task:housing", "--activation", "relu"],
                 EXIT_CONFIG, "error: unknown activation 'relu'; "
                 "choose one of ['gaussian', 'multiquadric', 'sigmoid']\n",
                 "", id="flag-activation-unknown"),
    pytest.param({}, ["train", "--dataset", "task:housing", "--groups", "0"], EXIT_CONFIG,
                 "error: groups, group_size and n_hidden must be positive\n",
                 "", id="flag-groups-zero"),
    pytest.param({}, ["train", "--dataset", "{dir}/absent.csv"], EXIT_DATA,
                 "data error: dataset file not found: {dir}/absent.csv", SEED_LINE, id="csv-missing"),
    # a row is named by its line in the file, blank lines counted
    _csv_row("csv-ragged-short-row", "a,b,target\n1,2,3\n4,5\n",
             ", line 3: 2 columns, expected 3"),
    _csv_row("csv-ragged-wide-rows", "a,b,target\n1,2,3,4\n5,6,7,8\n",
             ": header has 3 columns, line 2 has 4"),
    _csv_row("csv-unparsable", "a,b,target\n1,2,3\n4,x,6\n",
             ", line 3, column 'b': cannot parse 'x' as a number"),
    _csv_row("csv-unparsable-after-blank-lines", "a,b,target\n\n1,2,3\n\n4,x,6\n",
             ", line 5, column 'b': cannot parse 'x' as a number"),
    _csv_row("csv-nan", "a,b,target\n1,2,3\n4,nan,6\n", ", line 3, column 'b': non-finite value"),
    _csv_row("csv-overflow", "a,b,target\n1,2,3\n4,5,1e999\n",
             ", line 3, column 'target': non-finite value"),
    _csv_row("csv-empty", "", ": file is empty\n"),
    _csv_row("csv-header-only", "a,b,target\n", ": no data rows below the header\n"),
    pytest.param({}, ["train", "--dataset", "{dir}/good.csv", "--target-col", "7"], EXIT_DATA,
                 "data error: {dir}/good.csv: column index 7 out of range (0..2)\n", SEED_LINE,
                 id="csv-target-index-out-of-range"),
    pytest.param({}, ["train", "--dataset", "{dir}/good.csv", "--no-header"], EXIT_DATA,
                 "data error: {dir}/good.csv: column named 'target' needs a header row\n",
                 SEED_LINE, id="csv-named-target-without-header"),
    # finite values too large to z-score name the dataset, the part and the column
    pytest.param({"huge.csv": "a,b,target\n1,2,3\n1e308,5,6\n-1e308,1,2\n4,4,4\n5,5,5\n"},
                 ["train", "--dataset", "{dir}/huge.csv", "--n-train", "3"], EXIT_DATA,
                 "data error: huge/train: column 'a' is too large to z-score: "
                 "its training mean or std overflows\n", SEED_LINE, id="csv-huge-in-train"),
    pytest.param({"huge.csv": "a,b,target\n1,2,3\n1.5,5,6\n1,1,2\n1e308,4,4\n5,5,5\n"},
                 ["train", "--dataset", "{dir}/huge.csv", "--n-train", "3"], EXIT_DATA,
                 "data error: huge/test: column 'a' is too large to z-score: "
                 "a z-score overflows\n", SEED_LINE, id="csv-huge-in-test"),
    # a field the csv module will not read, over 131072 characters, names its line
    pytest.param({"t.csv": "a,b,target\n1,2,3\n" + "4" * 131073 + ",5,6\n"},
                 ["train", "--dataset", "{dir}/t.csv"], EXIT_DATA,
                 "data error: {dir}/t.csv, line 3: field larger than field limit (131072)\n",
                 SEED_LINE, id="csv-field-over-limit"),
    pytest.param({"t.csv": "a,b,target\n1,2,3\n" + "4" * 131073 + ",5,6\n"},
                 ["blend", "--dataset", "{dir}/t.csv", "--noise", "1", "--out", "{dir}/b.csv"],
                 EXIT_DATA,
                 "data error: {dir}/t.csv, line 3: field larger than field limit (131072)\n",
                 SEED_LINE, id="blend-field-over-limit"),
    # every file is read as UTF-8: one that is not, or a directory, names itself
    _csv_row("csv-not-utf8", b"a,b,target\n1,2,3\n4,\xff,6\n", ": not UTF-8 text\n"),
    pytest.param({}, ["train", "--dataset", "{dir}"], EXIT_DATA,
                 "data error: [Errno 21] Is a directory: '{dir}'\n", SEED_LINE,
                 id="csv-is-a-directory"),
    pytest.param({"t.csv": b"a,b,target\n1,2,3\n4,\xff,6\n"},
                 ["blend", "--dataset", "{dir}/t.csv", "--noise", "1", "--out", "{dir}/b.csv"],
                 EXIT_DATA, "data error: {dir}/t.csv: not UTF-8 text\n", SEED_LINE,
                 id="blend-not-utf8"),
    pytest.param({"b.ini": GOOD_INI.encode() + b"# caf\xe9\n"},
                 ["bench", "--config", "{dir}/b.ini"], EXIT_CONFIG,
                 "error: {dir}/b.ini: not UTF-8 text\n", "", id="ini-not-utf8"),
    _records_row("records-not-utf8", (RECORDS_HEADER + GOOD_RECORD).encode() + b"ELM,caf\xe9",
                 ": not UTF-8 text\n"),
    _ini_row("ini-unknown-key", "runs = 1\n", "runs = 1\nrun = 2\n",
             "[experiment] has unknown keys: run"),
    _ini_row("ini-bad-value", "runs = 1\n", "runs = one\n", "[experiment] runs = 'one'"),
    _ini_row("ini-duplicate-key", "runs = 1\n", "runs = 1\nruns = 2\n",
             "While reading from 'b.ini' [line 4]: option 'runs' in section 'experiment' "
             "already exists"),
    # two spellings of one method would run its cells twice
    _ini_row("ini-duplicate-method", "methods = elm\n", "methods = elm, ELM\n",
             "[experiment] methods lists ELM twice"),
    # values that parse but that the config they feed rejects
    _ini_row("ini-runs-zero", "runs = 1\n", "runs = 0\n", "[experiment] runs must be positive"),
    _ini_row("ini-unknown-method", "methods = elm\n", "methods = xgboost\n",
             "[experiment] unknown method 'xgboost'"),
    _ini_row("ini-bad-ensemble", "n_train = 9\n", "n_train = 9\n[ensemble]\nlambda1 = 2\n",
             "[ensemble] thresholds must lie in [0, 1]"),
    _ini_row("ini-bad-ga", "n_train = 9\n", "n_train = 9\n[ga]\npopulation = 2\n",
             "[ga] population_size must be at least 3: the 2 elite and a child\n"),
    _ini_row("ini-bad-noise", "variances = 1\n", "variances = -1\n",
             "[noise:g1] variances must be positive"),
    _ini_row("ini-jobs-zero", "runs = 1\n", "runs = 1\njobs = 0\n",
             "[experiment] jobs must be positive"),
    # settings that would fail every cell, or train a GA whose mutated genes are all NaN
    _ini_row("ini-noise-variance-nan", "variances = 1\n", "variances = 1, nan\n",
             "[noise:g1] variances must be positive finite numbers"),
    _ini_row("ini-noise-variance-inf", "variances = 1\n", "variances = inf\n",
             "[noise:g1] variances must be positive finite numbers"),
    _ini_row("ini-noise-seed-negative", "variances = 1\n", "variances = 1\nseed = -1\n",
             "[noise:g1] seed must be a non-negative integer"),
    # an empty variances list is the clean column: a seed would draw nothing
    _ini_row("ini-clean-noise-seed", "variances = 1\n", "variances =\nseed = 4\n",
             "[noise:g1] empty variances draw no noise, so seed must be left at 0\n"),
    _ini_row("ini-seed-negative", "runs = 1\n", "runs = 1\nseed = -1\n",
             "[experiment] master seed must be a non-negative integer"),
    # the mutation step is fixed: no value of the retired key is read, not even one that
    # would leave every mutated gene NaN
    _ini_row("ini-ga-mutation-scale-nan", "n_train = 9\n",
             "n_train = 9\n[ga]\nmutation_scale = nan\n",
             "[ga] has unknown keys: mutation_scale\n"),
    _ini_row("ini-ga-mutation-scale-inf", "n_train = 9\n",
             "n_train = 9\n[ga]\nmutation_scale = inf\n",
             "[ga] has unknown keys: mutation_scale\n"),
    pytest.param({"b.ini": GOOD_INI}, ["bench", "--config", "{dir}/b.ini", "--seed", "-1"],
                 EXIT_CONFIG, "error: master seed must be a non-negative integer\n", "",
                 id="flag-bench-seed-negative"),
    pytest.param({}, ["train", "--dataset", "task:housing", "--seed", "-1"], EXIT_CONFIG,
                 "error: seed must be a non-negative integer\n", "", id="flag-train-seed-negative"),
    pytest.param({}, ["train", "--dataset", "task:housing", "--noise", "1", "--noise-seed", "-1"],
                 EXIT_CONFIG,
                 "error: --noise 1 --noise-seed -1: seed must be a non-negative integer\n",
                 "", id="flag-train-noise-seed-negative"),
    pytest.param({}, ["train", "--dataset", "task:housing", "--noise", "1,nan"], EXIT_CONFIG,
                 "error: --noise 1,nan --noise-seed 0: variances must be positive finite "
                 "numbers\n", "", id="flag-train-noise-nan"),
    # no --noise is the clean spec, which draws nothing and so takes no seed
    pytest.param({}, ["train", "--dataset", "task:housing", "--noise-seed", "5"], EXIT_CONFIG,
                 "error: --noise-seed 5: empty variances draw no noise, so seed must be left "
                 "at 0\n", "", id="flag-train-noise-seed-alone"),
    pytest.param({}, ["train", "--dataset", "task:housing", "--noise", ""], EXIT_CONFIG,
                 "error: --noise  --noise-seed 0: no variance listed\n", "",
                 id="flag-train-noise-empty"),
    pytest.param({}, ["blend", "--dataset", "{dir}/good.csv", "--noise", "", "--out", "{dir}/b.csv"],
                 EXIT_CONFIG, f"error: --noise  --seed {cli.DEFAULT_SEED}: no variance listed\n",
                 "", id="flag-blend-noise-empty"),
    pytest.param({}, ["blend", "--dataset", "{dir}/good.csv", "--noise", "1", "--seed", "-1",
                      "--out", "{dir}/b.csv"], EXIT_CONFIG,
                 "error: --noise 1 --seed -1: seed must be a non-negative integer\n", "",
                 id="flag-blend-seed-negative"),
    _ini_row("ini-no-experiment", "[experiment]\nmethods = elm\nruns = 1\nout_dir = {dir}/reports\n",
             "", "missing [experiment] section"),
    _ini_row("ini-path-without-n-train", "n_train = 9\n", "", "[dataset:syn] needs n_train"),
    _ini_row("ini-no-noise", "[noise:g1]\nvariances = 1\n", "", "no [noise:<id>] sections"),
    # each method, dataset and noise spec needs a name, or its tables have a blank one
    _ini_row("ini-no-methods", "methods = elm\n", "methods =\n",
             "[experiment] methods must name at least one method"),
    _ini_row("ini-blank-dataset-id", "[dataset:syn]", "[dataset:]",
             "[dataset:] needs an id, as in [dataset:<id>]"),
    _ini_row("ini-blank-noise-id", "[noise:g1]", "[noise:]",
             "[noise:] needs an id, as in [noise:<id>]"),
    _ini_row("ini-unknown-task", "path = {dir}/good.csv\n", "task = frobnicate\n",
             "[dataset:syn] unknown benchmark task 'frobnicate'"),
    # the same check on a flag names no file
    pytest.param({"b.ini": GOOD_INI}, ["bench", "--config", "{dir}/b.ini", "--runs", "0"],
                 EXIT_CONFIG, "error: runs must be positive\n", "", id="flag-runs-zero"),
    _records_row("records-truncated-row", RECORDS_HEADER + GOOD_RECORD + TRUNCATED_RECORD,
                 ", line 3: expected 8 fields, got 5"),
    _records_row("records-truncated-header", RECORDS_HEADER[:30], ": not a run-record file"),
    pytest.param({"b.ini": GOOD_INI}, ["bench", "--config", "{dir}/b.ini", "--out", "{dir}/file/rep"],
                 EXIT_CONFIG, "error: cannot write the report to {dir}/file/rep: Not a directory",
                 "", id="bench-out-unwritable"),
    pytest.param({"b.ini": GOOD_INI.replace("{dir}/reports", "{dir}/file")},
                 ["bench", "--config", "{dir}/b.ini"],
                 EXIT_CONFIG, "error: cannot write the report to {dir}/file: File exists",
                 "", id="bench-out-dir-is-a-file"),
    pytest.param({}, ["blend", "--dataset", "{dir}/good.csv", "--noise", "1",
                      "--out", "{dir}/file/b.csv"],
                 EXIT_CONFIG, "error: [Errno 17] File exists: '{dir}/file'", SEED_LINE,
                 id="blend-out-unwritable"),
    # report checks --out as bench does, after it reads the records and before it prints
    # the seed; with both faults it names the records, since it never gets to --out
    pytest.param({"r.csv": RECORDS_HEADER + GOOD_RECORD},
                 ["report", "--records", "{dir}/r.csv", "--out", "{dir}/file/rep"],
                 EXIT_CONFIG, "error: cannot write the report to {dir}/file/rep: Not a directory",
                 "", id="report-out-unwritable"),
    pytest.param({}, ["report", "--records", "{dir}/absent.csv", "--out", "{dir}/file"],
                 EXIT_CONFIG, "error: [Errno 2] No such file or directory: '{dir}/absent.csv'",
                 "", id="report-out-dir-is-a-file"),
    # the records carry the master seed, so report takes no --seed
    pytest.param({"r.csv": RECORDS_HEADER + GOOD_RECORD},
                 ["report", "--records", "{dir}/r.csv", "--out", "{dir}/rep", "--seed", "1"],
                 EXIT_CONFIG, "error: rmse-elm: unrecognized arguments: --seed 1\n", "",
                 id="report-seed-flag"),
])
def test_malformed_input_exits_with_one_line(tmp_path, capsys, monkeypatch,
                                            files, argv, code, message, stdout):
    # every row: the documented exit code, its stdout, one stderr line, no
    # traceback, and no trainer called: each input fails before any training
    (tmp_path / "good.csv").write_text(GOOD_CSV)
    (tmp_path / "file").write_text("a regular file, so no directory can be made under it\n")
    for name, text in files.items():  # bytes are written as they are, apart from {dir}
        data = text if isinstance(text, bytes) else text.encode()
        (tmp_path / name).write_bytes(data.replace(b"{dir}", bytes(tmp_path)))
    trained = []
    for name in ("train_elm", "train_simple_ensemble", "train_gasen_elm", "train_e_gasen",
                 "train_rmse_elm"):
        monkeypatch.setattr(bench, name, lambda *args, name=name, **kwargs: trained.append(name))
    assert run_cli([arg.format(dir=tmp_path) for arg in argv]) == code
    out, err = capsys.readouterr()
    assert out == stdout
    assert err.startswith(message.format(dir=tmp_path))
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    assert trained == []
