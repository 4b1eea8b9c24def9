import subprocess
import sys

import numpy as np
import pytest

import rmse_elm.cli as cli
from rmse_elm.bench import load_experiment_config, mse
from rmse_elm.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
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
    train_e_gasen,
    train_gasen_elm,
    train_rmse_elm,
    train_simple_ensemble,
)
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
            load_csv(csv_path, "target"), NoiseSpec((1.0, 0.5), seed=0) if noise else None,
            SplitSpec(n_train=60),
        )
        X, y = train.X, train.y
        cfg = EnsembleConfig(groups=2, group_size=3, n_hidden=6, threshold1=0.2, seed=4)
        # what each method means in terms of the train flags above
        fitted = {
            "elm": lambda: train_elm(X, y, 6, "sigmoid", seed=4),
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

    def test_one_row_dataset_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("x1,x2,target\n1.0,2.0,3.0\n")
        code = run_cli(["train", "--dataset", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "a train/test split needs at least 2 rows, got 1" in err

    def test_jobs_flag_removed(self, csv_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--dataset", csv_path, "--jobs", "2"])
        assert exc.value.code == 2

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
        model = train_elm(train.X, train.y, 50, "sigmoid", seed=11)
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

    def test_unknown_flag_rejected(self, csv_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--dataset", csv_path, "--frobnicate"])
        assert exc.value.code == 2


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


class TestBenchAndReport:
    def write_config(self, tmp_path, csv_path):
        text = f"""
[experiment]
methods = elm, rmse
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
elitism = 1

[noise:g2]
variances = 1, 0.5
seed = 3

[dataset:syn]
path = {csv_path}
target = target
n_train = 60
"""
        p = tmp_path / "bench.ini"
        p.write_text(text)
        return p

    def test_bench_then_report(self, csv_path, tmp_path, capsys):
        cfg = self.write_config(tmp_path, csv_path)
        code = run_cli(["bench", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "master seed: 5" in out
        reports = tmp_path / "reports"
        assert (reports / "summary.txt").exists()

        code = run_cli(["report", "--records", str(reports / "runrecords.csv"),
                        "--out", str(tmp_path / "rebuilt")])
        assert code == EXIT_OK
        rebuilt = (tmp_path / "rebuilt" / "mse.csv").read_text()
        original = (reports / "mse.csv").read_text()
        assert rebuilt == original

    @pytest.mark.parametrize("setting, message, section", [
        ("lambda1 = 2", "thresholds must lie in [0, 1]", "ensemble"),
        ("activation = relu", "unknown activation 'relu'", "ensemble"),
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
    @pytest.mark.parametrize("n_train", [0, "rows", 900])
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
                       f"[1, {rows - 1}], got {n}\n")
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
        ("target = target\n", "target = target\nseed = 5\n",
         "[dataset:syn] seed cannot be set with path"),
    ], ids=["task-path-target", "task-target", "path-seed"])
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


RECORDS_HEADER = "method,dataset,noise_id,run_index,test_mse,wall_time_s,seed\n"
GOOD_RECORD = "ELM,syn,g2,0,1.5,0.01,7\n"


@pytest.mark.parametrize("text, message", [
    ("method,dataset\n" + GOOD_RECORD, ": not a run-record file"),
    (RECORDS_HEADER + GOOD_RECORD + "ELM,syn,g2,1,1.5\n", ", line 3: expected 7 fields, got 5"),
    (RECORDS_HEADER + GOOD_RECORD + "\n" + GOOD_RECORD, ", line 3: expected 7 fields, got 0"),
    (RECORDS_HEADER + GOOD_RECORD.replace("\n", ",extra\n"), ", line 2: expected 7 fields, got 8"),
    (RECORDS_HEADER + "ELM,syn,g2,first,1.5,0.01,7\n", ", line 2: invalid literal for int()"),
    (RECORDS_HEADER + "ELM,syn,g2,0,-1.5,0.01,7\n", ", line 2: test_mse must be finite"),
], ids=["header", "short-row", "blank-line", "extra-field", "bad-int", "negative-mse"])
def test_malformed_records_are_config_errors(tmp_path, capsys, text, message):
    path = tmp_path / "runrecords.csv"
    path.write_text(text)
    code = run_cli(["report", "--records", str(path), "--out", str(tmp_path / "rep")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith(f"error: {path}{message}")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "rep").exists()


class TestEntryPoint:
    def test_module_invocation(self, csv_path):
        proc = subprocess.run(
            [sys.executable, "-m", "rmse_elm.cli", "train", "--dataset", csv_path,
             "--hidden", "6", "--seed", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "test MSE" in proc.stdout
