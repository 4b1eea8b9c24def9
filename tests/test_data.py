import numpy as np
import pytest

import rmse_elm.synth
from rmse_elm.data import (
    DataError,
    Dataset,
    NoiseSpec,
    SplitSpec,
    apply_normalization,
    blend_noise,
    fit_normalization,
    load_csv,
    make_blended_split,
    save_csv,
    split,
)
from rmse_elm.synth import (
    benchmark_task,
    make_abalone_task,
    make_housing_task,
    make_waveform,
    make_wine_task,
)


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadCsv:
    def test_small_numeric_file(self, tmp_path):
        p = write(tmp_path, "a,b,t\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(p, "t")
        assert ds.X.shape == (3, 2)
        assert ds.y.tolist() == [3.0, 6.0, 9.0]
        assert ds.feature_names == ("a", "b")

    def test_target_by_index_without_header(self, tmp_path):
        p = write(tmp_path, "1,2,3\n4,5,6\n")
        ds = load_csv(p, 0, has_header=False)
        assert ds.y.tolist() == [1.0, 4.0]
        assert ds.X.shape == (2, 2)

    def test_parse_error_reports_location(self, tmp_path):
        p = write(tmp_path, "a,b\n1,2\n3,oops\n")
        with pytest.raises(DataError, match=r"row 2.*'b'.*oops"):
            load_csv(p, "a")

    def test_ragged_row_reported(self, tmp_path):
        p = write(tmp_path, "a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(p, "a")

    def test_missing_target_column(self, tmp_path):
        p = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataError, match="no column named 'z'"):
            load_csv(p, "z")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(tmp_path / "nope.csv", "t")

    def test_categorical_encoding(self, tmp_path):
        p = write(tmp_path, "sex,len,rings\nM,0.5,10\nF,0.6,12\nI,0.2,4\n")
        ds = load_csv(p, "rings", categorical={"sex": {"M": 1, "F": -1, "I": 0}})
        assert ds.X[:, 0].tolist() == [1.0, -1.0, 0.0]
        assert ds.n_features == 2

    def test_unknown_category_reported(self, tmp_path):
        p = write(tmp_path, "sex,t\nM,1\nX,2\n")
        with pytest.raises(DataError, match="unknown category 'X'"):
            load_csv(p, "t", categorical={"sex": {"M": 1.0}})


class TestNormalize:
    def test_hand_computed_column(self):
        ds = Dataset(np.array([[1.0], [2.0], [3.0]]), np.zeros(3), ("a",), "t")
        normed = apply_normalization(ds, fit_normalization(ds))
        # mean 2, population std sqrt(2/3)
        expected = (np.array([1.0, 2.0, 3.0]) - 2.0) / np.sqrt(2.0 / 3.0)
        assert np.allclose(normed.X[:, 0], expected, atol=1e-15)
        assert normed.X[1, 0] == 0.0
        assert normed.X[0, 0] == pytest.approx(-1.2247448713915890, abs=1e-12)

    def test_constant_column_maps_to_zero(self):
        ds = Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 4.0]]), np.zeros(3), ("a", "b"), "t")
        params = fit_normalization(ds)
        normed = apply_normalization(ds, params)
        assert np.all(normed.X[:, 0] == 0.0)
        assert params.constant.tolist() == [True, False]

    def test_reapplication_is_bit_identical(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(20, 4)), rng.normal(size=20), tuple("abcd"), "t")
        params = fit_normalization(ds)
        normed = apply_normalization(ds, params)
        again = apply_normalization(ds, params)
        assert np.array_equal(normed.X, again.X)

    def test_needs_two_rows(self):
        ds = Dataset(np.ones((1, 2)), np.ones(1), ("a", "b"), "t")
        with pytest.raises(ValueError):
            fit_normalization(ds)


class TestBlendNoise:
    SEVEN = (2.0, 1.0, 0.5, 0.1, 0.005, 0.001, 0.0005)
    TEN = (2.0, 1.0, 0.5, 0.1, 0.05, 0.01, 0.005, 0.001, 0.0005, 0.0001)

    def test_seven_noise_columns_on_13_features(self):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.normal(size=(50, 13)), rng.normal(size=50),
                     tuple(f"f{i}" for i in range(13)), "bh-shaped")
        out = blend_noise(ds, NoiseSpec(self.SEVEN, seed=3))
        assert out.n_features == 20
        assert np.array_equal(out.X[:, :13], ds.X)
        assert len(out.feature_names) == 20

    def test_ten_noise_columns_on_21_features(self):
        ds = make_waveform(n_samples=100, seed=0)
        out = blend_noise(ds, NoiseSpec(self.TEN, seed=3))
        assert out.n_features == 31

    def test_deterministic(self):
        ds = make_waveform(n_samples=30, seed=0)
        a = blend_noise(ds, NoiseSpec((1.0, 0.5), seed=9))
        b = blend_noise(ds, NoiseSpec((1.0, 0.5), seed=9))
        assert np.array_equal(a.X, b.X)
        c = blend_noise(ds, NoiseSpec((1.0, 0.5), seed=10))
        assert not np.array_equal(a.X, c.X)

    def test_injected_variance_concentrates(self):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.normal(size=(10000, 2)), rng.normal(size=10000), ("a", "b"), "t")
        out = blend_noise(ds, NoiseSpec((2.0,), seed=11))
        assert 1.85 <= np.var(out.X[:, 2]) <= 2.15

    def test_noise_uncorrelated_with_target(self):
        ds = make_abalone_task(seed=0)
        out = blend_noise(ds, NoiseSpec(self.SEVEN, seed=12))
        for col in range(8, out.n_features):
            r = np.corrcoef(out.X[:, col], out.y)[0, 1]
            assert abs(r) < 0.1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(())
        with pytest.raises(ValueError):
            NoiseSpec((1.0, -0.5))


class TestSplit:
    def test_counts_like_benchmark_tables(self):
        ds = make_housing_task(seed=0)
        train, test = split(ds, SplitSpec(n_train=400))
        assert (train.n_samples, test.n_samples) == (400, 106)
        aba = make_abalone_task(seed=0)
        train, test = split(aba, SplitSpec(n_train=2000))
        assert (train.n_samples, test.n_samples) == (2000, 2177)

    def test_file_order_when_unshuffled(self):
        ds = make_wine_task(seed=0)
        train, test = split(ds, SplitSpec(n_train=1065))
        assert np.array_equal(train.X, ds.X[:1065])
        assert np.array_equal(test.y, ds.y[1065:])

    def test_out_of_range(self):
        ds = make_wine_task(seed=0)
        with pytest.raises(ValueError):
            split(ds, SplitSpec(n_train=ds.n_samples))


class TestMakeBlendedSplit:
    def test_original_features_normalized_noise_kept_raw(self):
        ds = make_housing_task(seed=0)
        noise = NoiseSpec(TestBlendNoise.SEVEN, seed=1)
        train, test, params = make_blended_split(ds, noise, SplitSpec(n_train=400))
        assert train.n_features == 20
        # originals are z-scored on the training rows
        assert np.allclose(train.X[:, :13].mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(train.X[:, :13].std(axis=0), 1.0, atol=1e-12)
        # noise columns keep their prescribed variances (not forced to 1)
        assert abs(np.var(train.X[:, 13]) - 2.0) < 0.35
        assert np.var(train.X[:, 19]) < 0.01

    def test_no_noise_spec_splits_and_z_scores_every_column(self):
        # train without --noise: the same split and normalization, with no column blended in
        ds = make_housing_task(seed=0)
        spec = SplitSpec(n_train=400)
        train, test, params = make_blended_split(ds, None, spec)
        ref_train, ref_test = split(ds, spec)
        ref_params = fit_normalization(ref_train)
        for got, want in ((train, apply_normalization(ref_train, ref_params)),
                          (test, apply_normalization(ref_test, ref_params))):
            assert np.array_equal(got.X, want.X) and np.array_equal(got.y, want.y)
            assert got.feature_names == ds.feature_names
        for name in ("mean", "std", "constant"):
            assert np.array_equal(getattr(params, name), getattr(ref_params, name))

    def test_fully_deterministic(self):
        ds = make_wine_task(seed=0)
        noise = NoiseSpec((1.0, 0.1), seed=4)
        spec = SplitSpec(n_train=1065)
        a = make_blended_split(ds, noise, spec)
        b = make_blended_split(ds, noise, spec)
        assert np.array_equal(a[0].X, b[0].X)
        assert np.array_equal(a[1].X, b[1].X)


class TestSaveCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.normal(size=(12, 3)), rng.normal(size=12), ("a", "b", "c"), "t")
        path = save_csv(ds, tmp_path / "out.csv")
        back = load_csv(path, "target")
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)

    def test_manifest_sidecar(self, tmp_path):
        ds = make_waveform(n_samples=10, seed=0)
        save_csv(ds, tmp_path / "wav.csv", manifest={"noise_seed": 7, "variances": "1, 0.5"})
        text = (tmp_path / "wav.csv.manifest.txt").read_text()
        assert "noise_seed: 7" in text
        assert "rows: 10" in text


class TestSynthTasks:
    def test_waveform_structure(self):
        ds = make_waveform(n_samples=5000, seed=0)
        assert ds.X.shape == (5000, 21)
        assert set(np.unique(ds.y)) == {0.0, 1.0, 2.0}
        a = make_waveform(n_samples=100, seed=1)
        b = make_waveform(n_samples=100, seed=1)
        assert np.array_equal(a.X, b.X)

    def test_waveform_class_means_follow_base_peaks(self):
        ds = make_waveform(n_samples=6000, seed=2)
        mean0 = ds.X[ds.y == 0].mean(axis=0)
        # class 0 mixes waves peaking at positions 7 and 15 (indices 6 and 14)
        assert mean0[6] > mean0[10] - 0.5 and mean0[14] > mean0[20]
        assert mean0[[6, 14]].min() > 1.5

    def test_housing_schema(self):
        ds = make_housing_task(seed=0)
        assert ds.X.shape == (506, 13)
        assert 5.0 <= ds.y.min() and ds.y.max() <= 50.0
        assert 15.0 < ds.y.mean() < 30.0

    def test_abalone_schema(self):
        ds = make_abalone_task(seed=0)
        assert ds.X.shape == (4177, 8)
        assert set(np.unique(ds.X[:, 0])) <= {-1.0, 0.0, 1.0}
        assert 1.0 <= ds.y.min() and ds.y.max() <= 29.0

    def test_wine_schema(self):
        ds = make_wine_task(seed=0)
        assert ds.X.shape == (1599, 11)
        assert 3.0 <= ds.y.min() and ds.y.max() <= 8.0
        assert np.all(ds.y == np.rint(ds.y))

    def test_benchmark_task_generated_fallback(self, tmp_path):
        task = benchmark_task("BH", data_dir=tmp_path)
        assert task.source == "generated"
        assert task.dataset.X.shape == (506, 13)
        assert task.split.n_train == 400

    def test_benchmark_task_prefers_real_file(self, tmp_path):
        ds = make_housing_task(seed=0)
        save_csv(ds, tmp_path / "boston_housing.csv")
        task = benchmark_task("housing", data_dir=tmp_path)
        assert task.source.startswith("file:")
        assert np.array_equal(task.dataset.X, ds.X)

    @pytest.fixture
    def load_calls(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return load_csv(*args, **kwargs)

        monkeypatch.setattr(rmse_elm.synth, "load_csv", counting)
        return calls

    def test_benchmark_task_parses_saved_file_once(self, tmp_path, load_calls):
        ds = make_abalone_task(seed=0)
        save_csv(ds, tmp_path / "abalone.csv")
        task = benchmark_task("aba", data_dir=tmp_path)
        assert len(load_calls) == 1
        assert np.array_equal(task.dataset.X, ds.X)
        assert np.array_equal(task.dataset.y, ds.y)

    def test_benchmark_task_parses_categorical_layout_once(self, tmp_path, load_calls):
        write(tmp_path, "Sex,Length,Rings\nM,0.4,9\nI,0.2,4\nF,0.5,12\n", "abalone.csv")
        task = benchmark_task("abalone", data_dir=tmp_path)
        assert len(load_calls) == 1
        assert task.dataset.X[:, 0].tolist() == [1.0, 0.0, -1.0]
        assert task.dataset.y.tolist() == [9.0, 4.0, 12.0]

    def test_benchmark_task_unknown_layout_names_file(self, tmp_path, load_calls):
        path = write(tmp_path, "a,b\n1,2\n3,4\n", "winequality_red.csv")
        with pytest.raises(DataError, match="winequality_red.csv") as err:
            benchmark_task("rw", data_dir=tmp_path)
        assert "quality" in str(err.value)
        assert load_calls == []
        write(tmp_path, "a,quality\n1,x\n", path.name)
        with pytest.raises(DataError, match="cannot parse 'x'"):
            benchmark_task("rw", data_dir=tmp_path)

    def test_benchmark_task_unknown_key(self):
        with pytest.raises(ValueError, match="unknown benchmark task"):
            benchmark_task("mnist")
