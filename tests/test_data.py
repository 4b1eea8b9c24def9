import csv
import io
import re
import tracemalloc

import numpy as np
import pytest

import rmse_elm.data
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

    # the location is the file's line, blank lines counted
    @pytest.mark.parametrize("text, line", [("a,b\n1,2\n3,oops\n", 3),
                                            ("a,b\n\n1,2\n\n3,oops\n", 5),
                                            ("a,b\r\n\r\n1,2\r\n3,oops\r\n", 4),
                                            ("a,b\n , \n1,2\n3,oops\n", 4)],
                             ids=["no-blank-lines", "blank-lines", "crlf", "whitespace-line"])
    def test_parse_error_reports_location(self, tmp_path, text, line):
        p = write(tmp_path, text)
        with pytest.raises(DataError, match=rf"^{re.escape(str(p))}, line {line}, column 'b': "
                                            r"cannot parse 'oops' as a number$"):
            load_csv(p, "a")

    @pytest.mark.parametrize("gap, line", [("", 4), ("\n\n", 6)],
                             ids=["no-blank-lines", "blank-lines"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_cell_reports_location(self, tmp_path, cell, gap, line):
        p = write(tmp_path, f"a,b,c\n1,2,3\n{gap}4,5,6\n7,{cell},9\n")
        with pytest.raises(DataError, match=rf", line {line}, column 'b': non-finite value"):
            load_csv(p, "a")

    @pytest.mark.parametrize("text, line", [("a,b\n1,2\n3\n", 3), ("a,b\n1,2\n\n3\n", 4)],
                             ids=["no-blank-lines", "blank-lines"])
    def test_ragged_row_reported(self, tmp_path, text, line):
        p = write(tmp_path, text)
        with pytest.raises(DataError, match=rf", line {line}: 1 columns, expected 2"):
            load_csv(p, "a")

    # the first data row is named by its line, below any blank lines after the header
    @pytest.mark.parametrize("gap, line", [("", 2), ("\n", 3)],
                             ids=["no-blank-lines", "blank-lines"])
    @pytest.mark.parametrize("header", ["a,b", "a,b,c,d"], ids=["wider-rows", "wider-header"])
    def test_header_width_must_match_the_rows(self, tmp_path, header, gap, line):
        p = write(tmp_path, f"{header}\n{gap}1,2,3\n4,5,6\n")
        with pytest.raises(DataError, match=rf"header has \d columns, line {line} has 3"):
            load_csv(p, "a")

    @pytest.mark.parametrize("row", [1, 3])
    def test_field_over_the_csv_size_limit_names_file_and_line(self, tmp_path, row):
        # the csv module reads no field over 131072 characters: a DataError, not csv.Error
        lines = ["a,b", "1,2", "3,4"]
        lines[row - 1] = "x" * 131073 + ",2"
        p = write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"^{re.escape(str(p))}, line {row}: field larger"):
            load_csv(p, "a")

    @pytest.mark.parametrize("data", [b"a,b\n1,2\n3,\xff\n", b"\xff\xfea\x00,\x00b\x00\n\x00"],
                             ids=["latin-1-cell", "utf-16"])
    def test_file_that_is_not_utf8_names_itself(self, tmp_path, data):
        p = tmp_path / "data.csv"
        p.write_bytes(data)
        with pytest.raises(DataError, match=rf"^{re.escape(str(p))}: not UTF-8 text$"):
            load_csv(p, "a")

    def test_directory_is_a_data_error(self, tmp_path):
        where = re.escape(str(tmp_path))
        with pytest.raises(DataError, match=rf"^\[Errno 21\] Is a directory: '{where}'$"):
            load_csv(tmp_path, "a")

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        # a spreadsheet's UTF-8 export may start with a BOM
        p = tmp_path / "data.csv"
        p.write_bytes("\ufeffa,b,t\n1,2,3\n4,5,6\n".encode())
        ds = load_csv(p, "a")
        assert ds.feature_names == ("b", "t")
        assert ds.y.tolist() == [1.0, 4.0]

    def test_names_are_read_as_utf8(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_bytes("café,t\n1,2\n3,4\n".encode())
        assert load_csv(p, "t").feature_names == ("café",)

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

    def test_holds_the_values_not_the_text(self, tmp_path):
        # the rows are parsed as they are read into one float buffer, which
        # X and y are copied from: the text and a list of the rows are never
        # held, so the peak stays within 3x the returned arrays (reading every
        # row before parsing any peaked at about 14x)
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(4000, 8)), rng.normal(size=4000), "abcdefgh", "t")
        path = save_csv(ds, tmp_path / "big.csv")
        tracemalloc.start()
        try:
            back = load_csv(path, "target")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.X, ds.X) and np.array_equal(back.y, ds.y)
        assert peak <= 3 * (back.X.nbytes + back.y.nbytes)


class TestLoadCsvFaultOrder:
    """With several faults in a file, the first faulty line in file order is
    reported; the header, the target and the categorical columns are checked
    on the first data row, before any later row is read."""

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2\n3,x\n4\n5,inf\n", "line 3, column 'b': cannot parse 'x'"),
        ("a,b\n1,2\n4\n3,x\n5,inf\n", "line 3: 1 columns, expected 2"),
        ("a,b\n1,2\n\n5,inf\n3,x\n4\n", "line 4, column 'b': non-finite value"),
    ], ids=["bad-cell-first", "ragged-row-first", "non-finite-first"])
    def test_first_faulty_line_is_reported(self, tmp_path, text, message):
        p = write(tmp_path, text)
        with pytest.raises(DataError, match=f"^{re.escape(f'{p}, {message}')}"):
            load_csv(p, "a")

    def test_bad_cell_before_a_field_the_csv_module_refuses(self, tmp_path):
        # the rows are parsed as they are read, so a field over 131072
        # characters on a later line no longer masks the earlier bad cell
        p = write(tmp_path, "a,b\n1,2\n3,x\n" + "4" * 131073 + ",5\n")
        with pytest.raises(DataError, match=rf"^{re.escape(str(p))}, line 3, column 'b': "
                                            r"cannot parse 'x' as a number$"):
            load_csv(p, "a")

    def test_missing_target_before_a_later_fault(self, tmp_path):
        p = write(tmp_path, "a,b\n1,2\n3,x\n" + "4" * 131073 + ",5\n")
        with pytest.raises(DataError, match=rf"^{re.escape(str(p))}: no column named 'z'"):
            load_csv(p, "z")

    @pytest.mark.parametrize("rows_between, message", [
        (0, ": not UTF-8 text"),
        (100_000, ", line 3, column 'b': cannot parse 'x' as a number"),
    ], ids=["same-chunk", "far-later"])
    def test_text_that_is_not_utf8_is_named_when_decoded(self, tmp_path, rows_between, message):
        # the file is decoded a chunk at a time: a bad byte in the chunk of
        # an earlier bad cell is named first, one far below it is not reached
        p = tmp_path / "data.csv"
        p.write_bytes(b"a,b\n1,2\n3,x\n" + b"5,6\n" * rows_between + b"4,\xff\n")
        with pytest.raises(DataError, match=f"^{re.escape(f'{p}{message}')}$"):
            load_csv(p, "a")

    def test_file_is_closed_when_a_middle_line_fails(self, tmp_path, monkeypatch):
        # the error's traceback holds load_csv's frame, and with it the row
        # stream: the file is closed all the same while the error is referenced
        opened = []

        def spy_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(rmse_elm.data, "open", spy_open, raising=False)
        p = write(tmp_path, "a,b\n1,2\n3,x\n" + "5,6\n" * 1000)
        with pytest.raises(DataError, match=", line 3, column 'b'") as info:
            load_csv(p, "a")
        assert info.value.__traceback__ is not None
        assert len(opened) == 1 and opened[0].closed


# finite values too large to z-score, as columns (a, b) of five rows, the first
# three of which train: one whose training std overflows, and one whose test z-score does
HUGE_IN_TRAIN = [[2.0, 1.0], [5.0, 1e308], [1.0, -1e308], [4.0, 4.0], [5.0, 5.0]]
HUGE_IN_TEST = [[2.0, 1.0], [5.0, 1.5], [1.0, 1.0], [4.0, 1e308], [5.0, 5.0]]


def two_columns(rows, name):
    return Dataset(np.array(rows), np.arange(float(len(rows))), ("a", "b"), name)


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

    def test_statistics_that_overflow_name_the_dataset_and_column(self):
        # the std's squared deviations overflow: no warning, and no column of zeros
        with pytest.raises(DataError, match=r"^t: column 'b' is too large to z-score: "
                                            r"its training mean or std overflows$"):
            fit_normalization(two_columns(HUGE_IN_TRAIN[:3], "t"))

    def test_z_score_that_overflows_names_the_dataset_and_column(self):
        params = fit_normalization(two_columns(HUGE_IN_TEST[:3], "t"))
        with pytest.raises(DataError, match=r"^t/test: column 'b' is too large to z-score: "
                                            r"a z-score overflows$"):
            apply_normalization(two_columns(HUGE_IN_TEST[3:], "t/test"), params)


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

    def test_empty_spec_blends_nothing(self):
        ds = make_waveform(n_samples=30, seed=0)
        out = blend_noise(ds, NoiseSpec(()))
        assert np.array_equal(out.X, ds.X) and out.feature_names == ds.feature_names

    def test_spec_validation(self):
        # empty variances draw nothing, so a seed other than the default would be ignored
        assert NoiseSpec(()).variances == ()
        for seed in (1, 4):
            with pytest.raises(ValueError, match="^empty variances draw no noise, so seed must "
                                                 "be left at 0$"):
                NoiseSpec((), seed=seed)
        with pytest.raises(ValueError):
            NoiseSpec((1.0, -0.5))
        # a non-finite variance would blend a column of NaN or inf into the data
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive finite numbers"):
                NoiseSpec((1.0, bad))
        for seed in (-1, 0.5, None):
            with pytest.raises(ValueError, match="seed must be a non-negative integer"):
                NoiseSpec((1.0,), seed=seed)


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

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_parts_are_copies(self, order):
        ds = make_housing_task(seed=0)
        ds = Dataset(np.asarray(ds.X, order=order), ds.y, ds.feature_names, ds.name)
        before = ds.X.copy(), ds.y.copy()
        parts = split(ds, SplitSpec(n_train=400))
        assert [(p.name, p.X.flags.c_contiguous) for p in parts] == [
            (f"{ds.name}/train", True), (f"{ds.name}/test", True)]
        for part in parts:
            part.X[:] = 0.0
            part.y[:] = 0.0
        assert np.array_equal(ds.X, before[0]) and np.array_equal(ds.y, before[1])


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
        train, test, params = make_blended_split(ds, NoiseSpec(()), spec)
        ref_train, ref_test = split(ds, spec)
        ref_params = fit_normalization(ref_train)
        for got, want in ((train, apply_normalization(ref_train, ref_params)),
                          (test, apply_normalization(ref_test, ref_params))):
            assert np.array_equal(got.X, want.X) and np.array_equal(got.y, want.y)
            assert got.feature_names == ds.feature_names
        for name in ("mean", "std", "constant"):
            assert np.array_equal(getattr(params, name), getattr(ref_params, name))

    @pytest.mark.parametrize("make, n_train, noise", [
        (make_housing_task, 400, None),
        (make_housing_task, 400, (2.0, 1.0, 0.5)),
        (make_abalone_task, 2000, (1.0, 0.1)),
    ])
    def test_equals_split_then_normalization(self, make, n_train, noise):
        ds = make(seed=0)
        spec = SplitSpec(n_train=n_train)
        noise = NoiseSpec(noise, seed=3) if noise else NoiseSpec(())  # None: the clean spec
        train, test, params = make_blended_split(ds, noise, spec)
        blended = blend_noise(ds, noise)
        ref_train, ref_test = split(blended, spec)
        ref_params = fit_normalization(ref_train)
        ref_params.mean[ds.n_features:] = 0.0
        ref_params.std[ds.n_features:] = 1.0
        ref_params.constant[ds.n_features:] = False
        for got, want in ((train, apply_normalization(ref_train, ref_params)),
                          (test, apply_normalization(ref_test, ref_params))):
            assert np.array_equal(got.X, want.X) and np.array_equal(got.y, want.y)
            assert (got.feature_names, got.name) == (want.feature_names, want.name)
        for name in ("mean", "std", "constant"):
            assert np.array_equal(getattr(params, name), getattr(ref_params, name))

    @pytest.mark.parametrize("rows, message", [
        (HUGE_IN_TRAIN, "huge/train: column 'b' is too large to z-score: "
                        "its training mean or std overflows"),
        (HUGE_IN_TEST, "huge/test: column 'b' is too large to z-score: a z-score overflows"),
    ], ids=["in-train", "in-test"])
    @pytest.mark.parametrize("noise", [(), (1.0,)], ids=["clean", "blended"])
    def test_huge_finite_value_names_the_part_and_column(self, rows, message, noise):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            make_blended_split(two_columns(rows, "huge"), NoiseSpec(noise), SplitSpec(n_train=3))

    @pytest.mark.parametrize("n_train", [1, 506, 507])
    def test_training_rows_outside_two_to_rows_minus_one_fail(self, n_train):
        # z-scoring takes two training rows, where a plain split takes one
        ds = make_housing_task(seed=0)
        with pytest.raises(ValueError, match=rf"^n_train must be in \[2, 505\], got {n_train}$"):
            make_blended_split(ds, NoiseSpec(()), SplitSpec(n_train=n_train))
        train, test, _ = make_blended_split(ds, NoiseSpec(()), SplitSpec(n_train=2))
        assert (train.n_samples, test.n_samples) == (2, 504)

    @pytest.mark.parametrize("rows", [1, 2])
    def test_fewer_than_three_rows_cannot_be_split(self, rows):
        ds = Dataset(np.arange(2.0 * rows).reshape(rows, 2), np.zeros(rows), ("a", "b"), "tiny")
        with pytest.raises(ValueError, match=rf"^tiny: .* at least 3 rows, got {rows}$"):
            make_blended_split(ds, NoiseSpec(()), SplitSpec(n_train=1))

    def test_parts_do_not_alias_the_table(self):
        ds = make_housing_task(seed=0)
        before = ds.X.copy(), ds.y.copy()
        train, test, _ = make_blended_split(ds, NoiseSpec(()), SplitSpec(n_train=400))
        for part in (train, test):
            part.X[:] = 0.0
            part.y[:] = 0.0
        assert np.array_equal(ds.X, before[0]) and np.array_equal(ds.y, before[1])

    def test_holds_the_table_fewer_times_than_split(self):
        # split's copies of the blended rows are never made: on the abalone
        # stand-in the peak falls from about 1.6 MB to 1.1 MB
        ds = make_abalone_task(seed=0)
        noise = NoiseSpec((2, 1, 0.5, 0.1, 0.005, 0.001, 0.0005), seed=101)
        spec = SplitSpec(n_train=2000)

        def through_split():
            blended = blend_noise(ds, noise)
            train, test = split(blended, spec)
            params = fit_normalization(train)
            return apply_normalization(train, params), apply_normalization(test, params)

        peaks = []
        for run in (lambda: make_blended_split(ds, noise, spec), through_split):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 0.8 * peaks[1]

    def test_holds_the_parts_and_one_noise_column(self):
        # the blended table and a list of noise columns are never alive: the
        # abalone stand-in with g7 peaks at the two parts, one noise column,
        # and, while the statistics are fitted, the deviations np.std forms
        # (n_train x d) with numpy's ufunc buffers (two of 64 KiB) and 32 KiB
        # for the Python objects; the parent's blend-then-split peaked 1.4x higher
        ds = make_abalone_task(seed=0)
        noise = NoiseSpec((2, 1, 0.5, 0.1, 0.005, 0.001, 0.0005), seed=101)
        spec = SplitSpec(n_train=2000)
        tracemalloc.start()
        try:
            train, test, _ = make_blended_split(ds, noise, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, d = ds.X.shape
        parts = train.X.nbytes + test.X.nbytes + train.y.nbytes + test.y.nbytes
        allowance = spec.n_train * d * 8 + 160 * 1024
        assert peak <= parts + n * 8 + allowance

    def test_blend_noise_draws_the_columns_of_the_split(self):
        # one helper draws the noise for both: the split's noise columns are
        # blend_noise's, rows in file order, and so are their names
        ds = make_housing_task(seed=0)
        noise = NoiseSpec((2.0, 1.0, 0.5), seed=5)
        train, test, _ = make_blended_split(ds, noise, SplitSpec(n_train=400))
        blended = blend_noise(ds, noise)
        d = ds.n_features
        assert np.array_equal(np.concatenate([train.X[:, d:], test.X[:, d:]]), blended.X[:, d:])
        assert train.feature_names == test.feature_names == blended.feature_names
        assert blended.feature_names[d:] == ("noise1_var2", "noise2_var1", "noise3_var0.5")

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

    def test_bytes_match_a_csv_writer_of_float_reprs(self, tmp_path):
        # the per-cell csv.writer form: a quoted header cell, repr of every float
        rng = np.random.default_rng(4)
        X = rng.normal(size=(7, 3)) * [1.0, 1e-300, 1e300]
        X[0] = [-0.0, 0.1, 5.0]
        y = np.r_[1.0 / 3.0, rng.normal(size=6)]
        ds = Dataset(X, y, ("a,b", 'say "x"', "c"), "t")
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(list(ds.feature_names) + ["target"])
        for i in range(ds.n_samples):
            writer.writerow([repr(float(v)) for v in ds.X[i]] + [repr(float(ds.y[i]))])
        path = save_csv(ds, tmp_path / "out.csv")
        assert path.read_bytes() == expected.getvalue().encode()
        assert path.read_bytes().startswith(b'"a,b","say ""x""",c,target\r\n-0.0,0.1,5.0,')

    def test_holds_one_block_of_rows(self, tmp_path):
        # rows are formatted a block at a time, so the peak does not grow with
        # the table: a quarter of its bytes here (a column_stack and tolist
        # of the whole table peaked at about 4x them)
        rng = np.random.default_rng(5)
        ds = Dataset(rng.normal(size=(20000, 8)), rng.normal(size=20000), "abcdefgh", "t")
        tracemalloc.start()
        try:
            path = save_csv(ds, tmp_path / "out.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (ds.X.nbytes + ds.y.nbytes) / 4
        back = load_csv(path, "target")
        assert np.array_equal(back.X, ds.X) and np.array_equal(back.y, ds.y)

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

    @pytest.mark.parametrize("header", ["Sex,Length,Rings", "sex,length,rings"],
                             ids=["Sex", "sex"])
    def test_benchmark_task_parses_categorical_layout_once(self, tmp_path, load_calls, header):
        write(tmp_path, f"{header}\nM,0.4,9\nI,0.2,4\nF,0.5,12\n", "abalone.csv")
        task = benchmark_task("abalone", data_dir=tmp_path)
        assert len(load_calls) == 1
        assert task.dataset.X[:, 0].tolist() == [1.0, 0.0, -1.0]
        assert task.dataset.y.tolist() == [9.0, 4.0, 12.0]

    def test_benchmark_task_bad_category_after_the_first_row(self, tmp_path, load_calls):
        # the first cell fixes the layout; a later bad code is load_csv's error, after one parse
        write(tmp_path, "Sex,Length,Rings\nM,0.4,9\nX,0.2,4\n", "abalone.csv")
        with pytest.raises(DataError, match=r"abalone.csv, line 3, column 'Sex': "
                                            r"unknown category 'X'"):
            benchmark_task("abalone", data_dir=tmp_path)
        assert len(load_calls) == 1

    def test_benchmark_task_unknown_layout_names_file(self, tmp_path, load_calls):
        path = write(tmp_path, "a,b\n1,2\n3,4\n", "winequality_red.csv")
        with pytest.raises(DataError, match="winequality_red.csv") as err:
            benchmark_task("rw", data_dir=tmp_path)
        assert "quality" in str(err.value)
        assert load_calls == []
        write(tmp_path, "a,quality\n1,x\n", path.name)
        with pytest.raises(DataError, match="cannot parse 'x'"):
            benchmark_task("rw", data_dir=tmp_path)

    def test_benchmark_task_field_over_the_csv_size_limit_names_file_and_line(self, tmp_path,
                                                                             load_calls):
        # the header and first row are read before load_csv: a DataError from either reader
        for text, line in (("MEDV," + "x" * 131073 + "\n1,2\n", 1),
                           ("MEDV,a\n1,2\n3," + "4" * 131073 + "\n", 3)):
            path = write(tmp_path, text, "boston_housing.csv")
            where = re.escape(f"{path}, line {line}: field larger than field limit")
            with pytest.raises(DataError, match=f"^{where}"):
                benchmark_task("bh", data_dir=tmp_path)
        assert len(load_calls) == 1

    def test_benchmark_task_reads_a_bom_prefixed_file(self, tmp_path, load_calls):
        # the BOM does not stick to "Sex", so the column is found and its codes decoded
        text = "\ufeffSex,Length,Rings\nM,0.4,9\nI,0.2,4\nF,0.5,12\n"
        (tmp_path / "abalone.csv").write_bytes(text.encode())
        task = benchmark_task("abalone", data_dir=tmp_path)
        assert len(load_calls) == 1
        assert task.dataset.feature_names == ("Sex", "Length")
        assert task.dataset.X[:, 0].tolist() == [1.0, 0.0, -1.0]
        assert task.dataset.y.tolist() == [9.0, 4.0, 12.0]

    @pytest.mark.parametrize("bad_line", [1, 2, 3])
    def test_benchmark_task_file_that_is_not_utf8_names_itself(self, tmp_path, load_calls,
                                                               bad_line):
        lines = [b"crim,MEDV", b"1,2", b"3,4"]
        lines[bad_line - 1] += b"\xff"
        path = tmp_path / "boston_housing.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: not UTF-8 text$"):
            benchmark_task("bh", data_dir=tmp_path)

    def test_benchmark_task_file_that_is_a_directory_names_itself(self, tmp_path, load_calls):
        (tmp_path / "waveform.csv").mkdir()
        with pytest.raises(DataError, match=r"^\[Errno 21\] Is a directory: .*waveform.csv'$"):
            benchmark_task("wav", data_dir=tmp_path)
        assert load_calls == []

    def test_benchmark_task_unknown_key(self):
        with pytest.raises(ValueError, match="unknown benchmark task"):
            benchmark_task("mnist")
