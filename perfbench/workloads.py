"""The three workloads: inputs from the seed, a closed-loop timed round,
the output checks, and the metrics each reports.

A round is a fixed list of calls into the package, each started after
the previous one returned. Every round of a run repeats the same calls
on the same inputs, so every round must return bit-identical outputs
and the run's quality figures do not depend on how many rounds fit in
the time budget. All times are CPU seconds of this process.
"""

import ast
import contextlib
import io
import statistics
import sys
import time
import tracemalloc

import numpy as np

import checks
import spans

G7 = (2, 1, 0.5, 0.1, 0.005, 0.001, 0.0005)
G10 = (2, 1, 0.5, 0.1, 0.05, 0.01, 0.005, 0.001, 0.0005, 0.0001)
# noise-column seeds of the g7 and g10 groups in configs/desk_bench.ini
NOISE_SEEDS = {G7: 101, G10: 102}
# the seed of the untimed tracemalloc pass, the same in every run
PEAK_SEED = 0

FIT_ROOTS = ("elm.train_elm", "recursive.train_rmse_elm", "recursive.train_e_gasen",
             "recursive.train_gasen_elm", "recursive.train_simple_ensemble")
PREDICT_ROOTS = ("recursive.ElmEnsemble.predict", "recursive.predict_ensemble", "elm.predict")
NAN = float("nan")
# spans whose arguments and result the traced run keeps for its checks
KEEP = ("selective.correlation_matrix", "selective.ga_evolve",
        "selective.select_by_threshold") + FIT_ROOTS


def derived_seeds(seed, n):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def cpu_call(fn, *args, **kwargs):
    t0 = time.process_time()
    out = fn(*args, **kwargs)
    return out, time.process_time() - t0


class FitWorkload:
    """Direct calls: per derived seed one training call, then predictions."""

    def __init__(self, name, task, noise, fits, predicts, train):
        self.name, self.task, self.noise = name, task, noise
        self.fits, self.predicts, self.train = fits, predicts, train

    def setup(self, R, workdir, seed):
        # an empty data dir, so a real CSV dropped into data/ cannot change the inputs
        task = R.benchmark_task(self.task, data_dir=workdir / "data", seed=0)
        spec = R.NoiseSpec(self.noise, seed=NOISE_SEEDS[self.noise])
        train, test, _ = R.make_blended_split(task.dataset, spec, task.split)
        self.X, self.y = train.X, train.y
        self.X_test, self.y_test = test.X, test.y
        self.seeds = derived_seeds(seed, self.fits)

    def ops_per_round(self):
        return self.fits * (1 + self.predicts)

    def run_round(self, R, tracer=None):
        """Returns (outputs, timings, failed)."""
        out = {"ensembles": [], "preds": []}
        t = {"fit": [], "predict": []}
        failed = 0
        for s in self.seeds:
            if tracer:
                tracer.request("fit")
            try:
                ens, dt = cpu_call(self.train, R, self.X, self.y, s)
            except Exception as exc:  # a failing call is a failed operation
                print(f"{self.name}: fit seed {s} failed: {exc!r}", file=sys.stderr)
                failed += 1 + self.predicts
                continue
            t["fit"].append(dt)
            first = None
            for _ in range(self.predicts):
                if tracer:
                    tracer.request("predict")
                try:
                    pred, dt = cpu_call(ens.predict, self.X_test)
                except Exception as exc:
                    print(f"{self.name}: predict failed: {exc!r}", file=sys.stderr)
                    failed += 1
                    continue
                t["predict"].append(dt)
                if first is None:
                    first = pred
                elif not np.array_equal(pred, first):
                    out.setdefault("problems", []).append(f"{self.name}: repeated predict differs")
            out["ensembles"].append(ens)
            out["preds"].append(first)
        return out, t, failed

    def check(self, out):
        problems = list(out.get("problems", []))
        rels = []
        for k, (ens, pred) in enumerate(zip(out["ensembles"], out["preds"])):
            label = f"{self.name} fit {k}"
            shape = checks.check_finite_shape(pred, self.X_test.shape[0], label)
            if shape:
                problems += shape
                continue
            member_preds, scales = checks.rebuild_member_predictions(ens.members, self.X_test)
            problems += checks.check_ensemble_average(pred, member_preds, scales, label)
            problems += checks.check_ambiguity(pred, member_preds, self.y_test, label)
            for j, m in enumerate(ens.members):
                problems += checks.check_normal_equations(m, self.X, self.y, f"{label} member {j}")
            rels.append(float(np.mean((pred - self.y_test) ** 2)) / float(np.var(self.y_test)))
        return problems, rels

    def same_outputs(self, a, b):
        return len(a["preds"]) == len(b["preds"]) and all(
            np.array_equal(p, q) for p, q in zip(a["preds"], b["preds"]))

    def round_metrics(self, rounds):
        """Timing metrics; NaN where every call of that kind failed."""
        fits = [dt for r in rounds for dt in r["fit"]]
        predict_s = sum(dt for r in rounds for dt in r["predict"])
        rows = self.X_test.shape[0] * sum(len(r["predict"]) for r in rounds)
        return {
            "fit_cpu_s.p50": statistics.median(fits) if fits else NAN,
            "predict_rows_per_cpu_s": rows / predict_s if predict_s else NAN,
            "matrix_cpu_s": statistics.median(sum(r["fit"]) + sum(r["predict"]) for r in rounds),
        }

    def peak_fit(self, R):
        return self.train(R, self.X, self.y, PEAK_SEED)


def _train_rmse(R, X, y, seed):
    return R.train_rmse_elm(X, y, R.EnsembleConfig(seed=seed))


def _train_simple(R, X, y, seed):
    return R.train_simple_ensemble(X, y, n_learners=80, n_hidden=50, seed=seed)


MATRIX_CONFIG = """\
[experiment]
methods = {methods}
runs = {runs}
seed = {seed}
jobs = 1
out_dir = {out}
data_dir = {data}

[ensemble]
groups = 4
group_size = 20
hidden = 50
validation_fraction = {holdout}

[ga]
population = 50
generations = 100

[noise:g7]
variances = {variances}
seed = {noise_seed}

[dataset:Aba]
task = abalone
n_train = {n_train}
"""


class MatrixWorkload:
    """The researcher's path: `rmse-elm bench`, then `rmse-elm report`."""

    name = "aba-matrix"
    methods = ("elm", "gasen-elm", "e-gasen", "rmse-elm")
    canonical = ("ELM", "GASEN-ELM", "E-GASEN", "RMSE-ELM")
    runs = 3
    holdout = 0.25

    def setup(self, R, workdir, seed):
        data = workdir / "data"
        task = R.benchmark_task("aba", data_dir=data, seed=0)
        R.save_csv(task.dataset, data / "abalone.csv")
        self.n_train = task.split.n_train
        self.dataset = task.dataset
        self.y_test_var = float(np.var(task.dataset.y[self.n_train:]))
        self.n_test = task.dataset.n_samples - self.n_train
        self.workdir = workdir
        self.config = workdir / "matrix.ini"
        self.config.write_text(MATRIX_CONFIG.format(
            methods=", ".join(self.methods), runs=self.runs, seed=derived_seeds(seed, 1)[0],
            out=workdir / "report", data=data, holdout=self.holdout,
            variances=", ".join(map(str, G7)), noise_seed=NOISE_SEEDS[G7], n_train=self.n_train))
        self.round_index = 0

    def ops_per_round(self):
        return len(self.methods) * self.runs

    def _cli(self, R, argv, tracer, t, key):
        if tracer:
            tracer.request("matrix")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code, dt = cpu_call(R.cli.main, argv)
        t[key].append(dt)
        return code, stderr.getvalue()

    @staticmethod
    def _meter(R):
        """Times the training and predict calls `bench` makes for its cells."""
        fits = ("train_elm", "train_simple_ensemble", "train_gasen_elm", "train_e_gasen",
                "train_rmse_elm")
        return spans.CpuMeter([(R.bench, f, "fit") for f in fits]
                              + [(R.bench, "predict", "predict"),
                                 (R.ElmEnsemble, "predict", "predict")])

    def run_round(self, R, tracer=None):
        out_dir = self.workdir / f"round{self.round_index}"
        self.round_index += 1
        t = {"bench": [], "report": []}
        meter = self._meter(R)
        meter.install()
        try:
            code, err = self._cli(R, ["bench", "--config", str(self.config), "--jobs", "1",
                                      "--out", str(out_dir / "bench")], tracer, t, "bench")
        finally:
            meter.uninstall()
        t.update(meter.times)
        out = {"dir": out_dir, "problems": []}
        # cli prints "cell failed (dataset, noise, method): message" per failed cell
        out["failed_methods"] = {ast.literal_eval(line[len("cell failed "):line.index("):") + 1])[2]
                                 for line in err.splitlines() if line.startswith("cell failed ")}
        if code != 0:
            # bench exits non-zero when every cell failed, or before running any
            if out["failed_methods"] != set(self.canonical):
                out["problems"].append(f"{self.name}: bench exited {code}: {err.strip()}")
            print(f"{self.name}: bench exited {code}: {err.strip()}", file=sys.stderr)
            out["failed_methods"] = set(self.canonical)
            return out, t, self.ops_per_round()
        failed = self.runs * len(out["failed_methods"])
        code, err = self._cli(R, ["report", "--records", str(out_dir / "bench" / "runrecords.csv"),
                                  "--out", str(out_dir / "report")], tracer, t, "report")
        if code != 0:
            out["problems"].append(f"{self.name}: report exited {code}: {err.strip()}")
        return out, t, failed

    def check(self, out):
        problems = list(out["problems"])
        methods = [m for m in self.canonical if m not in out["failed_methods"]]
        if problems or not methods:
            return problems, []
        more, records = checks.check_matrix_report(
            out["dir"] / "bench", out["dir"] / "report", methods, self.runs, self.name)
        rels = [float(r["test_mse"]) / self.y_test_var for r in records if r["method"] == "RMSE-ELM"]
        return problems + more, rels

    def same_outputs(self, a, b):
        """Records and tables agree; only the program's own wall times may differ."""
        if a["failed_methods"] != b["failed_methods"]:
            return False
        if a["failed_methods"] == set(self.canonical):
            return True  # no round wrote records to compare

        def stable(d):
            rows = checks.read_table(d / "bench" / "runrecords.csv")
            keep = [i for i, h in enumerate(rows[0]) if h != "wall_time_s"]
            tables = [(d / s / f).read_bytes() for s in ("bench", "report")
                      for f in ("mse.csv", "std.csv", "mse_comparison.csv", "std_comparison.csv")]
            return [[row[i] for i in keep] for row in rows], tables
        return stable(a["dir"]) == stable(b["dir"])

    def round_metrics(self, rounds):
        """Timing metrics; NaN where every call of that kind failed."""
        fits = [statistics.fmean(r["fit"]) for r in rounds if r["fit"]]
        predict_s = sum(dt for r in rounds for dt in r["predict"])
        rows = self.n_test * sum(len(r["predict"]) for r in rounds)
        return {
            "fit_cpu_s.p50": statistics.median(fits) if fits else NAN,
            "predict_rows_per_cpu_s": rows / predict_s if predict_s else NAN,
            "matrix_cpu_s": statistics.median(r["bench"][0] + sum(r["report"]) for r in rounds),
        }

    def peak_fit(self, R):
        spec = R.NoiseSpec(G7, seed=NOISE_SEEDS[G7])
        train, _, _ = R.make_blended_split(self.dataset, spec, R.SplitSpec(self.n_train))
        cfg = R.EnsembleConfig(seed=PEAK_SEED, validation_fraction=self.holdout)
        return R.train_rmse_elm(train.X, train.y, cfg)


WORKLOADS = {
    "bh-rmse": lambda: FitWorkload("bh-rmse", "bh", G7, fits=16, predicts=50, train=_train_rmse),
    "wav-simple": lambda: FitWorkload("wav-simple", "wav", G10, fits=4, predicts=1,
                                      train=_train_simple),
    "aba-matrix": MatrixWorkload,
}


def peak_fit_mb(workload, R):
    """Peak traced allocation of one untimed training call at PEAK_SEED."""
    tracemalloc.start()
    try:
        workload.peak_fit(R)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
