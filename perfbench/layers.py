"""Per-layer metrics and checks from one traced round.

A span's phase is the kind of request that made it, except that inside
the bench matrix a span under a training call counts as `fit` and one
under a predict call as `predict`. `fit.*` figures are per training
call, `predict.*` per predict call, `setup.*` and `matrix.*` totals of
the set-up and of one bench-plus-report round.
"""

import statistics

import numpy as np

import checks
from workloads import FIT_ROOTS, PREDICT_ROOTS


def _phases(tracer):
    """(phase, top fit root index or None) for every span."""
    out = []
    for i, span in enumerate(tracer.spans):
        chain = [(i, span)]
        parent = span.parent
        while parent is not None:
            chain.append((parent, tracer.spans[parent]))
            parent = tracer.spans[parent].parent
        fits = [j for j, s in chain if s.name in FIT_ROOTS]
        if fits:
            out.append(("fit", fits[-1]))
        elif any(s.name in PREDICT_ROOTS for _, s in chain):
            out.append(("predict", None))
        else:
            out.append((tracer.kinds[span.request], None))
    return out


def _traced_checks(tracer, phases):
    """Checks on the captured calls of every fit; returns (problems, GA gaps).

    Within one fit, the models trained since the last selection form a
    group, and a selection over a group adds its survivors to the pool.
    The final members must be models of that pool (of all trained models
    when nothing was selected).
    """
    problems, gaps = [], []
    fits = {}  # top fit root -> {"group": [...], "pool": [...]}
    for i, span in enumerate(tracer.spans):
        phase, root = phases[i]
        if phase != "fit" or root == i or tracer.spans[root].name == "elm.train_elm":
            continue  # a single ELM has no members to check
        state = fits.setdefault(root, {"group": [], "pool": []})
        label = f"traced {span.name} #{i}"
        if span.name == "selective.correlation_matrix":
            problems += checks.check_correlation(span.args[0], span.args[1], span.result.c, label)
        elif span.name == "selective.ga_evolve":
            problems += checks.check_simplex(span.result.w, label)
            more, gap = checks.check_ga_weights(span.result.w, span.args[0].c, label)
            problems += more
            gaps.append(gap)
        elif span.name == "selective.select_by_threshold":
            problems += checks.check_selection(span.args[0].w, span.args[1], span.result, label)
            if state["group"]:
                state["pool"] += [state["group"][k] for k in span.result]
                state["group"] = []
        elif span.name == "elm.train_elm":
            state["group"].append(span.result)
    for root, state in fits.items():
        problems += checks.check_members_in_pool(
            tracer.spans[root].result, state["pool"] or state["group"],
            f"traced {tracer.spans[root].name} #{root}")
    return problems, gaps


def layer_metrics(tracer, import_s, rels):
    """Returns (problems, {per-layer metric name: value})."""
    phases = _phases(tracer)
    agg = {}
    top_fits = []
    n_predict = 0
    for i, span in enumerate(tracer.spans):
        phase, root = phases[i]
        entry = agg.setdefault((phase, span.name), [0.0, 0])
        entry[0] += span.self_s
        entry[1] += 1
        if root == i:
            top_fits.append(span.result)
        elif phase == "predict" and span.name in PREDICT_ROOTS and (
                span.parent is None or phases[span.parent][0] != "predict"):
            n_predict += 1

    n_fit = max(len(top_fits), 1)
    n_predict = max(n_predict, 1)

    def self_s(phase, name, per=1):
        return agg.get((phase, name), [0.0, 0])[0] / per

    def calls(phase, name, per=1):
        return agg.get((phase, name), [0.0, 0])[1] / per

    def module_self(phase, module, per):
        return sum(v[0] for (p, n), v in agg.items() if p == phase and n.startswith(module)) / per

    problems, gaps = _traced_checks(tracer, phases)
    pools = [getattr(e, "pool_size", getattr(e, "n_members", 1)) for e in top_fits]
    members = [getattr(e, "n_members", 1) for e in top_fits]
    values = {
        "fit.selective.ga_evolve.self_s": self_s("fit", "selective.ga_evolve", n_fit),
        "fit.selective.ga_evolve.calls": calls("fit", "selective.ga_evolve", n_fit),
        "fit.selective.ga_gap": float(np.mean(gaps)) if gaps else 0.0,
        "fit.selective.correlation_matrix.self_s": self_s("fit", "selective.correlation_matrix", n_fit),
        "fit.selective.select_by_threshold.self_s": self_s("fit", "selective.select_by_threshold", n_fit),
        "fit.elm.readout.self_s": (self_s("fit", "elm.train_elm") + self_s("fit", "elm.pseudoinverse")) / n_fit,
        "fit.elm.hidden_output.self_s": self_s("fit", "elm.hidden_output", n_fit),
        "fit.elm.hidden_output.calls": calls("fit", "elm.hidden_output", n_fit),
        "fit.elm.make_hidden_layer.self_s": self_s("fit", "elm.make_hidden_layer", n_fit),
        "fit.recursive.self_s": module_self("fit", "recursive.", n_fit),
        "fit.recursive.pool_size": float(np.mean(pools)) if pools else 0.0,
        "fit.recursive.members": float(np.mean(members)) if members else 0.0,
        "fit.test_mse_rel.std": statistics.stdev(rels) if len(rels) > 1 else 0.0,
        "predict.elm.hidden_output.self_s": self_s("predict", "elm.hidden_output", n_predict),
        "predict.elm.predict.self_s": self_s("predict", "elm.predict", n_predict),
        "predict.recursive.self_s": module_self("predict", "recursive.", n_predict),
        "setup.import_s": import_s,
        "setup.synth.benchmark_task.self_s": self_s("setup", "synth.benchmark_task"),
        "setup.data.make_blended_split.self_s": self_s("setup", "data.make_blended_split"),
        "setup.data.save_csv.self_s": self_s("setup", "data.save_csv"),
        "matrix.bench.load_experiment_config.self_s": self_s("matrix", "bench.load_experiment_config"),
        "matrix.data.load_csv.self_s": self_s("matrix", "data.load_csv"),
        "matrix.data.load_csv.calls": calls("matrix", "data.load_csv"),
        "matrix.bench.run_experiment.self_s": self_s("matrix", "bench.run_experiment"),
        "matrix.bench.write_report.self_s": self_s("matrix", "bench.write_report"),
        "matrix.bench.read_records.self_s": self_s("matrix", "bench.read_records"),
    }
    return problems, values
