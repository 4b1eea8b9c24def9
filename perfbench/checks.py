"""Output checks computed apart from the functions under test.

Every check returns a list of problem strings; an empty list means the
output passed. Nothing here calls `rmse_elm`: predictions are rebuilt
from each member's stored weights, biases and readout, correlation
matrices are recomputed from the captured predictions, and the best
simplex weights come from the benchmark's own QP solver.
"""

import csv
import math
import statistics
from pathlib import Path

import numpy as np

# rounding slack for quantities that are sums of n products of doubles
_ULP_SLACK = 1e-9
# simplex_qp: iteration cap, stopping duality gap relative to the value,
# and how many steps pass between exact solves on the current support
_QP_MAX_ITER = 20000
_QP_REL_TOL = 1e-10
_QP_POLISH_EVERY = 50


def sigmoid_hidden(X, weights, biases):
    """Sigmoid hidden-layer output, written out as 1 / (1 + exp(-z))."""
    z = np.einsum("si,hi->sh", X, weights) + biases
    return 1.0 / (1.0 + np.exp(-z))


def rebuild_member_predictions(members, X):
    """One row per member: H(X) beta, from the member's stored parameters.

    Returns (predictions, scale) where scale[m, s] = sum_j |h_sj beta_j|
    bounds the rounding error of the program's own product.
    """
    preds, scales = [], []
    for m in members:
        if m.hidden.activation != "sigmoid":
            raise ValueError(f"rebuild supports sigmoid members, got {m.hidden.activation}")
        h = sigmoid_hidden(X, m.hidden.input_weights, m.hidden.biases)
        beta = m.output_weights[:, 0]
        preds.append(h @ beta)
        scales.append(np.abs(h) @ np.abs(beta))
    return np.array(preds), np.array(scales)


def check_finite_shape(pred, n_rows, label):
    pred = np.asarray(pred)
    if pred.shape != (n_rows,):
        return [f"{label}: prediction shape {pred.shape}, expected ({n_rows},)"]
    if not np.all(np.isfinite(pred)):
        return [f"{label}: prediction has non-finite entries"]
    return []


def check_ensemble_average(ensemble_pred, member_preds, member_scales, label):
    """The ensemble output must be the plain mean of its members' outputs."""
    expected = member_preds.mean(axis=0)
    tol = _ULP_SLACK * (member_scales.mean(axis=0) + np.abs(expected)) + 1e-300
    bad = np.abs(np.asarray(ensemble_pred) - expected) > tol
    if np.any(bad):
        worst = float(np.max(np.abs(ensemble_pred - expected)))
        return [f"{label}: ensemble prediction differs from the member mean "
                f"on {int(bad.sum())} rows (max |diff| {worst:.3g})"]
    return []


def check_ambiguity(ensemble_pred, member_preds, y, label):
    """Krogh-Vedelsby: the average's MSE never exceeds the mean member MSE."""
    ens_mse = float(np.mean((ensemble_pred - y) ** 2))
    member_mse = float(np.mean((member_preds - y) ** 2))
    if ens_mse > member_mse * (1.0 + _ULP_SLACK):
        return [f"{label}: ensemble MSE {ens_mse:.6g} exceeds mean member MSE {member_mse:.6g}"]
    return []


def check_normal_equations(member, X, y, label):
    """The readout solves min ||H beta - y||: H'(H beta - y) = 0 on its rows."""
    h = sigmoid_hidden(X, member.hidden.input_weights, member.hidden.biases)
    beta = member.output_weights[:, 0]
    grad = h.T @ (h @ beta - y)
    h_norm = float(np.linalg.norm(h))
    scale = h_norm * (h_norm * float(np.linalg.norm(beta)) + float(np.linalg.norm(y)))
    worst = float(np.max(np.abs(grad)))
    if not np.isfinite(worst) or worst > _ULP_SLACK * scale:
        return [f"{label}: readout violates the normal equations "
                f"(max |H'r| {worst:.3g}, allowed {_ULP_SLACK * scale:.3g})"]
    return []


def check_correlation(predictions, targets, c, label):
    """Recompute C_ij = mean_s e_is e_js by elementwise products."""
    err = np.asarray(predictions, dtype=float) - np.asarray(targets, dtype=float).ravel()
    expected = (err[:, None, :] * err[None, :, :]).mean(axis=2)
    d = np.sqrt(np.outer(np.diag(expected), np.diag(expected)))
    if not np.allclose(c, expected, rtol=0.0, atol=1e-10 * float(d.max()) + 1e-300):
        return [f"{label}: correlation matrix differs from the recomputed one "
                f"(max |diff| {float(np.max(np.abs(c - expected))):.3g})"]
    if not np.array_equal(c, c.T):
        return [f"{label}: correlation matrix is not exactly symmetric"]
    return []


def check_simplex(w, label):
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or np.any(w < 0.0) or abs(math.fsum(w) - 1.0) > 1e-12 * max(1, w.size):
        return [f"{label}: weights are off the simplex (min {w.min():.3g}, sum {math.fsum(w)!r})"]
    return []


def project_to_simplex(v):
    """Euclidean projection onto {w >= 0, sum w = 1} (Duchi et al. 2008)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u - css / np.arange(1, v.size + 1) > 0.0)[0][-1]
    return np.maximum(v - css[rho] / (rho + 1.0), 0.0)


def _support_solution(c, w):
    """Exact minimiser on the support of w, or None if it leaves the simplex."""
    support = w > 1e-12
    x, *_ = np.linalg.lstsq(c[np.ix_(support, support)], np.ones(int(support.sum())), rcond=None)
    if x.sum() <= 0.0 or np.any(x <= 0.0):
        return None
    out = np.zeros(w.size)
    out[support] = x / x.sum()
    return out


def simplex_qp(c):
    """Minimise w'Cw over the probability simplex for a PSD matrix C.

    Accelerated projected gradient with restarts; every _QP_POLISH_EVERY
    steps the exact minimiser on the current support is tried. Returns
    (w, value, lower_bound); lower_bound is value minus the Frank-Wolfe
    duality gap, a certified bound on the true minimum however far the
    iteration got.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]

    def f(w):
        return float(w @ c @ w)

    def fw_gap(w):
        g = 2.0 * (c @ w)
        return max(float(g @ w - g.min()), 0.0)

    w = np.full(n, 1.0 / n)
    if n == 1:
        return w, f(w), f(w)
    step = 1.0 / max(2.0 * float(np.linalg.eigvalsh(c)[-1]), 1e-300)
    y, t, value = w.copy(), 1.0, f(w)
    for k in range(1, _QP_MAX_ITER + 1):
        w_new = project_to_simplex(y - step * 2.0 * (c @ y))
        v_new = f(w_new)
        if v_new > value:  # restart momentum on an uphill step
            y, t = w.copy(), 1.0
            continue
        t_new = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = w_new + ((t - 1.0) / t_new) * (w_new - w)
        w, t, value = w_new, t_new, v_new
        if k % _QP_POLISH_EVERY == 0:
            polished = _support_solution(c, w)
            if polished is not None and f(polished) <= value:
                w, value = polished, f(polished)
                y, t = w.copy(), 1.0
            if fw_gap(w) <= _QP_REL_TOL * value:
                break
    return w, value, value - fw_gap(w)


def check_ga_weights(w, c, label):
    """w'Cw must lie between the QP optimum and the uniform weights' value.

    Returns (problems, gap) with gap = w'Cw / the QP optimum.
    """
    w = np.asarray(w, dtype=float)
    n = w.size
    value = float(w @ c @ w)
    uniform = float(np.full(n, 1.0 / n) @ c @ np.full(n, 1.0 / n))
    _, best, lower = simplex_qp(c)
    slack = _ULP_SLACK * uniform
    problems = []
    if value > uniform + slack:
        problems.append(f"{label}: GA w'Cw {value:.9g} is worse than uniform {uniform:.9g}")
    if value < lower - slack:
        problems.append(f"{label}: GA w'Cw {value:.9g} is below the simplex optimum {lower:.9g}")
    return problems, value / best


def check_selection(w, threshold, chosen, label):
    w = np.asarray(w, dtype=float)
    expected = [i for i in range(w.size) if w[i] >= threshold]
    if not expected:
        expected = [int(np.argmax(w))]
    if [int(i) for i in chosen] != expected:
        return [f"{label}: survivors {[int(i) for i in chosen]} != weights at or above "
                f"{threshold:.6g} {expected}"]
    return []


def check_members_in_pool(ensemble, pool, label):
    """Final members are models of the pool, and their origins are in it."""
    allowed = {id(m) for m in pool}
    problems = []
    if any(id(m) not in allowed for m in ensemble.members):
        problems.append(f"{label}: a final member is not a model of the pool")
    pool = getattr(ensemble, "pool_provenance", None)
    if pool and not set(ensemble.provenance) <= set(pool):
        problems.append(f"{label}: final members are not a subset of the pool")
    return problems


# ---------------------------------------------------------------- bench matrix

def read_table(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_records(path):
    """runrecords.csv as a list of dicts, parsed by the benchmark itself."""
    rows = read_table(path)
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


def table_cells(path):
    """The filled cells of a report table as {(dataset, noise, column): text}.

    A cell with no runs is empty in `bench` output and absent from a
    rebuild, which knows only the methods that have records.
    """
    rows = read_table(path)
    header = rows[0]
    return {(row[0], row[1], col): cell
            for row in rows[1:] for col, cell in zip(header[2:], row[2:]) if cell}


def check_matrix_report(out_dir, rebuilt_dir, methods, runs, label):
    """Records complete and finite; mse/std tables match a recomputation;
    the `report` rebuild reproduces every cell of them exactly.

    Returns (problems, records).
    """
    out_dir, rebuilt_dir = Path(out_dir), Path(rebuilt_dir)
    records = read_records(out_dir / "runrecords.csv")
    problems = []
    by_method = {}
    for r in records:
        value = float(r["test_mse"])
        if not math.isfinite(value) or value < 0.0:
            problems.append(f"{label}: record {r} has a bad test_mse")
        by_method.setdefault(r["method"], []).append(value)
    for method in methods:
        n = len(by_method.get(method, []))
        if n != runs:
            problems.append(f"{label}: {method} has {n} records, expected {runs}")
    for table, stat in (("mse.csv", statistics.fmean), ("std.csv", statistics.stdev)):
        cells = table_cells(out_dir / table)
        for (_, _, method), cell in cells.items():
            if len(by_method.get(method, [])) < 2:
                continue
            expected = stat(by_method[method])
            if not math.isclose(float(cell), expected, rel_tol=1e-12):
                problems.append(f"{label}: {table} {method} is {cell}, recomputed {expected!r}")
        if table_cells(rebuilt_dir / table) != cells:
            problems.append(f"{label}: report rebuild of {table} differs from the bench output")
    return problems, records
