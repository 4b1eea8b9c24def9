"""Single extreme learning machines.

An ELM is a one-hidden-layer feedforward network whose hidden parameters
are drawn at random and never tuned; only the linear readout is solved:
the minimum-norm least-squares solution beta = pinv(H) Y for the hidden
layer output matrix H. The readout solves the normal equations
H'H beta = H'Y when a Cholesky factorisation certifies that H'H is safely
positive definite (never looser than cond(H'H) < 1e8), and otherwise
makes one LAPACK gelsd solve, which gives the minimum-norm solution on
rank-deficient layers. H'H and H'Y are summed over row blocks of H, one
block alive at a time, and every node kind builds its block in one array,
so a fit on the normal-equations path holds one block of H plus O(L^2)
beyond the model, not the n x L of H. The gelsd fallback holds H whole,
and so does `train_elm(..., fitted=)` on a fit of several blocks: it
returns the model's outputs on its own training rows, from the H the
readout already holds when it has one. `train_elm(..., rows=)` trains on
selected rows of X without copying them: each block's rows are gathered
just before they are projected. Training is therefore a single
linear solve, not an iterative fit. Hidden nodes and readouts are
computed with numpy alone.
"""

from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Raised for empty or incompatible matrix shapes."""


def _sigmoid(layer, X):
    z = X @ layer.input_weights.T  # the one (n_samples, n_hidden) array, updated in place
    # -b - z rounds to exactly -(z + b), so the sign rides on the bias pass
    np.subtract(-layer.biases, z, out=z)
    # exp(-(z + b)) = inf below -709 gives the exact limit 0
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


def _squared_distances(X, centres):
    # one centre at a time: no (n, L, d) temporary, and no |x|^2 - 2x.c + |c|^2
    # cancellation, so a row on a centre gives exactly 0. An overflow gives inf,
    # which the readout reports as a non-finite hidden layer output. Each column
    # goes straight into the one (n_samples, n_hidden) array through one reused
    # (n_samples, n_inputs) difference buffer.
    sq = np.empty((X.shape[0], centres.shape[0]))
    diff = np.empty_like(X)
    with np.errstate(over="ignore"):
        for t, c in enumerate(centres):
            np.subtract(X, c, out=diff)
            np.square(diff, out=diff)
            np.sum(diff, axis=1, out=sq[:, t])
    return sq


def _gaussian(layer, X):
    # RBF node: rows of input_weights act as centres, biases as widths
    sq = _squared_distances(X, layer.input_weights)
    sq *= -(layer.biases**2)
    return np.exp(sq, out=sq)


def _multiquadric(layer, X):
    sq = _squared_distances(X, layer.input_weights)
    sq += layer.biases**2
    return np.sqrt(sq, out=sq)


ACTIVATIONS = {
    "sigmoid": _sigmoid,
    "gaussian": _gaussian,
    "multiquadric": _multiquadric,
}


def _canonical_activation(name):
    key = str(name).strip().lower().replace("-", "").replace("_", "")
    if key not in ACTIVATIONS:
        raise ValueError(
            f"unknown activation {name!r}; choose one of {sorted(ACTIVATIONS)}"
        )
    return key


@dataclass(frozen=True)
class HiddenLayer:
    """Random hidden layer: weights (n_hidden, n_inputs), biases (n_hidden,).

    Immutable after construction; safe to share across workers.
    """

    input_weights: np.ndarray
    biases: np.ndarray
    activation: str

    def __post_init__(self):
        w = np.asarray(self.input_weights, dtype=float)
        b = np.asarray(self.biases, dtype=float)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise DimensionError("input_weights must be a non-empty 2-D matrix")
        if b.shape != (w.shape[0],):
            raise DimensionError("biases must have one entry per hidden node")
        object.__setattr__(self, "input_weights", w)
        object.__setattr__(self, "biases", b)
        object.__setattr__(self, "activation", _canonical_activation(self.activation))

    @property
    def n_hidden(self):
        return self.input_weights.shape[0]

    @property
    def n_inputs(self):
        return self.input_weights.shape[1]


@dataclass
class ElmModel:
    """A trained ELM: random hidden layer plus solved readout.

    `output_weights` has shape (n_hidden, n_outputs). `squeeze_output`
    records whether the model was trained on 1-D targets, in which case
    predictions are returned 1-D as well. `hidden` is None while an
    ensemble fit holds the model as its readout alone; the layer is a pure
    function of the seed `train_elm` drew it from, and the model cannot
    predict until it is given back.
    """

    hidden: HiddenLayer | None
    output_weights: np.ndarray
    squeeze_output: bool = False

    def __post_init__(self):
        beta = np.asarray(self.output_weights, dtype=float)
        # without a layer there are no nodes to count the rows against
        if beta.ndim != 2 or (self.hidden is not None and beta.shape[0] != self.hidden.n_hidden):
            raise DimensionError(
                "output_weights must have one row per hidden node"
            )
        self.output_weights = beta

    def predict(self, X):
        return predict(self, X)


def make_hidden_layer(n_inputs, n_hidden, activation="sigmoid", seed=None):
    """Draw a random hidden layer.

    Weights and biases are sampled i.i.d. Uniform(-1, 1) from a stream
    seeded by `seed` (weights first, then biases), so identical arguments
    reproduce the layer bit for bit.

    Parameters
    ----------
    n_inputs : int
        Input dimension, >= 1.
    n_hidden : int
        Number of hidden nodes, >= 1.
    activation : str
        'sigmoid', 'gaussian' or 'multiquadric'; case, '-' and '_' are
        ignored.
    seed : int, SeedSequence, Generator or None
        Seed for the random stream. None draws fresh entropy.
    """
    if n_inputs < 1 or n_hidden < 1:
        raise DimensionError("n_inputs and n_hidden must both be >= 1")
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-1.0, 1.0, size=(n_hidden, n_inputs))
    biases = rng.uniform(-1.0, 1.0, size=n_hidden)
    return HiddenLayer(weights, biases, activation)


def hidden_output(layer, X):
    """Hidden layer output matrix: entry (i, t) is node t applied to row i.

    Shape (n_samples, n_hidden). Sigmoid nodes act on the affine
    projection w_t . x + b_t; gaussian and multiquadric nodes act
    on the distance between x and the node's weight row, with the bias
    reinterpreted as a width.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionError("X must be 2-D (n_samples, n_inputs)")
    if X.shape[1] != layer.n_inputs:
        raise DimensionError(
            f"X has {X.shape[1]} columns, layer expects {layer.n_inputs}"
        )
    return ACTIVATIONS[layer.activation](layer, X)


def pseudoinverse(a):
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below eps * max(n, m) * s_max are treated as zero,
    the standard numerically-stable truncation. The result satisfies the
    four Penrose conditions up to that truncation tolerance.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionError("pseudoinverse expects a 2-D matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("pseudoinverse: matrix contains non-finite entries")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0]))
    cutoff = np.finfo(float).eps * max(a.shape) * s[0]
    keep = s > cutoff
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return (vt.T * inv_s) @ u.T


# Solving the normal equations squares cond(H), so they are used only when a
# Cholesky factorisation of H'H - _GRAM_RCOND * trace(H'H) * I succeeds, i.e.
# lambda_min(H'H) > _GRAM_RCOND * trace(H'H) >= _GRAM_RCOND * lambda_max(H'H).
# The guard is never looser than cond(H'H) < 1e8, cond(H) < 1e4: the
# readout's relative error then stays below about cond(H)^2 * eps = 2e-8.
_GRAM_RCOND = 1e-8

# H'H and H'Y are summed over row blocks of H of at most _BLOCK entries
# (655 rows at 50 nodes), one block at a time, so a fit on the normal-equations
# path never holds its whole n x L hidden matrix.
_BLOCK = 2**15


def _gram_blocks(layer, X, Y2, rows):
    """H'H, H'Y2 and, if one block holds every row, H = hidden_output(layer, X[rows]).

    H'H and H'Y2 are summed over row blocks of H; a single block computes
    exactly h.T @ h and h.T @ Y2 and returns its h, else H comes back None.
    With `rows`, the training rows of X are the checked indices `rows`
    (Y2 holds those rows already): each block's rows are gathered with
    `np.take` into one reused buffer just before they are projected.
    """
    step = max(1, _BLOCK // layer.n_hidden)
    n = Y2.shape[0]
    buffer = None if rows is None else np.empty((min(step, n), X.shape[1]))

    def block(start):
        if rows is None:
            return X[start:start + step]
        part = rows[start:start + step]
        # the indices passed Y's gather, so "wrap" reads X[part] without take's
        # bounds check, which would copy through a buffer of its own
        return np.take(X, part, axis=0, out=buffer[:part.size], mode="wrap")

    h = hidden_output(layer, block(0))
    g, r = h.T @ h, h.T @ Y2[:step]
    if n <= step:
        return g, r, h
    for start in range(step, n, step):
        del h  # free the last block before the next one is projected
        h = hidden_output(layer, block(start))
        g += h.T @ h
        r += h.T @ Y2[start:start + step]
    return g, r, None


def _safely_positive_definite(g):
    """Whether lambda_min(g) > _GRAM_RCOND * trace(g), certified by one Cholesky
    factorisation of the shifted Gram matrix; it costs a fraction of eigvalsh."""
    shifted = g.copy()
    shifted.flat[::g.shape[0] + 1] -= _GRAM_RCOND * np.trace(g)
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _readout(layer, X, Y2, rows):
    """Minimum-norm least-squares solution of H(X[rows]) @ beta = Y2, and H if held.

    `rows` of None trains on every row of X. With at least as many rows as
    nodes and a Gram matrix H'H that passes the Cholesky guard, the
    solution is unique and comes from the normal equations, accumulated
    over row blocks of H; they cost a fraction of an SVD. Every other H
    (fewer rows than columns, rank-deficient, ill-conditioned or
    non-finite) goes whole to gelsd with `pseudoinverse()`'s cutoff; when
    the blocks were several, the rows are projected once more for it.
    Returns (beta, H), where H is the whole hidden output if the readout
    formed it (one block, or gelsd) and None otherwise.
    """
    h = None
    if Y2.shape[0] >= layer.n_hidden:
        g, r, h = _gram_blocks(layer, X, Y2, rows)
        # a finite g implies a finite H (its diagonal sums the squares of H's
        # columns), so only the gelsd path needs the n x L check
        if np.all(np.isfinite(g)) and _safely_positive_definite(g):
            return np.linalg.solve(g, r), h
    if h is None:
        h = _project(layer, X, rows)
    if not np.all(np.isfinite(h)):
        raise ValueError("train_elm: hidden layer output contains non-finite entries")
    return np.linalg.lstsq(h, Y2, rcond=np.finfo(float).eps * max(h.shape))[0], h


def _project(layer, X, rows):
    """hidden_output(layer, X[rows]) in one piece; the rows are gathered whole."""
    return hidden_output(layer, X if rows is None else np.take(X, rows, axis=0))


def _finite(a, rows):
    """Whether every entry in the rows `rows` of `a` (all rows for None) is finite."""
    ok = np.isfinite(a)
    if rows is not None and not ok.all():  # only a non-finite entry needs the row test
        ok = ok.reshape(a.shape[0], -1).all(axis=1)[rows]
    return ok.all()


def train_elm(X, Y, n_hidden, activation="sigmoid", seed=None, *, rows=None, fitted=None):
    """Train an ELM: draw the hidden layer, then solve the readout.

    The readout is the minimum-norm least-squares solution of H beta = Y,
    which `pseudoinverse(H) @ Y` also gives, computed without forming
    pinv(H). When H has at least as many rows as columns and a Cholesky
    factorisation of H'H - 1e-8 trace(H'H) I succeeds, so that
    lambda_min(H'H) > 1e-8 trace(H'H) >= 1e-8 lambda_max(H'H) (never looser
    than cond(H) below about 1e4), it is the guarded normal-equations solve
    (H'H) beta = H'Y. H'H and H'Y are then summed over row blocks of at
    most `_BLOCK` entries of H (655 rows at 50 nodes), and each block is
    freed before the next is projected, so the working memory is one
    block of H plus O(L^2) (the distance nodes add one block of X rows,
    and `rows` one more); a fit whose rows fit in one block forms exactly
    H'H and H'Y of the whole H. Otherwise the readout is one LAPACK gelsd
    solve on the whole H with `pseudoinverse()`'s cutoff (singular values
    below eps * max(n, m) * s_max count as zero); a refused layer of more
    than one block pays one more projection of the rows for it, and holds
    H whole (and, with `rows`, its rows of X).
    No iteration is involved.
    Deterministic given (X, Y, n_hidden, activation, seed, rows).

    Parameters
    ----------
    X : array (n_samples, n_inputs)
    Y : array (n_samples,) or (n_samples, n_outputs)
    n_hidden : int
        Hidden node count.
    activation : str
    seed : int, SeedSequence, Generator or None
    rows : 1-D array of int, optional
        Train on these rows of X and Y, in this order, bit for bit as
        `train_elm(X[rows], Y[rows], ...)` but without copying X: each
        row block is gathered just before it is projected (the gelsd
        fallback gathers the rows whole). Y's rows are gathered at once.
        Indices follow numpy's: -1 is the last row, and one out of range
        raises IndexError. None trains on every row.
    fitted : array of Y[rows]'s shape, optional
        Receives the model's outputs on the training rows, bit for bit
        `predict(model, X[rows])`: computed from the H the readout already
        holds (one block, or a gelsd layer), otherwise from one more whole
        projection of the rows, which then holds H whole.

    Returns
    -------
    ElmModel
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2:
        raise DimensionError("X must be 2-D (n_samples, n_inputs)")
    squeeze = Y.ndim == 1
    Y2 = Y[:, None] if squeeze else Y
    if Y2.ndim != 2 or X.shape[0] != Y2.shape[0]:
        raise DimensionError("X and Y must have the same number of rows")
    if rows is not None:
        rows = np.asarray(rows)
        if rows.ndim != 1 or rows.dtype.kind not in "iu":
            raise DimensionError("rows must be a 1-D array of integer row indices")
        Y2 = np.take(Y2, rows, axis=0)  # an index out of range raises IndexError here
    shape = Y2.shape[:1] if squeeze else Y2.shape
    if fitted is not None and (not isinstance(fitted, np.ndarray) or fitted.shape != shape):
        raise DimensionError(f"fitted must be an array of Y's shape {shape}")
    if Y2.shape[0] < 1:
        raise DimensionError("training set is empty")
    if not _finite(X, rows):
        raise ValueError("train_elm: X contains non-finite entries")
    if not np.all(np.isfinite(Y2)):
        raise ValueError("train_elm: Y contains non-finite entries")
    layer = make_hidden_layer(X.shape[1], n_hidden, activation, seed)
    beta, h = _readout(layer, X, Y2, rows)
    if fitted is not None:
        # the product predict() forms; filled block by block it would differ in the last bits
        out = (_project(layer, X, rows) if h is None else h) @ beta
        fitted[...] = out[:, 0] if squeeze else out
    return ElmModel(
        hidden=layer,
        output_weights=beta,
        squeeze_output=squeeze,
    )


def predict(model, X):
    """Model output H(X) @ beta; 1-D if the model was trained on 1-D targets."""
    if model.hidden is None:
        raise ValueError("predict: the model has no hidden layer")
    out = hidden_output(model.hidden, np.asarray(X, dtype=float)) @ model.output_weights
    return out[:, 0] if model.squeeze_output else out
