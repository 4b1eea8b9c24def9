"""Single extreme learning machines.

An ELM is a one-hidden-layer feedforward network whose hidden parameters
are drawn at random and never tuned; only the linear readout is solved:
the minimum-norm least-squares solution beta = pinv(H) Y for the hidden
layer output matrix H. The readout solves the normal equations
H'H beta = H'Y when H is safely full column rank, and otherwise makes one
LAPACK gelsd solve, which gives the minimum-norm solution on
rank-deficient layers. H'H and H'Y are summed over row blocks of H, so a
fit's working memory beyond the model is O(block * L + L^2), not the
n x L of H; only the gelsd fallback projects H whole. Training is
therefore a single linear solve, not an iterative fit. Hidden nodes and
readouts are computed with numpy alone.
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


def _hardlim(layer, X):
    z = X @ layer.input_weights.T
    z += layer.biases
    return (z >= 0.0).astype(float)


def _squared_distances(X, centres):
    # one centre at a time: no (n, L, d) temporary, and no |x|^2 - 2x.c + |c|^2
    # cancellation, so a row on a centre gives exactly 0. An overflow gives inf,
    # which the readout reports as a non-finite hidden layer output.
    with np.errstate(over="ignore"):
        return np.stack([((X - c) ** 2).sum(axis=1) for c in centres], axis=1)


def _gaussian(layer, X):
    # RBF node: rows of input_weights act as centres, biases as widths
    sq = _squared_distances(X, layer.input_weights)
    return np.exp(-(layer.biases**2) * sq)


def _multiquadric(layer, X):
    sq = _squared_distances(X, layer.input_weights)
    return np.sqrt(sq + layer.biases**2)


ACTIVATIONS = {
    "sigmoid": _sigmoid,
    "hardlim": _hardlim,
    "gaussian": _gaussian,
    "multiquadric": _multiquadric,
}


def _canonical_activation(name):
    key = str(name).strip().lower().replace("-", "").replace("_", "")
    aliases = {"hardlimit": "hardlim", "logistic": "sigmoid"}
    key = aliases.get(key, key)
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


@dataclass(frozen=True)
class ElmModel:
    """A trained ELM: frozen random hidden layer plus solved readout.

    `output_weights` has shape (n_hidden, n_outputs). `squeeze_output`
    records whether the model was trained on 1-D targets, in which case
    predictions are returned 1-D as well.
    """

    hidden: HiddenLayer
    output_weights: np.ndarray
    squeeze_output: bool = False

    def __post_init__(self):
        beta = np.asarray(self.output_weights, dtype=float)
        if beta.ndim != 2 or beta.shape[0] != self.hidden.n_hidden:
            raise DimensionError(
                "output_weights must have one row per hidden node"
            )
        object.__setattr__(self, "output_weights", beta)

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
        'sigmoid', 'hardlim', 'gaussian' or 'multiquadric'.
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

    Shape (n_samples, n_hidden). Sigmoid and hardlim nodes act on the
    affine projection w_t . x + b_t; gaussian and multiquadric nodes act
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


# Solving the normal equations squares cond(H), so they are used only when
# lambda_min(H'H) > _GRAM_RCOND * lambda_max(H'H), i.e. cond(H) < 1e4: the
# readout's relative error then stays below about cond(H)^2 * eps = 2e-8.
_GRAM_RCOND = 1e-8

# H'H and H'Y are summed over row blocks of H of at most _BLOCK entries
# (655 rows at 50 nodes), so a fit never holds its whole n x L hidden matrix.
_BLOCK = 2**15


def _gram_blocks(layer, X, Y2):
    """H'H, H'Y2 and, if one block holds every row, H = hidden_output(layer, X).

    H'H and H'Y2 are summed over row blocks of H; a single block computes
    exactly h.T @ h and h.T @ Y2 and returns its h, else H comes back None.
    """
    rows = max(1, _BLOCK // layer.n_hidden)
    h = hidden_output(layer, X[:rows])
    g, r = h.T @ h, h.T @ Y2[:rows]
    if X.shape[0] <= rows:
        return g, r, h
    for start in range(rows, X.shape[0], rows):
        h = hidden_output(layer, X[start:start + rows])
        g += h.T @ h
        r += h.T @ Y2[start:start + rows]
    return g, r, None


def _readout(layer, X, Y2):
    """Minimum-norm least-squares solution of H(X) @ beta = Y2.

    With at least as many rows as nodes and a well-conditioned Gram matrix
    H'H, the solution is unique and comes from the normal equations,
    accumulated over row blocks of H; they cost a fraction of an SVD. Every
    other H (fewer rows than columns, rank-deficient, ill-conditioned or
    non-finite) goes whole to gelsd with `pseudoinverse()`'s cutoff; when
    the blocks were several, X is projected once more for it.
    """
    h = None
    if X.shape[0] >= layer.n_hidden:
        g, r, h = _gram_blocks(layer, X, Y2)
        # a finite g implies a finite H (its diagonal sums the squares of H's
        # columns), so only the gelsd path needs the n x L check
        if np.all(np.isfinite(g)):
            lam = np.linalg.eigvalsh(g)
            if lam[0] > _GRAM_RCOND * lam[-1]:
                return np.linalg.solve(g, r)
    if h is None:
        h = hidden_output(layer, X)
    if not np.all(np.isfinite(h)):
        raise ValueError("train_elm: hidden layer output contains non-finite entries")
    return np.linalg.lstsq(h, Y2, rcond=np.finfo(float).eps * max(h.shape))[0]


def train_elm(X, Y, n_hidden, activation="sigmoid", seed=None):
    """Train an ELM: draw the hidden layer, then solve the readout.

    The readout is the minimum-norm least-squares solution of H beta = Y,
    which `pseudoinverse(H) @ Y` also gives, computed without forming
    pinv(H). When H has at least as many rows as columns and is safely
    full column rank (lambda_min(H'H) > 1e-8 lambda_max(H'H), i.e.
    cond(H) below about 1e4), it is the guarded normal-equations solve
    (H'H) beta = H'Y. H'H and H'Y are then summed over row blocks of at
    most `_BLOCK` entries of H (655 rows at 50 nodes), so the working
    memory is O(block * L + L^2); a fit whose rows fit in one block forms
    exactly H'H and H'Y of the whole H. Otherwise the readout is one
    LAPACK gelsd solve on the whole H with `pseudoinverse()`'s cutoff
    (singular values below eps * max(n, m) * s_max count as zero); a
    refused layer of more than one block pays one more projection of X
    for it, and holds H whole. No iteration is involved.
    Deterministic given (X, Y, n_hidden, activation, seed).

    Parameters
    ----------
    X : array (n_samples, n_inputs)
    Y : array (n_samples,) or (n_samples, n_outputs)
    n_hidden : int
        Hidden node count.
    activation : str
    seed : int, SeedSequence, Generator or None

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
    if X.shape[0] < 1:
        raise DimensionError("training set is empty")
    if not np.all(np.isfinite(X)):
        raise ValueError("train_elm: X contains non-finite entries")
    if not np.all(np.isfinite(Y2)):
        raise ValueError("train_elm: Y contains non-finite entries")
    layer = make_hidden_layer(X.shape[1], n_hidden, activation, seed)
    beta = _readout(layer, X, Y2)
    return ElmModel(
        hidden=layer,
        output_weights=beta,
        squeeze_output=squeeze,
    )


def predict(model, X):
    """Model output H(X) @ beta; 1-D if the model was trained on 1-D targets."""
    out = hidden_output(model.hidden, np.asarray(X, dtype=float)) @ model.output_weights
    return out[:, 0] if model.squeeze_output else out
