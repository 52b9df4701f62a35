"""Dense-tensor kernel with reverse-mode differentiation.

Covers exactly the operator set the encoder and the contrastive losses
need: affine maps, ReLU, batch normalization, products with a constant
``SparseMatrix`` (every graph gather, segment sum, adjacency sum and signed
row selection), a query-by-key cosine matrix and a row-wise masked
log-softmax pick, plus SGD with momentum and global-norm clipping.

``affine_batchnorm`` is one ``x @ w + b (+ residual) -> batchnorm (-> relu)``
site. In train mode it is one tape node with its own backward: the node
keeps a single buffer, the normalized pre-activation, and its backward is
the batch-norm gradient (Ioffe & Szegedy, arXiv:1502.03167) carried on to
every term, the bias and the residual. Eval mode is forward only: batch
norm is an affine map of its running statistics, so it is folded into the
weights (scaled by s = gamma / sqrt(running_var + eps)), the bias
((b - running_mean) * s + beta) and the residual (scaled by s) (after
Jacob et al., arXiv:1712.05877), and the output is a constant with no
parents. With ``relu=True`` the ReLU is applied in place to the site's own
output, and the train backward masks the incoming gradient with
``out > 0``, so no pre-activation copy is kept for the mask.

Arrays are float32 by default; building the parameters in float64 switches
the whole tape to float64 for gradient checking. Every op output that can
overflow passes a finite check. Gradients are accumulated without copies.
A tape is walked once: ``backward`` drops each node's backward closure, and
with it the buffers the closure saved, as soon as it has run (after Chen et
al., arXiv:1604.06174, on what a step's saved activations cost), so a
second ``backward`` through the same graph raises ``TapeReleased``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.sparse import _sparsetools


class ShapeMismatch(ValueError):
    pass


class DegenerateBatch(ValueError):
    pass


class NumericsError(FloatingPointError):
    """A public operation produced NaN/Inf."""


class TapeReleased(RuntimeError):
    """``backward`` reached a node whose backward already ran and was freed."""


def _checked(data: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(data).all():
        raise NumericsError(f"non-finite values produced by {op}")
    return data


class Tensor:
    """A node of the reverse-mode tape wrapping a numpy array."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False,
                 parents: tuple = (), backward=None):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, grad: np.ndarray) -> None:
        # Arrays are kept as handed over, never copied: an op may pass the
        # same array to several parents, so a later gradient adds out of place.
        if self.grad is not None:
            grad = self.grad + grad
        self.grad = grad if grad.dtype == self.data.dtype else grad.astype(self.data.dtype)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"


def parameter(data) -> Tensor:
    return Tensor(np.asarray(data), requires_grad=True)


def constant(data, dtype=None) -> Tensor:
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    return Tensor(arr)


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss; accumulates into .grad.

    Each non-leaf node's backward closure is dropped as soon as the sweep
    has passed it, which frees the buffers it saved while the sweep goes
    on. Leaves and intermediate nodes keep their ``.grad``. A graph can
    therefore be differentiated once: a second call raises
    ``TapeReleased`` before any gradient is added.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ShapeMismatch(f"backward needs a scalar loss, got shape {loss.shape}")
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._parents and node._backward is None:
            raise TapeReleased("this graph was already differentiated and its saved "
                               "buffers freed; build it again to differentiate it")
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    loss._accumulate(np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None:
            if node.grad is not None:
                node._backward(node.grad)
            node._backward = None


# --- elementwise / affine ops ---

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch(f"add {a.shape} vs {b.shape}")
    out = Tensor(_checked(a.data + b.data, "add"), parents=(a, b))

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)
    out._backward = _bw if out.requires_grad else None
    return out


def scale(x: Tensor, factor: float) -> Tensor:
    out = Tensor(_checked(x.data * factor, "scale"), parents=(x,))

    def _bw(g):
        x._accumulate(g * factor)
    out._backward = _bw if out.requires_grad else None
    return out


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y = x @ w (+ b broadcast over rows)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeMismatch(f"linear {x.shape} @ {w.shape}")
    y = x.data @ w.data
    parents = (x, w)
    if b is not None:
        if b.shape != (w.shape[1],):
            raise ShapeMismatch(f"bias {b.shape} vs output width {w.shape[1]}")
        y += b.data
        parents = (x, w, b)
    out = Tensor(_checked(y, "linear"), parents=parents)

    def _bw(g):
        if x.requires_grad:
            x._accumulate(g @ w.data.T)
        if w.requires_grad:
            w._accumulate(x.data.T @ g)
        if b is not None and b.requires_grad:
            b._accumulate(g.sum(axis=0))
    out._backward = _bw if out.requires_grad else None
    return out


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0), parents=(x,))

    def _bw(g):
        x._accumulate(g * (x.data > 0))
    out._backward = _bw if out.requires_grad else None
    return out


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(_checked(np.asarray(x.data.sum()), "sum_all"), parents=(x,))

    def _bw(g):
        x._accumulate(np.full(x.shape, g, dtype=x.dtype))
    out._backward = _bw if out.requires_grad else None
    return out


# --- graph ops ---

class SparseMatrix:
    """Constant sparse matrix [n_rows, n_cols] from (row, col, value) entries.

    Duplicate entries add up, so one matrix expresses a segment sum
    (mat[seg[j], j] = 1), a row gather (mat[j, idx[j]] = 1), a graph's
    adjacency (one entry per directed edge) or a signed sum of selected
    rows. CSR copies are built per dtype on first use; the transpose only
    when a backward pass needs it. A copy is built from the entries sorted
    by (row, column), duplicates summed in their input order, which is the
    canonical CSR scipy's COO constructor makes, without its round trip.
    """

    __slots__ = ("rows", "cols", "values", "shape", "_csr")

    def __init__(self, rows, cols, shape: tuple[int, int], values=None):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.ones(rows.shape) if values is None else np.asarray(values)
        if rows.ndim != 1 or rows.shape != cols.shape or values.shape != rows.shape:
            raise ShapeMismatch("sparse entries need equal-length row, column and "
                                "value vectors")
        if rows.size and (rows.min() < 0 or rows.max() >= shape[0]
                          or cols.min() < 0 or cols.max() >= shape[1]):
            raise ShapeMismatch(f"sparse entry out of range for shape {shape}")
        self.rows, self.cols, self.values = rows, cols, values
        self.shape = (int(shape[0]), int(shape[1]))
        self._csr: dict = {}

    def csr(self, dtype, transpose: bool = False) -> "Csr":
        key = (np.dtype(dtype).name, transpose)
        if key not in self._csr:
            rows, cols = (self.cols, self.rows) if transpose else (self.rows, self.cols)
            shape = self.shape[::-1] if transpose else self.shape
            order = np.lexsort((cols, rows))
            rows, cols = rows[order], cols[order]
            first = np.ones(rows.shape, dtype=bool)
            first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            starts = np.flatnonzero(first)
            values = np.add.reduceat(self.values[order].astype(dtype), starts)
            indptr = np.zeros(shape[0] + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows[starts], minlength=shape[0]), out=indptr[1:])
            self._csr[key] = Csr(indptr, cols[starts], values, shape)
        return self._csr[key]


class Csr(NamedTuple):
    """The CSR arrays of a ``SparseMatrix`` in one dtype. A product with a
    dense matrix runs scipy's sparsetools kernel, the one a ``csr_matrix``
    product runs, without building a ``csr_matrix`` and its checks."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((self.shape[0], x.shape[1]), dtype=np.result_type(self.data, x))
        _sparsetools.csr_matvecs(self.shape[0], self.shape[1], x.shape[1], self.indptr,
                                 self.indices, self.data, np.ravel(x), out.ravel())
        return out


def sparse_matmul(mat: SparseMatrix, x: Tensor) -> Tensor:
    """mat @ x for a constant sparse matrix; backward mat.T @ g."""
    if x.data.ndim != 2 or x.shape[0] != mat.shape[1]:
        raise ShapeMismatch(f"sparse_matmul {mat.shape} @ {x.shape}")
    out = Tensor(_checked(mat.csr(x.dtype) @ x.data, "sparse_matmul"), parents=(x,))

    def _bw(g):
        x._accumulate(mat.csr(x.dtype, transpose=True) @ g)
    out._backward = _bw if out.requires_grad else None
    return out


# --- batch normalization ---

@dataclass
class BatchNormState:
    """Trainable affine plus running statistics for one BN layer."""

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    epsilon: float = 1e-5

    @classmethod
    def create(cls, width: int, dtype=np.float32,
               momentum: float = 0.1, epsilon: float = 1e-5) -> "BatchNormState":
        return cls(parameter(np.ones(width, dtype=dtype)),
                   parameter(np.zeros(width, dtype=dtype)),
                   np.zeros(width, dtype=dtype), np.ones(width, dtype=dtype),
                   momentum, epsilon)

    @property
    def width(self) -> int:
        return self.gamma.data.shape[0]


def affine_batchnorm(terms, b: Tensor, state: BatchNormState, mode: str,
                     residual: Tensor | None = None, relu: bool = False) -> Tensor:
    """Batch norm of ``sum(x @ w for x, w in terms) + b (+ residual)``,
    followed by a ReLU when ``relu`` is set.

    Train mode is one tape node with its own backward to every x, w, b,
    gamma, beta and the residual: it normalizes each feature column with
    biased batch statistics, folds them into the running estimates (unbiased
    variance) and keeps one n x width buffer, the normalized pre-activation,
    for its backward. Eval mode is forward only and returns a constant: it
    folds the running statistics into the affine map, with
    s = gamma / sqrt(running_var + eps) computing
    ``sum(x @ (w * s)) + (b - running_mean) * s + beta (+ residual * s)``,
    so no normalized copy is made. The ReLU clamps the node's own output in
    place, and the train backward masks the incoming gradient with
    ``out > 0``, which is the batch-norm output's mask; values and gradients
    are bitwise those of ``relu`` composed after the site.
    """
    x0, w0 = terms[0]
    for x, w in terms:
        if x.data.ndim != 2 or w.data.ndim != 2 or x.shape != (x0.shape[0], w.shape[0]) \
                or w.shape[1] != state.width:
            raise ShapeMismatch(f"affine_batchnorm {x.shape} @ {w.shape} "
                                f"into width {state.width}")
    if b.shape != (state.width,) or (residual is not None
                                     and residual.shape != (x0.shape[0], state.width)):
        raise ShapeMismatch("affine_batchnorm bias or residual shape")
    if mode == "train":
        return _train_site(terms, b, state, residual, relu)
    if mode == "eval":
        return _eval_site(terms, b, state, residual, relu)
    raise ValueError(f"unknown batchnorm mode {mode!r}")


def _site_output(y: np.ndarray, parents, relu: bool) -> Tensor:
    """The checked site output, clamped in place when ``relu`` is set."""
    _checked(y, "affine_batchnorm")
    if relu:
        np.maximum(y, 0, out=y)
    return Tensor(y, parents=parents)


def _train_site(terms, b, state, residual, relu) -> Tensor:
    x0, w0 = terms[0]
    n = x0.shape[0]
    if n < 2:
        raise DegenerateBatch(f"train-mode batchnorm needs n >= 2, got {n}")
    parents = tuple(t for pair in terms for t in pair) + (b, state.gamma, state.beta)
    if residual is not None:
        parents += (residual,)
    gamma, beta = state.gamma, state.beta
    # One buffer holds the pre-activation, then its centred and finally its
    # normalized form x_hat. Every sum runs in the order of the same site
    # built from linear, add and batch-norm nodes (the reference in the
    # tests), so outputs and gradients are bitwise that composition's.
    x_hat = x0.data @ w0.data
    x_hat += b.data
    for x, w in terms[1:]:
        x_hat += x.data @ w.data
    if residual is not None:
        x_hat += residual.data
    mean = x_hat.mean(axis=0)
    x_hat -= mean
    var = (x_hat * x_hat).sum(axis=0) / n
    inv_std = 1.0 / np.sqrt(var + state.epsilon)
    x_hat *= inv_std
    m = state.momentum
    state.running_mean += m * (mean - state.running_mean)
    state.running_var += m * (var * (n / (n - 1)) - state.running_var)
    out = _site_output(x_hat * gamma.data + beta.data, parents, relu)
    y = out.data

    def _bw(g):
        # gp is the gradient of the pre-activation; g is never written.
        if relu:
            g = g * (y > 0)
        prod = g * x_hat
        gx_sum = prod.sum(axis=0)
        g_sum = g.sum(axis=0)
        if gamma.requires_grad:
            gamma._accumulate(gx_sum)
        if beta.requires_grad:
            beta._accumulate(g_sum)
        gp = g - g_sum / n
        np.multiply(x_hat, gx_sum / n, out=prod)
        gp -= prod
        gp *= gamma.data * inv_std
        for x, w in terms:
            if x.requires_grad:
                x._accumulate(gp @ w.data.T)
            if w.requires_grad:
                w._accumulate(x.data.T @ gp)
        if b.requires_grad:
            b._accumulate(gp.sum(axis=0))
        if residual is not None and residual.requires_grad:
            residual._accumulate(gp)
    out._backward = _bw if out.requires_grad else None
    return out


def _eval_site(terms, b, state, residual, relu) -> Tensor:
    x0, w0 = terms[0]
    s = state.gamma.data * (1.0 / np.sqrt(state.running_var + state.epsilon))
    y = x0.data @ (w0.data * s)
    scratch = None  # one buffer for every further term and the scaled residual
    for x, w in terms[1:]:
        scratch = np.matmul(x.data, w.data * s, out=scratch)
        y += scratch
    y += (b.data - state.running_mean) * s + state.beta.data
    if residual is not None:
        scratch = np.multiply(residual.data, s, out=scratch)
        y += scratch
    del scratch  # freed before the output's finite check
    return _site_output(y, (), relu)


# --- similarity and classification ops ---

# Norms below this count as zero: cosines are 0, normalization skips the row.
ZERO_NORM_EPS = 1e-12


def cosine_matrix(queries: Tensor, *keys: Tensor) -> Tensor:
    """Cosine of every query row against every key row: [Q, K].

    The key tensors are stacked row-wise in the order given; a 1-D key is
    one row. A query or key whose norm is below ZERO_NORM_EPS scores 0
    against everything and receives no gradient.
    """
    if queries.data.ndim != 2 or not keys:
        raise ShapeMismatch(f"cosine_matrix needs a query matrix and keys, "
                            f"got {queries.shape}")
    width = queries.shape[1]
    for key in keys:
        if key.data.ndim not in (1, 2) or key.shape[-1] != width:
            raise ShapeMismatch(f"cosine_matrix key {key.shape} vs width {width}")

    def unit_rows(rows):
        norms = np.linalg.norm(rows, axis=1)
        live = norms >= ZERO_NORM_EPS
        safe = np.where(live, norms, 1.0)[:, None]
        return rows / safe * live[:, None], safe, live[:, None]

    q_unit, q_norm, q_live = unit_rows(queries.data)
    k_unit, k_norm, k_live = unit_rows(
        np.concatenate([key.data.reshape(-1, width) for key in keys]))
    out = Tensor(_checked(q_unit @ k_unit.T, "cosine_matrix"),
                 parents=(queries,) + keys)

    def _bw(g):
        # d(x/|x|) projects out the x direction and divides by |x|.
        if queries.requires_grad:
            dq = g @ k_unit
            dq -= (dq * q_unit).sum(axis=1, keepdims=True) * q_unit
            queries._accumulate(dq / q_norm * q_live)
        if not any(key.requires_grad for key in keys):
            return
        dk = g.T @ q_unit
        dk -= (dk * k_unit).sum(axis=1, keepdims=True) * k_unit
        dk = dk / k_norm * k_live
        offset = 0
        for key in keys:
            rows = 1 if key.data.ndim == 1 else key.shape[0]
            if key.requires_grad:
                key._accumulate(dk[offset:offset + rows].reshape(key.shape))
            offset += rows
    out._backward = _bw if out.requires_grad else None
    return out


def log_softmax_pick(scores: Tensor, targets, live=None) -> Tensor:
    """Per row i: scores[i, targets[i]] - logsumexp of the live scores of row i.

    ``live`` is a boolean [Q, K] mask of the columns that take part in each
    row's softmax (all of them when omitted); masked columns get no
    gradient. Max-subtracted for stability. Returns a vector [Q].
    """
    if scores.data.ndim != 2 or scores.shape[1] < 1:
        raise ShapeMismatch(f"log_softmax_pick needs a non-empty matrix, "
                            f"got {scores.shape}")
    n_rows, n_cols = scores.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (n_rows,) or (n_rows and (targets.min() < 0
                                                  or targets.max() >= n_cols)):
        raise ShapeMismatch(f"targets {targets} out of range for {scores.shape}")
    rows = np.arange(n_rows)
    if live is None:
        live = np.ones(scores.shape, dtype=bool)
    live = np.asarray(live, dtype=bool)
    if live.shape != scores.shape or not live[rows, targets].all():
        raise ShapeMismatch("every row's target column must be live")
    masked = np.where(live, scores.data, -np.inf)
    high = masked.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(masked - high).sum(axis=1, keepdims=True)) + high
    values = scores.data[rows, targets] - log_z[:, 0]
    out = Tensor(_checked(values.astype(scores.dtype), "log_softmax_pick"),
                 parents=(scores,))

    def _bw(g):
        grad = -np.exp(masked - log_z) * g[:, None]
        grad[rows, targets] += g
        scores._accumulate(grad)
    out._backward = _bw if out.requires_grad else None
    return out


# --- optimizer ---

@dataclass
class SgdConfig:
    """SGD with momentum, decoupled per-parameter velocity buffers."""

    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-5
    clip_norm: float = 5.0
    velocities: dict = field(default_factory=dict)

    def __post_init__(self):
        # Zero freezes parameters; useful in tests.
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")


def global_norm(grads: dict) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.square(g, dtype=np.float64).sum())
    return float(np.sqrt(total))


def clip_global_norm(grads: dict, clip_norm: float) -> float:
    """Scale the gradients of ``grads`` (replacing its entries) so their
    global L2 norm is at most clip_norm; returns the norm before clipping."""
    norm = global_norm(grads)
    if norm > clip_norm:
        factor = clip_norm / norm
        for name in grads:
            grads[name] = grads[name] * np.asarray(factor, dtype=grads[name].dtype)
    return norm


def sgd_step(params, grads: dict, cfg: SgdConfig) -> None:
    """v <- momentum*v + grad (+ wd*param for decayed params); param -= lr*v.

    ``params`` provides named_parameters() yielding (name, Tensor, decay).
    Parameters without a gradient entry are treated as zero-gradient.
    """
    for name, tensor, decay in params.named_parameters():
        grad = grads.get(name)
        if grad is None:
            grad = np.zeros_like(tensor.data)
        if decay and cfg.weight_decay:
            grad = grad + cfg.weight_decay * tensor.data
        velocity = cfg.velocities.get(name)
        if velocity is None:
            velocity = np.zeros_like(tensor.data)
        velocity = cfg.momentum * velocity + grad
        cfg.velocities[name] = velocity
        tensor.data -= np.asarray(cfg.learning_rate, dtype=tensor.data.dtype) * velocity
