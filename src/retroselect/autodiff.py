"""Dense-tensor kernel with reverse-mode differentiation.

Covers exactly the operator set the encoder and the contrastive losses
need: affine maps, ReLU, batch normalization, segment sums / row gathers
through a cached sparse ``Scatter``, a query-by-key cosine matrix and a
row-wise masked log-softmax pick, plus SGD with momentum and global-norm
clipping. Arrays are float32 by default; building the parameters in
float64 switches the whole tape to float64 for gradient checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


class ShapeMismatch(ValueError):
    pass


class DegenerateBatch(ValueError):
    pass


class NumericsError(FloatingPointError):
    """A public operation produced NaN/Inf."""


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

    def detach(self) -> np.ndarray:
        return self.data

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype)
        else:
            self.grad += grad

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
    """Reverse-mode sweep from a scalar loss; accumulates into .grad."""
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
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    loss._accumulate(np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


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


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch(f"sub {a.shape} vs {b.shape}")
    out = Tensor(_checked(a.data - b.data, "sub"), parents=(a, b))

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-g)
    out._backward = _bw if out.requires_grad else None
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch(f"mul {a.shape} vs {b.shape}")
    out = Tensor(_checked(a.data * b.data, "mul"), parents=(a, b))

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)
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
        y = y + b.data
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

class Scatter:
    """Sparse 0/1 matrix mapping input rows to segments.

    ``mat`` is [n_segments, n_rows] with mat[seg[j], j] = 1, so
    ``mat @ x`` is a segment sum and ``mat_t @ y`` gathers segment rows
    back to input rows. Built once per graph and reused by every layer.
    """

    __slots__ = ("segment_ids", "n_segments", "_mats")

    def __init__(self, segment_ids: np.ndarray, n_segments: int):
        segment_ids = np.asarray(segment_ids, dtype=np.int64)
        if segment_ids.size and (segment_ids.min() < 0 or segment_ids.max() >= n_segments):
            raise ShapeMismatch("segment id out of range")
        self.segment_ids = segment_ids
        self.n_segments = n_segments
        self._mats: dict = {}

    def mats(self, dtype):
        key = np.dtype(dtype).name
        if key not in self._mats:
            n_rows = self.segment_ids.shape[0]
            ones = np.ones(n_rows, dtype=dtype)
            mat = sp.csr_matrix(
                (ones, (self.segment_ids, np.arange(n_rows))),
                shape=(self.n_segments, n_rows))
            self._mats[key] = (mat, mat.T.tocsr())
        return self._mats[key]


def segment_sum(x: Tensor, segments: Scatter) -> Tensor:
    """Row j of the output is the sum of input rows with segment id j.

    The Scatter's cached sparse matrices are reused across calls (the
    encoder builds one per graph batch and shares it across layers).
    """
    if x.data.ndim != 2 or x.shape[0] != segments.segment_ids.shape[0]:
        raise ShapeMismatch(f"segment_sum rows {x.shape} vs ids "
                            f"{segments.segment_ids.shape}")
    mat, mat_t = segments.mats(x.dtype)
    out = Tensor(_checked(mat @ x.data, "segment_sum"), parents=(x,))

    def _bw(g):
        x._accumulate(mat_t @ g)
    out._backward = _bw if out.requires_grad else None
    return out


def gather_rows(x: Tensor, index: Scatter) -> Tensor:
    """out[j] = x[index.segment_ids[j]]; backward scatter-adds."""
    if x.data.ndim != 2 or index.n_segments != x.shape[0]:
        raise ShapeMismatch("gather index space does not match rows")
    mat, mat_t = index.mats(x.dtype)
    out = Tensor(mat_t @ x.data, parents=(x,))

    def _bw(g):
        x._accumulate(mat @ g)
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


def batchnorm(x: Tensor, state: BatchNormState, mode: str = "train",
              update_running: bool = True) -> Tensor:
    """Normalize rows of x per feature column.

    Train mode uses biased batch statistics and folds them into the running
    estimates (unbiased variance); eval mode is a per-row affine map using
    the running statistics only.
    """
    if x.data.ndim != 2 or x.shape[1] != state.width:
        raise ShapeMismatch(f"batchnorm width {x.shape} vs {state.width}")
    n = x.shape[0]
    gamma, beta = state.gamma, state.beta
    if mode == "train":
        if n < 2:
            raise DegenerateBatch(f"train-mode batchnorm needs n >= 2, got {n}")
        mean = x.data.mean(axis=0)
        var = x.data.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + state.epsilon)
        x_hat = (x.data - mean) * inv_std
        if update_running:
            m = state.momentum
            state.running_mean += m * (mean - state.running_mean)
            unbiased = var * (n / (n - 1))
            state.running_var += m * (unbiased - state.running_var)
    elif mode == "eval":
        inv_std = 1.0 / np.sqrt(state.running_var + state.epsilon)
        x_hat = (x.data - state.running_mean) * inv_std
    else:
        raise ValueError(f"unknown batchnorm mode {mode!r}")
    out = Tensor(_checked(x_hat * gamma.data + beta.data, "batchnorm"),
                 parents=(x, gamma, beta))

    def _bw(g):
        if gamma.requires_grad:
            gamma._accumulate((g * x_hat).sum(axis=0))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=0))
        if x.requires_grad:
            if mode == "train":
                g_mean = g.mean(axis=0)
                gx_mean = (g * x_hat).mean(axis=0)
                x._accumulate(gamma.data * inv_std * (g - g_mean - x_hat * gx_mean))
            else:
                x._accumulate(g * gamma.data * inv_std)
    out._backward = _bw if out.requires_grad else None
    return out


# --- similarity and classification ops ---

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


def clip_global_norm(grads: dict, clip_norm: float) -> dict:
    """Scale all gradients so their global L2 norm is at most clip_norm."""
    norm = global_norm(grads)
    if norm > clip_norm:
        factor = clip_norm / norm
        for name in grads:
            grads[name] = grads[name] * np.asarray(factor, dtype=grads[name].dtype)
    return grads


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
