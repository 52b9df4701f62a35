"""Message-passing molecule encoder with separate query/key heads.

A shared L-layer trunk computes per-atom embeddings from atom and bond
features; three residual heads (``f`` product-query, ``g`` reactant-query,
``h`` key) sum-pool atoms into molecule vectors. Reaction-type bias rows
``u``/``v`` and the trainable halt key live alongside the network weights.

Message passing is written as sparse-dense products (Kipf & Welling,
arXiv:1609.02907): a layer's neighbour sum over edges into atom i is one
adjacency product ``A @ h`` with ``A[i, j]`` the number of edges j -> i, and
the per-edge bond term ``sum_e x_bond[e] @ w_bond`` is reassociated as
``B @ w_bond`` with ``B`` the bond features summed per atom once per batch.
Pooling is one product with the atom-to-molecule matrix, taken of each
head's residual sum in one ``ad.sparse_matmul_sum`` node. Each
linear(+residual) -> batch-norm (-> ReLU) site is one ``ad.affine_batchnorm``
node, which applies the ReLU to its own output. Two site inputs are rebuilt
rather than stored, in both modes: a layer's neighbour sum ``A @ h``
(``ad.SparseProductInput``) and a head's ``relu(nodes)``
(``ad.ReluInput``); each takes under a millisecond to rebuild at the
paper's size, so a train step keeps no copy of either, and no residual sum
(after Chen et al., arXiv:1604.06174). An eval-mode forward is
never differentiated: ``embed_nodes`` and ``head_embeddings`` each run it on
the store's detached view, so it folds batch norm into the weights and
records no tape whichever of them is called. ``embed_matrix`` embeds a
pool in chunks, dealt over the usable CPUs by ``workers.fan_out``.

Every forward takes one ``PackedGraphs`` batch; a molecule is a batch of
one (``featurize``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import workers
from .autodiff import BatchNormState, SparseMatrix, Tensor
# ``pack`` is looked up here by the benchmark's tracer (perfbench/layers.py),
# so it stays importable from this module.
from .chem import (D_ATOM, D_BOND, Molecule, PackedGraphs, featurize,  # noqa: F401
                   featurize_packed, pack)

HEADS = ("f", "g", "h")


@dataclass(frozen=True)
class ModelDims:
    d_atom: int = D_ATOM
    d_bond: int = D_BOND
    d: int = 256
    n_layers: int = 5
    n_types: int = 10


class ParamStore:
    """All trainable tensors plus batch-norm running statistics."""

    def __init__(self, dims: ModelDims, dtype=np.float32):
        self.dims = dims
        self.dtype = np.dtype(dtype)
        self.step = 0
        self.tensors: dict[str, Tensor] = {}
        self.bn_states: dict[str, BatchNormState] = {}
        self._no_decay: set[str] = set()
        self._detached: ParamStore | None = None

    # --- construction helpers ---

    def _add_weight(self, name: str, shape: tuple[int, ...], rng) -> None:
        fan_in = shape[0]
        bound = 1.0 / np.sqrt(fan_in)
        data = rng.uniform(-bound, bound, size=shape).astype(self.dtype)
        self.tensors[name] = ad.parameter(data)

    def _add_zeros(self, name: str, shape: tuple[int, ...], decay: bool = False) -> None:
        self.tensors[name] = ad.parameter(np.zeros(shape, dtype=self.dtype))
        if not decay:
            self._no_decay.add(name)

    def _add_bn(self, name: str) -> None:
        self.bn_states[name] = BatchNormState.create(self.dims.d, dtype=self.dtype)

    # --- parameter access ---

    def named_parameters(self):
        """Yields (name, tensor, decay) in a fixed deterministic order."""
        for name, tensor in self.tensors.items():
            yield name, tensor, name not in self._no_decay
        for bn_name, state in self.bn_states.items():
            yield f"{bn_name}.gamma", state.gamma, False
            yield f"{bn_name}.beta", state.beta, False

    def zero_grad(self) -> None:
        for _, tensor, _ in self.named_parameters():
            tensor.grad = None

    def gradients(self) -> dict[str, np.ndarray]:
        """Gradient map after a backward pass; unreached parameters are zero."""
        out = {}
        for name, tensor, _ in self.named_parameters():
            out[name] = tensor.grad if tensor.grad is not None \
                else np.zeros_like(tensor.data)
        return out

    def num_parameters(self) -> int:
        return sum(t.data.size for _, t, _ in self.named_parameters())

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Every persistent array: parameters plus BN running statistics."""
        out = {name: t.data for name, t, _ in self.named_parameters()}
        for bn_name, state in self.bn_states.items():
            out[f"{bn_name}.running_mean"] = state.running_mean
            out[f"{bn_name}.running_var"] = state.running_var
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        expected = self.state_arrays()
        unknown = set(arrays) - set(expected)
        if unknown:
            raise KeyError(f"unknown tensors in state: {sorted(unknown)[:4]}")
        missing = set(expected) - set(arrays)
        if missing:
            raise KeyError(f"missing tensors in state: {sorted(missing)[:4]}")
        for name, value in arrays.items():
            target = expected[name]
            if target.shape != value.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{target.shape} vs {value.shape}")
            target[...] = value

    def detached(self) -> "ParamStore":
        """The same weights as constants, for forwards that are never
        differentiated: no op records a reverse-mode tape, so intermediates
        are freed as soon as the next op has consumed them. Arrays are shared,
        batch-norm running statistics included, and every update writes them
        in place, so the view is built once per store and its outputs are
        bitwise those of the trainable store."""
        if self._detached is None:
            view = ParamStore(self.dims, self.dtype)
            view.tensors = {name: ad.constant(t.data) for name, t in self.tensors.items()}
            view.bn_states = {name: replace(state, gamma=ad.constant(state.gamma.data),
                                            beta=ad.constant(state.beta.data))
                              for name, state in self.bn_states.items()}
            view._detached = view
            self._detached = view
        return self._detached

    def copy(self) -> "ParamStore":
        clone = ParamStore(self.dims, self.dtype)
        _populate(clone, np.random.default_rng(0))
        clone.load_state_arrays({k: v.copy() for k, v in self.state_arrays().items()})
        clone.step = self.step
        return clone


def _populate(params: ParamStore, rng) -> None:
    dims = params.dims
    d, d_atom, d_bond = dims.d, dims.d_atom, dims.d_bond
    params._add_weight("trunk.w0_atom", (d_atom, d), rng)
    params._add_zeros("trunk.b0", (d,))
    params._add_weight("trunk.w0_bond", (d_bond, d), rng)
    params._add_bn("trunk.bn0")
    for layer in range(1, dims.n_layers + 1):
        prefix = f"trunk.l{layer}"
        params._add_weight(f"{prefix}.w1", (d, d), rng)
        params._add_zeros(f"{prefix}.b1", (d,))
        params._add_weight(f"{prefix}.w_bond", (d_bond, d), rng)
        params._add_bn(f"{prefix}.bn1")
        params._add_weight(f"{prefix}.w2", (d, d), rng)
        params._add_zeros(f"{prefix}.b2", (d,))
        params._add_bn(f"{prefix}.bn2")
    params._add_weight("trunk.w_last", (d, d), rng)
    params._add_zeros("trunk.b_last", (d,))
    for head in HEADS:
        prefix = f"head.{head}"
        params._add_weight(f"{prefix}.w1", (d, d), rng)
        params._add_zeros(f"{prefix}.b1", (d,))
        params._add_bn(f"{prefix}.bn1")
        params._add_weight(f"{prefix}.w2", (d, d), rng)
        params._add_zeros(f"{prefix}.b2", (d,))
        params._add_bn(f"{prefix}.bn2")
    params._add_zeros("type.u", (dims.n_types, d))
    params._add_zeros("type.v", (dims.n_types, d))
    params._add_weight("halt_key", (d,), rng)


def init_params(seed: int, dims: ModelDims | None = None, dtype=np.float32) -> ParamStore:
    """Uniform fan-in initialized weights; biases and type biases zero."""
    dims = dims or ModelDims()
    params = ParamStore(dims, dtype)
    _populate(params, np.random.default_rng(seed))
    return params


# --- forward passes ---

class _GraphOps:
    """Sparse structure of one packed graph batch, shared by every layer:
    the adjacency (one entry per directed edge, ``(A @ h)[i]`` sums h over
    the sources of edges into atom i) and the atom-to-molecule pooling."""

    def __init__(self, packed: PackedGraphs):
        n = packed.atom_features.shape[0]
        self.adjacency = SparseMatrix(packed.edge_dst, packed.edge_src, (n, n))
        self.bond_sum = SparseMatrix(packed.edge_dst, np.arange(packed.edge_dst.shape[0]),
                                     (n, packed.edge_dst.shape[0]))
        self.pool = SparseMatrix(packed.mol_ids, np.arange(n), (packed.n_mols, n))


def embed_nodes(feats: PackedGraphs, params: ParamStore, mode: str = "eval",
                ops: _GraphOps | None = None) -> Tensor:
    """Per-atom embedding matrix [n_atoms, d] for a graph batch. Eval mode
    runs on the store's detached view and records no tape."""
    if feats.atom_features.shape[1] != params.dims.d_atom:
        raise ad.ShapeMismatch("atom feature width does not match parameters")
    if feats.bond_features.shape[1] != params.dims.d_bond:
        raise ad.ShapeMismatch("bond feature width does not match parameters")
    if mode == "eval":
        params = params.detached()
    ops = ops or _GraphOps(feats)
    t, bn = params.tensors, params.bn_states
    x_atom = ad.constant(feats.atom_features, params.dtype)
    # Bond features summed per destination atom once: each layer's bond term
    # is then bonds @ w_bond instead of a per-edge product summed per atom.
    bonds = ad.sparse_matmul(ops.bond_sum, ad.constant(feats.bond_features, params.dtype))

    h = ad.affine_batchnorm([(x_atom, t["trunk.w0_atom"]), (bonds, t["trunk.w0_bond"])],
                            t["trunk.b0"], bn["trunk.bn0"], mode, relu=True)
    for layer in range(1, params.dims.n_layers + 1):
        prefix = f"trunk.l{layer}"
        stage1 = ad.affine_batchnorm([(ad.SparseProductInput(ops.adjacency, h),
                                       t[f"{prefix}.w1"]),
                                      (bonds, t[f"{prefix}.w_bond"])],
                                     t[f"{prefix}.b1"], bn[f"{prefix}.bn1"], mode, relu=True)
        h = ad.affine_batchnorm([(stage1, t[f"{prefix}.w2"])], t[f"{prefix}.b2"],
                                bn[f"{prefix}.bn2"], mode, residual=h, relu=True)
    return ad.linear(h, t["trunk.w_last"], t["trunk.b_last"])


def head_embeddings(node_matrix: Tensor, head: str, params: ParamStore,
                    mode: str, pool: SparseMatrix) -> Tensor:
    """Sum-pooled residual head on top of trunk node embeddings: [m, d].
    Eval mode runs on the store's detached view and records no tape."""
    if head not in HEADS:
        raise ValueError(f"unknown head {head!r}")
    if mode == "eval":
        params = params.detached()
    t, bn = params.tensors, params.bn_states
    prefix = f"head.{head}"
    z = ad.affine_batchnorm([(ad.ReluInput(node_matrix), t[f"{prefix}.w1"])],
                            t[f"{prefix}.b1"], bn[f"{prefix}.bn1"], mode, relu=True)
    z = ad.affine_batchnorm([(z, t[f"{prefix}.w2"])], t[f"{prefix}.b2"],
                            bn[f"{prefix}.bn2"], mode)
    return ad.sparse_matmul_sum(pool, node_matrix, z)


def embed_graphs(feats: PackedGraphs, params: ParamStore, mode: str = "eval",
                 heads=HEADS) -> dict[str, Tensor]:
    """Molecule embeddings for each requested head, rows in input order."""
    ops = _GraphOps(feats)
    nodes = embed_nodes(feats, params, mode, ops)
    return {head: head_embeddings(nodes, head, params, mode, ops.pool)
            for head in heads}


def embed_molecule(mol: Molecule, head: str, params: ParamStore) -> np.ndarray:
    """Eval-mode embedding vector [d] of one molecule under one head (type
    bias is applied later, at query assembly)."""
    return embed_graphs(featurize(mol), params, heads=(head,))[head].data[0]


# Pool embedding runs in chunks of consecutive molecules whose atom rows
# make a [rows, d] float32 block of at most this many bytes (512 rows at
# d=256), whichever thread embeds them. A chunk's arrays then stay in cache
# from one layer to the next. Each thread allocates from its own malloc
# arena, but glibc's mmap and trim thresholds are process-wide: once the
# process has freed one pool-sized array, the trim threshold rises to twice
# the largest mapped block freed, so the few blocks a chunk holds at once
# stay below it and later chunks reuse freed heap pages in every arena
# instead of faulting in new ones.
CHUNK_BYTES = 512 << 10
# Rows per block of ``normalize_rows``: about this many bytes of float32.
_NORM_BYTES = 1 << 20


def _chunks(mols: list[Molecule], max_rows: int):
    """(start, stop) of consecutive runs of molecules: each run holds at most
    ``max_rows`` atoms, unless one molecule alone has more."""
    start, rows = 0, 0
    for stop, mol in enumerate(mols):
        if stop > start and rows + len(mol.atoms) > max_rows:
            yield start, stop
            start, rows = stop, 0
        rows += len(mol.atoms)
    if start < len(mols):
        yield start, len(mols)


def embed_matrix(mols: list[Molecule], params: ParamStore, heads) -> tuple[np.ndarray, ...]:
    """Raw (unnormalized) eval-mode embeddings under each of ``heads``, one
    float32 array per head with one row per molecule. The trunk runs once per
    chunk whatever the number of heads; a chunk holds at most
    ``CHUNK_BYTES`` of atom rows (a larger molecule gets a chunk alone).
    ``workers.fan_out`` deals the chunks over the usable CPUs, and each
    share writes its chunks' rows into the output arrays; chunks are
    disjoint, so no lock is needed. Every step of an eval-mode forward is
    row by row, so a row does not depend on the cut or on the thread that
    runs it, except through the BLAS kernel a block's size selects (numpy
    hands a one-row product to a matrix-vector kernel); each head's rows are
    bitwise those of a pass for that head alone."""
    out = tuple(np.zeros((len(mols), params.dims.d), dtype=np.float32) for _ in heads)
    view = params.detached()  # built once, before any share reads it
    max_rows = max(1, CHUNK_BYTES // (4 * params.dims.d))

    def embed(chunks):
        for start, stop in chunks:
            rows = embed_graphs(featurize_packed(mols[start:stop]), view, "eval", heads=heads)
            for head, array in zip(heads, out):
                array[start:stop] = rows[head].data

    workers.fan_out(embed, _chunks(mols, max_rows))
    return out


def normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Scale each row of a float32 matrix to unit norm in place and return
    it; rows of norm below ``ZERO_NORM_EPS`` (zero rows) are left as they are.
    Rows go in blocks of about ``_NORM_BYTES``, so the temporaries stay that
    small however many rows there are; a row's norm does not depend on the
    block it is in."""
    step = max(1, _NORM_BYTES // (4 * max(1, rows.shape[1])))
    for lo in range(0, rows.shape[0], step):
        block = rows[lo:lo + step]
        norms = np.linalg.norm(block, axis=1)
        block /= np.where(norms < ad.ZERO_NORM_EPS, 1.0, norms).astype(np.float32)[:, None]
    return rows


def embed_pool(mols: list[Molecule], params: ParamStore) -> np.ndarray:
    """Unit-normalized key (h-head) embeddings for a candidate pool, rows in
    input order; zero-norm rows are left as zero. Eval mode only."""
    return normalize_rows(embed_matrix(mols, params, ("h",))[0])


def type_row(params: ParamStore, rxn_type: int | None) -> int | None:
    """Row of a 1-based reaction type in the u (backward) and v (forward)
    bias tables, or None for an untyped reaction."""
    if rxn_type is None:
        return None
    n_types = params.dims.n_types
    if not 1 <= rxn_type <= n_types:
        raise ValueError(f"reaction type {rxn_type} outside [1, {n_types}]")
    return rxn_type - 1


def type_bias(params: ParamStore, table: str, rxn_type: int | None) -> np.ndarray | None:
    """Row of the u (backward) or v (forward) bias table for a 1-based type."""
    if table not in ("u", "v"):
        raise ValueError(f"bias table must be 'u' or 'v', got {table!r}")
    row = type_row(params, rxn_type)
    return None if row is None else params.tensors[f"type.{table}"].data[row]
