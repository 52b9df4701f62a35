"""Message-passing molecule encoder with separate query/key heads.

A shared L-layer trunk computes per-atom embeddings from atom and bond
features; three residual heads (``f`` product-query, ``g`` reactant-query,
``h`` key) sum-pool atoms into molecule vectors. Reaction-type bias rows
``u``/``v`` and the trainable halt key live alongside the network weights.
Every state array is one entry of one table, ``_layout``: a ``ParamStore``
is built from one array per entry, whether initialised, copied or loaded.

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

from dataclasses import dataclass

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
    """Model size; the feature widths are the constants D_ATOM and D_BOND."""
    d: int = 256
    n_layers: int = 5
    n_types: int = 10


_BN_INIT = {"gamma": "ones", "beta": "zeros", "running_mean": "zeros", "running_var": "ones"}


def _layout(dims: ModelDims):
    """Yields (name, shape, initial value) of every state array, lazily, in
    ``ParamStore.state_arrays`` order: network tensors, each batch-norm
    site's gamma and beta, then each site's running mean and variance. The
    initial value is "uniform" (fan-in; exactly the weight-decayed tensors),
    "zeros" or "ones"."""
    d, sites = dims.d, ["trunk.bn0"]

    def weight(name, rows=d):
        return name, (rows, d), "uniform"

    def bias(name):
        return name, (d,), "zeros"

    yield from (weight("trunk.w0_atom", D_ATOM), bias("trunk.b0"),
                weight("trunk.w0_bond", D_BOND))
    for prefix in (f"trunk.l{layer}" for layer in range(1, dims.n_layers + 1)):
        yield from (weight(f"{prefix}.w1"), bias(f"{prefix}.b1"),
                    weight(f"{prefix}.w_bond", D_BOND), weight(f"{prefix}.w2"),
                    bias(f"{prefix}.b2"))
        sites += [f"{prefix}.bn1", f"{prefix}.bn2"]
    yield from (weight("trunk.w_last"), bias("trunk.b_last"))
    for prefix in (f"head.{head}" for head in HEADS):
        yield from (weight(f"{prefix}.w1"), bias(f"{prefix}.b1"),
                    weight(f"{prefix}.w2"), bias(f"{prefix}.b2"))
        sites += [f"{prefix}.bn1", f"{prefix}.bn2"]
    yield from (("type.u", (dims.n_types, d), "zeros"),
                ("type.v", (dims.n_types, d), "zeros"), ("halt_key", (d,), "uniform"))
    yield from ((f"{site}.{field}", (d,), _BN_INIT[field]) for fields in
                (("gamma", "beta"), ("running_mean", "running_var"))
                for site in sites for field in fields)


class ParamStore:
    """All trainable tensors plus batch-norm running statistics, on one array
    per ``_layout`` entry of ``dims``, kept as given (not copied). A missing
    or unknown name raises ``KeyError`` and a wrong shape ``ValueError``; the
    layout is read no further than the first name that ``arrays`` lacks."""

    def __init__(self, dims: ModelDims, arrays: dict[str, np.ndarray], step: int = 0):
        layout = []
        for name, shape, init in _layout(dims):
            if name not in arrays:
                raise KeyError(f"missing tensor {name} in state")
            if arrays[name].shape != shape:
                raise ValueError(f"shape mismatch for {name}: expected {shape}, "
                                 f"got {arrays[name].shape}")
            layout.append((name, init))
        unknown = arrays.keys() - dict(layout).keys()
        if unknown:
            raise KeyError(f"unknown tensors in state: {sorted(unknown)[:4]}")
        self.dims, self.dtype, self.step = dims, arrays[layout[0][0]].dtype, step
        self._decayed = {name for name, init in layout if init == "uniform"}
        self.tensors = {name: ad.parameter(arrays[name]) for name, _ in layout
                        if name.rpartition(".")[2] not in _BN_INIT}
        sites = [name[:-len(".gamma")] for name, _ in layout if name.endswith(".gamma")]
        self.bn_states = {site: BatchNormState(
            ad.parameter(arrays[f"{site}.gamma"]), ad.parameter(arrays[f"{site}.beta"]),
            arrays[f"{site}.running_mean"], arrays[f"{site}.running_var"]) for site in sites}
        self._detached: ParamStore | None = None

    # --- parameter access ---

    def named_parameters(self):
        """Yields (name, tensor, decay) in a fixed deterministic order."""
        for name, tensor in self.tensors.items():
            yield name, tensor, name in self._decayed
        for bn_name, state in self.bn_states.items():
            yield f"{bn_name}.gamma", state.gamma, False
            yield f"{bn_name}.beta", state.beta, False

    def zero_grad(self) -> None:
        for _, tensor, _ in self.named_parameters():
            tensor.grad = None

    def gradients(self) -> dict[str, np.ndarray]:
        """Gradient map after a backward pass; unreached parameters are zero."""
        return {name: tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
                for name, tensor, _ in self.named_parameters()}

    def num_parameters(self) -> int:
        return sum(t.data.size for _, t, _ in self.named_parameters())

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Every persistent array, in ``_layout`` order: parameters, BN statistics."""
        out = {name: t.data for name, t, _ in self.named_parameters()}
        for bn_name, state in self.bn_states.items():
            out[f"{bn_name}.running_mean"] = state.running_mean
            out[f"{bn_name}.running_var"] = state.running_var
        return out

    def detached(self) -> "ParamStore":
        """The same weights as constants, for forwards that are never
        differentiated: no op records a reverse-mode tape, so intermediates
        are freed as soon as the next op has consumed them. Arrays are shared,
        batch-norm running statistics included, and every update writes them
        in place, so the view is built once per store and its outputs are
        bitwise those of the trainable store."""
        if self._detached is None:
            view = ParamStore(self.dims, self.state_arrays())
            for _, tensor, _ in view.named_parameters():
                tensor.requires_grad = False
            self._detached = view._detached = view
        return self._detached

    def copy(self) -> "ParamStore":
        arrays = {name: array.copy() for name, array in self.state_arrays().items()}
        return ParamStore(self.dims, arrays, self.step)


def init_params(seed: int, dims: ModelDims | None = None, dtype=np.float32) -> ParamStore:
    """Fan-in uniform weights, drawn in ``_layout`` order from one generator
    seeded with ``seed``; every other array zeros or ones."""
    dims = dims or ModelDims()
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape, init in _layout(dims):
        if init == "uniform":
            bound = 1.0 / np.sqrt(shape[0])
            arrays[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
        else:
            arrays[name] = (np.zeros if init == "zeros" else np.ones)(shape, dtype=dtype)
    return ParamStore(dims, arrays)


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
