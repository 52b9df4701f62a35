import dataclasses
import random
import threading
import time
import tracemalloc

import numpy as np
import pytest

from retroselect import autodiff as ad
from retroselect import encoder, workers
from retroselect.chem import (D_ATOM, D_BOND, PackedGraphs, disjoint_union, featurize, pack,
                              parse_smiles, write_smiles)
from retroselect.encoder import (HEADS, ModelDims, ParamStore, embed_graphs, embed_molecule,
                                 embed_nodes, embed_pool, init_params, type_bias)

from helpers import (CORPUS_SMILES, edge_loop_embeddings, mul, random_permutation,
                     randomize_batchnorm)


def rel_max(a, b):
    scale = max(1e-12, float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.abs(a - b).max()) / scale


def test_init_deterministic():
    dims = ModelDims(d=8, n_layers=2, n_types=3)
    a = init_params(42, dims)
    b = init_params(42, dims)
    for (name, ta, _), (_, tb, _) in zip(a.named_parameters(), b.named_parameters()):
        assert np.array_equal(ta.data, tb.data), name
    c = init_params(43, dims)
    assert not np.array_equal(a.tensors["trunk.w0_atom"].data,
                              c.tensors["trunk.w0_atom"].data)


def test_type_biases_start_zero():
    params = init_params(0, ModelDims(d=8, n_layers=1, n_types=5))
    assert np.all(params.tensors["type.u"].data == 0)
    assert np.all(params.tensors["type.v"].data == 0)
    assert np.all(type_bias(params, "u", 3) == 0)
    with pytest.raises(ValueError):
        type_bias(params, "u", 6)


def test_parameter_count_matches_hand_formula():
    d, L, T = 8, 2, 3
    params = init_params(0, ModelDims(d, L, T))
    trunk = (D_ATOM * d + d) + (D_BOND * d)            # input projections
    trunk += L * (2 * (d * d + d) + D_BOND * d)        # per-layer W1, W2, Wbond
    trunk += d * d + d                                 # last linear
    heads = 3 * 2 * (d * d + d)                        # W1/W2 per head
    bn = (1 + 2 * L + 3 * 2) * 2 * d                   # gamma+beta per BN
    extras = 2 * T * d + d                             # u, v, halt key
    assert params.num_parameters() == trunk + heads + bn + extras


def test_param_store_rejects_unknown_missing_and_misshaped_arrays():
    dims = ModelDims(d=4, n_layers=1, n_types=1)
    arrays = init_params(0, dims).state_arrays()
    with pytest.raises(KeyError, match="unknown"):
        ParamStore(dims, {**arrays, "mystery": np.zeros(3, np.float32)})
    with pytest.raises(KeyError, match="missing"):
        ParamStore(dims, {k: v for k, v in arrays.items() if k != "head.g.bn2.running_var"})
    with pytest.raises(ValueError, match="type.u"):
        ParamStore(dims, {**arrays, "type.u": np.zeros((2, 4), np.float32)})
    # Dims that ask for more layers than the arrays hold stop at the first
    # missing name, however many layers they ask for.
    with pytest.raises(KeyError, match="trunk.l2.w1"):
        ParamStore(ModelDims(d=4, n_layers=2**32 - 1, n_types=1), arrays)
    store = ParamStore(dims, arrays, step=5)
    assert store.step == 5
    assert all(store.state_arrays()[name] is array for name, array in arrays.items())


@pytest.mark.parametrize("mode", ["eval", "train"])
@pytest.mark.parametrize("field", ["atom_features", "bond_features"])
def test_batch_one_column_short_is_shape_mismatch(field, mode):
    params = init_params(0, ModelDims(d=8, n_layers=1, n_types=1))
    feats = featurize(parse_smiles("CC(=O)O"))
    short = dataclasses.replace(feats, **{field: getattr(feats, field)[:, :-1]})
    with pytest.raises(ad.ShapeMismatch):
        embed_nodes(short, params, mode)


def test_single_atom_rows_do_not_mix():
    # Batch packing must not leak neighbors across molecules; rows agree to
    # rounding (BLAS kernels differ across batch shapes, so not bitwise).
    params = init_params(3, ModelDims(d=8, n_layers=2, n_types=1))
    alone = embed_nodes(featurize(parse_smiles("O")), params, "eval").data
    packed = pack([featurize(parse_smiles("O")), featurize(parse_smiles("CC"))])
    together = embed_nodes(packed, params, "eval").data
    assert rel_max(alone[0], together[0]) < 1e-6


def test_embedding_deterministic(tiny_params):
    mol = parse_smiles("CC(=O)Oc1ccccc1")
    a = embed_molecule(mol, "h", tiny_params)
    b = embed_molecule(mol, "h", tiny_params)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("head", HEADS)
def test_permutation_invariance(tiny_params, head):
    rng = random.Random(9)
    for smiles in CORPUS_SMILES[:10]:
        mol = parse_smiles(smiles)
        base = embed_molecule(mol, head, tiny_params)
        order = random_permutation(len(mol.atoms), rng)
        rewritten = parse_smiles(write_smiles(mol, order))
        other = embed_molecule(rewritten, head, tiny_params)
        assert rel_max(base, other) < 1e-5, smiles


def test_node_rows_permute_with_atoms(tiny_params):
    mol = parse_smiles("CCOC")
    rng = random.Random(4)
    order = random_permutation(len(mol.atoms), rng)
    base = embed_nodes(featurize(mol), tiny_params, "eval").data
    # write_smiles visits atoms by priority; recover the emitted atom order.
    rewritten = parse_smiles(write_smiles(mol, order))
    permuted = embed_nodes(featurize(rewritten), tiny_params, "eval").data
    assert sorted(map(tuple, np.round(base, 4).tolist())) == \
        sorted(map(tuple, np.round(permuted, 4).tolist()))


def test_component_additivity(tiny_params):
    a = parse_smiles("CCO")
    b = parse_smiles("c1ccncc1")
    union = disjoint_union(a, b)
    for head in HEADS:
        ea = embed_molecule(a, head, tiny_params)
        eb = embed_molecule(b, head, tiny_params)
        eu = embed_molecule(union, head, tiny_params)
        assert rel_max(eu, ea + eb) < 1e-5


def test_doubling_captures_size(tiny_params):
    mol = parse_smiles("CC(N)=O")
    doubled = disjoint_union(mol, mol)
    single = embed_molecule(mol, "f", tiny_params)
    both = embed_molecule(doubled, "f", tiny_params)
    assert rel_max(both, 2.0 * single) < 1e-5


def test_embed_pool_matches_loop(tiny_params, monkeypatch):
    mols = [parse_smiles(s) for s in CORPUS_SMILES[:9]]
    monkeypatch.setattr(encoder, "CHUNK_BYTES", 4 * tiny_params.dims.d * 12)
    assert len(list(encoder._chunks(mols, 12))) > 2
    keys = embed_pool(mols, tiny_params)
    assert keys.shape == (9, tiny_params.dims.d)
    for i, mol in enumerate(mols):
        vec = embed_molecule(mol, "h", tiny_params)
        vec = vec / np.linalg.norm(vec)
        assert np.abs(keys[i] - vec).max() < 1e-6
    norms = np.linalg.norm(keys, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-6


def stepwise_forward(packed, params, heads=HEADS):
    """The eval forward run step by step: ``embed_nodes``, then
    ``head_embeddings`` for each head, each called on ``params``."""
    ops = encoder._GraphOps(packed)
    nodes = embed_nodes(packed, params, "eval", ops)
    return {"nodes": nodes} | {
        head: encoder.head_embeddings(nodes, head, params, "eval", ops.pool)
        for head in heads}


def trainable_forward(packed, params, heads=HEADS):
    """The eval forward run step by step on the trainable tensors, with the
    store standing in for its own detached view: its batch-norm sites give
    constants, but the trunk's last linear map and the heads' sums and
    pooling record tape nodes."""
    view, params._detached = params._detached, params
    try:
        return stepwise_forward(packed, params, heads)
    finally:
        params._detached = view


def test_detached_forward_is_bitwise_and_tape_free(tiny_params):
    packed = pack([featurize(parse_smiles(s)) for s in CORPUS_SMILES])
    frozen = tiny_params.detached()
    assert tiny_params.detached() is frozen and frozen.detached() is frozen
    taped = trainable_forward(packed, tiny_params)
    stepwise = stepwise_forward(packed, tiny_params)
    free = embed_graphs(packed, tiny_params, "eval")
    on_view = embed_graphs(packed, frozen, "eval")
    # Called directly on the trainable store, embed_nodes and
    # head_embeddings record no tape either.
    for name, out in stepwise.items():
        assert taped[name].requires_grad
        assert not out.requires_grad and out._parents == ()
        assert np.array_equal(taped[name].data, out.data)
    for head in HEADS:
        assert not free[head].requires_grad and free[head]._parents == ()
        assert np.array_equal(taped[head].data, free[head].data)
        assert np.array_equal(on_view[head].data, free[head].data)
    # Views share the arrays, so an in-place update is seen by the view.
    for name, tensor in tiny_params.tensors.items():
        assert frozen.tensors[name].data is tensor.data
    for name, state in tiny_params.bn_states.items():
        view = frozen.bn_states[name]
        assert view.running_mean is state.running_mean
        assert view.gamma.data is state.gamma.data and not view.gamma.requires_grad


def test_detached_view_follows_in_place_updates():
    params = init_params(6, ModelDims(d=8, n_layers=2, n_types=1))
    packed = pack([featurize(parse_smiles(s)) for s in CORPUS_SMILES[:6]])
    before = embed_graphs(packed, params, "eval", heads=("h",))["h"].data
    # A train-mode forward moves the running statistics, an SGD step the
    # weights; both write the shared arrays in place.
    out = embed_graphs(packed, params, "train", heads=("h",))["h"]
    params.zero_grad()
    ad.backward(ad.sum_all(mul(out, out)))
    ad.sgd_step(params, params.gradients(), ad.SgdConfig(learning_rate=0.1))
    after = embed_graphs(packed, params, "eval", heads=("h",))["h"].data
    assert not np.array_equal(before, after)
    assert np.array_equal(after, trainable_forward(packed, params, ("h",))["h"].data)
    assert np.array_equal(after, embed_graphs(packed, params.copy(), "eval",
                                              heads=("h",))["h"].data)


def test_embed_pool_bitwise_equal_to_taped_forward(tiny_params, monkeypatch):
    mols = [parse_smiles(s) for s in CORPUS_SMILES]
    max_rows = 16
    monkeypatch.setattr(encoder, "CHUNK_BYTES", 4 * tiny_params.dims.d * max_rows)
    keys = embed_pool(mols, tiny_params)
    chunks = list(encoder._chunks(mols, max_rows))
    assert len(chunks) > 3
    for start, stop in chunks:
        packed = pack([featurize(m) for m in mols[start:stop]])
        rows = trainable_forward(packed, tiny_params, ("h",))["h"].data
        rows = rows.astype(np.float32)
        rows /= np.linalg.norm(rows, axis=1).astype(np.float32)[:, None]
        assert np.array_equal(keys[start:stop], rows)


@pytest.mark.parametrize("d", [8, 32, 256])
def test_embed_matrix_rows_do_not_depend_on_the_cut(d, monkeypatch):
    """Row-bounded chunks (here 40 atom rows), one chunk and one molecule per
    chunk give bitwise equal h and g rows at d=32 and d=256. A one-row block
    takes numpy's matrix-vector path, whose sums round differently, so the
    molecule-per-chunk cut leaves out single atoms; at d=8 OpenBLAS's
    small-matrix kernels may round differently at any block size."""
    params = init_params(2, ModelDims(d=d, n_layers=3, n_types=1))
    randomize_batchnorm(params, np.random.default_rng(d))
    mols = [parse_smiles(s) for s in CORPUS_SMILES * 2]
    several = [m for m in mols if len(m.atoms) > 1]
    monkeypatch.setattr(encoder, "CHUNK_BYTES", 4 * d * 40)
    assert len(list(encoder._chunks(mols, 40))) > 5
    cut = encoder.embed_matrix(mols, params, ("h", "g"))
    cut_several = encoder.embed_matrix(several, params, ("h", "g"))
    monkeypatch.setattr(encoder, "CHUNK_BYTES", 1 << 40)
    whole = encoder.embed_matrix(mols, params, ("h", "g"))
    whole_several = encoder.embed_matrix(several, params, ("h", "g"))
    monkeypatch.setattr(encoder, "CHUNK_BYTES", 1)  # one molecule per chunk
    single = encoder.embed_matrix(several, params, ("h", "g"))
    for got, want in [(cut, whole), (cut_several, whole_several), (single, whole_several)]:
        for a, b in zip(got, want):
            if d == 8:
                assert rel_max(a, b) < 1e-5
            else:
                assert np.array_equal(a, b)


@pytest.mark.parametrize("d", [8, 256])
def test_embed_matrix_rows_do_not_depend_on_the_worker_count(d, monkeypatch):
    """Chunks dealt over one, two and three workers give bitwise the h and g
    rows of one worker, for cuts of 40 atom rows, 7 atom rows, one chunk and
    one molecule per chunk."""
    params = init_params(5, ModelDims(d=d, n_layers=3, n_types=1))
    randomize_batchnorm(params, np.random.default_rng(d))
    mols = [parse_smiles(s) for s in CORPUS_SMILES * 2]
    for chunk_bytes in (4 * d * 40, 4 * d * 7, 1 << 40, 1):
        monkeypatch.setattr(encoder, "CHUNK_BYTES", chunk_bytes)
        runs = []
        for count in (1, 2, 3):
            monkeypatch.setattr(workers, "COUNT", count)
            runs.append([a.tobytes() for a in encoder.embed_matrix(mols, params, ("h", "g"))])
        assert runs[1] == runs[0] and runs[2] == runs[0], chunk_bytes


def test_one_chunk_pool_starts_no_thread(tiny_params, monkeypatch):
    mols = [parse_smiles(s) for s in CORPUS_SMILES]
    assert len(list(encoder._chunks(mols, encoder.CHUNK_BYTES // (4 * tiny_params.dims.d)))) == 1
    monkeypatch.setattr(workers, "COUNT", 3)
    monkeypatch.setattr(workers, "_POOL", None)
    threads = threading.active_count()
    encoder.embed_matrix(mols, tiny_params, ("h", "g"))
    assert workers._POOL is None and threading.active_count() == threads


def test_nan_weight_raises_after_every_share_finished(monkeypatch):
    """Each share fails at its first chunk; the shares on pool threads fail
    later than the caller's, and the error is raised once all have ended."""
    params = init_params(1, ModelDims(d=8, n_layers=1, n_types=1))
    params.tensors["trunk.w0_atom"].data[0, 0] = np.nan
    mols = [parse_smiles(s) for s in CORPUS_SMILES]
    monkeypatch.setattr(workers, "COUNT", 3)
    monkeypatch.setattr(encoder, "CHUNK_BYTES", 1)  # one molecule per chunk
    caller, lock = threading.current_thread(), threading.Lock()
    running, pooled = [0], []
    embed_graphs = encoder.embed_graphs

    def slowed(*args, **kwargs):
        with lock:
            running[0] += 1
        try:
            if threading.current_thread() is not caller:
                pooled.append(1)
                time.sleep(0.2)
            return embed_graphs(*args, **kwargs)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(encoder, "embed_graphs", slowed)
    with pytest.raises(ad.NumericsError):
        encoder.embed_matrix(mols, params, ("h",))
    assert running[0] == 0 and len(pooled) == 2


def reference_normalize(rows):
    """Whole-array normalization: the reference for the blocked one."""
    norms = np.linalg.norm(rows, axis=1)
    return rows / np.where(norms < ad.ZERO_NORM_EPS, 1.0, norms).astype(np.float32)[:, None]


@pytest.mark.parametrize("block_rows", [None, 777, 1000, 1])
def test_normalize_rows_blocked_is_bitwise_whole(block_rows, monkeypatch):
    rng = np.random.default_rng(7)
    d = 256
    rows = (rng.standard_normal((3000, d)) * rng.uniform(1e-3, 1e3, (3000, 1))
            ).astype(np.float32)
    rows[[0, 776, 777, 1999, 2999]] = 0.0  # zero rows stay zero, at block edges too
    if block_rows is not None:
        monkeypatch.setattr(encoder, "_NORM_BYTES", 4 * d * block_rows)
    want = reference_normalize(rows)
    got = encoder.normalize_rows(rows)
    assert got is rows
    assert got.tobytes() == want.tobytes()
    assert not got[[0, 776, 777, 1999, 2999]].any()


def test_normalize_rows_memory_stays_blocked():
    # 20k x 256 float32 rows take 20 MB; the whole-array norms took as much
    # again in temporaries, the blocks about 1 MiB.
    rows = np.random.default_rng(8).standard_normal((20_000, 256)).astype(np.float32)
    tracemalloc.start()
    try:
        encoder.normalize_rows(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


def test_chunks_bound_rows_and_molecules():
    mols = [parse_smiles(s) for s in ["CCO", "C", "CCCCCC", "CC", "O", "CCCC"]]
    # Atom rows 3, 1, 6, 2, 1, 4; a molecule above the bound gets a chunk alone.
    assert list(encoder._chunks(mols, 7)) == [(0, 2), (2, 3), (3, 6)]
    assert list(encoder._chunks(mols, 4)) == [(0, 2), (2, 3), (3, 5), (5, 6)]
    assert list(encoder._chunks(mols, 1)) == [(i, i + 1) for i in range(6)]
    assert list(encoder._chunks([], 4)) == []


def _directed_batch(rng) -> PackedGraphs:
    """Two graphs with one-way edges (a 3-cycle plus a chord, a path with a
    repeated edge), so the adjacency is not symmetric, and random features."""
    src = np.array([0, 1, 2, 0, 3, 4, 4])
    dst = np.array([1, 2, 0, 2, 4, 5, 5])
    return PackedGraphs(rng.random((6, D_ATOM)).astype(np.float32),
                        rng.random((len(src), D_BOND)).astype(np.float32),
                        src, dst, np.array([0, 0, 0, 1, 1, 1]), 2)


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_encoder_matches_edge_loop_reference(mode):
    """Adjacency and bond-sum products, the eval fold and sparse pooling
    against per-edge gathers and scatters with unfolded batch norm."""
    rng = np.random.default_rng(21)
    params = init_params(4, ModelDims(d=12, n_layers=3, n_types=1), dtype=np.float64)
    randomize_batchnorm(params, rng)
    batches = [pack([featurize(parse_smiles(s)) for s in CORPUS_SMILES[:12]]),
               _directed_batch(rng)]
    for packed in batches:
        expected = edge_loop_embeddings(packed, params, mode)
        nodes = embed_nodes(packed, params, mode).data
        heads = embed_graphs(packed, params, mode)
        for name, got in [("nodes", nodes)] + [(h, heads[h].data) for h in HEADS]:
            assert rel_max(got, expected[name]) < 1e-10, (name, packed.n_mols)


def test_embed_pool_empty(tiny_params):
    keys = embed_pool([], tiny_params)
    assert keys.shape == (0, tiny_params.dims.d)


def test_train_mode_single_atom_degenerate(tiny_params):
    with pytest.raises(ad.DegenerateBatch):
        embed_graphs(featurize(parse_smiles("O")), tiny_params, "train")


def test_train_mode_updates_running_stats():
    params = init_params(5, ModelDims(d=8, n_layers=1, n_types=1))
    state = params.bn_states["trunk.bn0"]
    before = state.running_mean.copy()
    embed_graphs(featurize(parse_smiles("CCO")), params, "train")
    assert not np.array_equal(before, state.running_mean)


def test_train_mode_is_one_tape_node_per_batchnorm_site():
    params = init_params(3, ModelDims(d=8, n_layers=2, n_types=1))
    packed = pack([featurize(parse_smiles(s)) for s in ("CCO", "c1ccccc1", "CC(=O)N")])
    tape, stack = {}, list(embed_graphs(packed, params, "train").values())
    while stack:
        node = stack.pop()
        if id(node) not in tape:
            tape[id(node)] = node
            stack.extend(p for p in node._parents if p.requires_grad)
    param_ids = {id(t) for _, t, _ in params.named_parameters()}
    gamma_ids = [id(state.gamma) for state in params.bn_states.values()]
    consumers = [node for node in tape.values()
                 if any(id(p) in param_ids for p in node._parents)]
    consumed_gammas = [id(p) for node in consumers for p in node._parents
                       if id(p) in gamma_ids]
    # Each site's weights, bias, gamma and beta feed one node; besides the
    # sites only the trunk's last linear map reads parameters.
    assert sorted(consumed_gammas) == sorted(gamma_ids)
    assert len(consumers) == len(gamma_ids) + 1


def test_copy_and_state_round_trip(tiny_params):
    clone = tiny_params.copy()
    mol = parse_smiles("CCO")
    assert np.array_equal(embed_molecule(mol, "g", tiny_params),
                          embed_molecule(mol, "g", clone))
    clone.tensors["halt_key"].data += 1.0
    assert not np.array_equal(tiny_params.tensors["halt_key"].data,
                              clone.tensors["halt_key"].data)


def test_gradients_reach_every_parameter():
    params = init_params(2, ModelDims(d=6, n_layers=2, n_types=2), dtype=np.float64)
    packed = pack([featurize(parse_smiles(s)) for s in ("CCO", "CNC", "O=CO")])
    embs = embed_graphs(packed, params, "train")
    total = None
    for head in HEADS:
        term = ad.sum_all(embs[head])
        total = term if total is None else ad.add(total, term)
    # Pull u, v and halt into the loss so every tensor is reachable.
    for extra in ("type.u", "type.v"):
        total = ad.add(total, ad.sum_all(params.tensors[extra]))
    total = ad.add(total, ad.sum_all(
        mul(params.tensors["halt_key"], params.tensors["halt_key"])))
    params.zero_grad()
    ad.backward(total)
    grads = params.gradients()
    nonzero = [name for name, g in grads.items() if np.any(g != 0)]
    zero = [name for name, g in grads.items() if not np.any(g != 0)]
    # Only the u/v tables (constant shift) may have unit gradients; nothing
    # should be missing entirely.
    assert set(grads) == {name for name, _, _ in params.named_parameters()}
    assert len(nonzero) >= len(grads) - 2, zero
