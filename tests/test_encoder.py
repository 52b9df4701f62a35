import random

import numpy as np
import pytest

from retroselect import autodiff as ad
from retroselect import encoder
from retroselect.chem import (D_ATOM, D_BOND, PackedGraphs, disjoint_union, featurize, pack,
                              parse_smiles, write_smiles)
from retroselect.encoder import (HEADS, ModelDims, embed_graphs, embed_molecule,
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
    d, L, T, d_atom, d_bond = 8, 2, 3, 35, 5
    params = init_params(0, ModelDims(d_atom, d_bond, d, L, T))
    trunk = (d_atom * d + d) + (d_bond * d)            # input projections
    trunk += L * (2 * (d * d + d) + d_bond * d)        # per-layer W1, W2, Wbond
    trunk += d * d + d                                 # last linear
    heads = 3 * 2 * (d * d + d)                        # W1/W2 per head
    bn = (1 + 2 * L + 3 * 2) * 2 * d                   # gamma+beta per BN
    extras = 2 * T * d + d                             # u, v, halt key
    assert params.num_parameters() == trunk + heads + bn + extras


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
    a = embed_molecule(mol, "h", tiny_params).vector
    b = embed_molecule(mol, "h", tiny_params).vector
    assert np.array_equal(a, b)


@pytest.mark.parametrize("head", HEADS)
def test_permutation_invariance(tiny_params, head):
    rng = random.Random(9)
    for smiles in CORPUS_SMILES[:10]:
        mol = parse_smiles(smiles)
        base = embed_molecule(mol, head, tiny_params).vector
        order = random_permutation(len(mol.atoms), rng)
        rewritten = parse_smiles(write_smiles(mol, order))
        other = embed_molecule(rewritten, head, tiny_params).vector
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
        ea = embed_molecule(a, head, tiny_params).vector
        eb = embed_molecule(b, head, tiny_params).vector
        eu = embed_molecule(union, head, tiny_params).vector
        assert rel_max(eu, ea + eb) < 1e-5


def test_doubling_captures_size(tiny_params):
    mol = parse_smiles("CC(N)=O")
    doubled = disjoint_union(mol, mol)
    single = embed_molecule(mol, "f", tiny_params).vector
    both = embed_molecule(doubled, "f", tiny_params).vector
    assert rel_max(both, 2.0 * single) < 1e-5


def test_embed_pool_matches_loop(tiny_params, monkeypatch):
    mols = [parse_smiles(s) for s in CORPUS_SMILES[:9]]
    monkeypatch.setattr(encoder, "CHUNK_BYTES", 4 * tiny_params.dims.d * 12)
    assert len(list(encoder._chunks(mols, 12))) > 2
    keys = embed_pool(mols, tiny_params)
    assert keys.shape == (9, tiny_params.dims.d)
    for i, mol in enumerate(mols):
        vec = embed_molecule(mol, "h", tiny_params).vector
        vec = vec / np.linalg.norm(vec)
        assert np.abs(keys[i] - vec).max() < 1e-6
    norms = np.linalg.norm(keys, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-6


def trainable_forward(packed, params, heads=HEADS):
    """The eval forward run step by step on the trainable tensors: its
    batch-norm sites give constants, but the trunk's last linear map and
    the heads' sums and pooling record tape nodes."""
    ops = encoder._GraphOps(packed)
    nodes = embed_nodes(packed, params, "eval", ops)
    return {head: encoder.head_embeddings(nodes, head, params, "eval", ops.pool)
            for head in heads}


def test_detached_forward_is_bitwise_and_tape_free(tiny_params):
    packed = pack([featurize(parse_smiles(s)) for s in CORPUS_SMILES])
    frozen = tiny_params.detached()
    assert tiny_params.detached() is frozen and frozen.detached() is frozen
    taped = trainable_forward(packed, tiny_params)
    free = embed_graphs(packed, tiny_params, "eval")
    on_view = embed_graphs(packed, frozen, "eval")
    for head in HEADS:
        assert taped[head].requires_grad
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
    assert np.array_equal(embed_molecule(mol, "g", tiny_params).vector,
                          embed_molecule(mol, "g", clone).vector)
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
