import itertools
import tracemalloc

import numpy as np
import pytest

from retroselect import autodiff as ad
from retroselect.autodiff import SgdConfig
from retroselect.chem import featurize, pack, parse_smiles
from retroselect.data import Corpus, ReactionRecord
from retroselect.encoder import HEADS, ModelDims, init_params
from retroselect.index import CandidateIndex
from retroselect.scoring import best_order, cosine_table
from retroselect.search import Predictor
from retroselect import training
from retroselect.toy import make_memorization_world
from retroselect.training import (EmbedTable, ReactantNotInCandidates,
                                  TrainConfig, batch_candidates, batch_loss,
                                  build_embed_table, loss_backward,
                                  loss_forward, train, train_step)

from helpers import composed_affine_batchnorm


def make_corpus(smiles_reactions):
    """Corpus from (reactant smiles list, product smiles, type) triples."""
    corpus = Corpus()
    records = []
    for reactants, product, rxn_type in smiles_reactions:
        rid = tuple(sorted(corpus.intern(parse_smiles(s)) for s in reactants))
        pid = corpus.intern(parse_smiles(product))
        records.append(ReactionRecord(rid, pid, rxn_type))
        if rxn_type:
            corpus.n_types = max(corpus.n_types, rxn_type)
    corpus.reactions["train"] = records
    pool = sorted({i for r in records for i in r.reactant_ids})
    corpus.candidate_ids = pool
    return corpus, records


REACTIONS = [
    (["CCO", "CC(=O)O"], "CC(=O)OCC", 1),
    (["CN", "CC(=O)O"], "CC(=O)NC", 2),
    (["CCO", "CN"], "CCOCN", None),
]


@pytest.fixture()
def world():
    corpus, records = make_corpus(REACTIONS)
    params = init_params(7, ModelDims(d=8, n_layers=2, n_types=2))
    index = CandidateIndex.build(params, corpus.candidates(),
                                 np.array(corpus.candidate_ids))
    return corpus, records, params, index


# --- candidate sets ---

def test_batch_candidates_without_mining(world):
    corpus, records, params, index = world
    out = batch_candidates(records, index, 0)
    expected = sorted({i for r in records for i in r.molecule_ids()})
    assert out == expected


def test_batch_candidates_bounds(world):
    corpus, records, params, index = world

    def embed_query(mol_id):
        from retroselect.encoder import embed_molecule
        return embed_molecule(corpus.molecule(mol_id), "h", params)

    base = batch_candidates(records, index, 0)
    mined = batch_candidates(records, index, 2, embed_query)
    assert set(base) <= set(mined)
    assert len(mined) <= len(base) * (2 + 1)
    assert mined == sorted(mined)


# --- independent straight-line oracle ---

def numpy_forward(params, mol_ids, corpus):
    """Plain-numpy re-implementation of the train-mode forward pass."""
    packed = pack([featurize(corpus.molecule(i)) for i in mol_ids])
    t = {name: tensor.data for name, tensor, _ in params.named_parameters()}
    eps = 1e-5

    def bn(name, x):
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        x_hat = (x - mean) / np.sqrt(var + eps)
        return t[f"{name}.gamma"] * x_hat + t[f"{name}.beta"]

    def scatter(values, idx, n):
        out = np.zeros((n, values.shape[1]), dtype=values.dtype)
        for row, j in zip(values, idx):
            out[j] += row
        return out

    n_atoms = packed.atom_features.shape[0]
    x_atom = packed.atom_features.astype(np.float64)
    x_bond = packed.bond_features.astype(np.float64)
    h = x_atom @ t["trunk.w0_atom"] + t["trunk.b0"]
    h += scatter(x_bond @ t["trunk.w0_bond"], packed.edge_dst, n_atoms)
    h = np.maximum(bn("trunk.bn0", h), 0)
    for layer in range(1, params.dims.n_layers + 1):
        p = f"trunk.l{layer}"
        neighbor = scatter(h[packed.edge_src], packed.edge_dst, n_atoms)
        stage = neighbor @ t[f"{p}.w1"] + t[f"{p}.b1"]
        stage += scatter(x_bond @ t[f"{p}.w_bond"], packed.edge_dst, n_atoms)
        stage = np.maximum(bn(f"{p}.bn1", stage), 0)
        h = np.maximum(bn(f"{p}.bn2", stage @ t[f"{p}.w2"] + t[f"{p}.b2"] + h), 0)
    h = h @ t["trunk.w_last"] + t["trunk.b_last"]

    out = {}
    for head in ("f", "g", "h"):
        p = f"head.{head}"
        z = np.maximum(h, 0)
        z = np.maximum(bn(f"{p}.bn1", z @ t[f"{p}.w1"] + t[f"{p}.b1"]), 0)
        z = bn(f"{p}.bn2", z @ t[f"{p}.w2"] + t[f"{p}.b2"])
        node_out = h + z
        pooled = scatter(node_out, packed.mol_ids, packed.n_mols)
        out[head] = pooled
    return out


def cos(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        return 0.0
    return float(a @ b) / (na * nb)


def oracle_losses(params, corpus, record, candidate_ids, tau,
                  halt_mode="always", embs=None, greedy=False):
    """Loss values by straight-line float64 arithmetic.

    The backward loss takes the best of all selection orders, or with
    ``greedy`` the order that picks the highest-cosine remaining reactant
    (ties to the lower id). ``embs`` (f/g/h rows in ``candidate_ids``
    order) defaults to a plain-numpy forward pass.
    """
    if embs is None:
        embs = numpy_forward(params, candidate_ids, corpus)
    row = {mol_id: i for i, mol_id in enumerate(candidate_ids)}
    t = params.tensors
    halt = t["halt_key"].data.astype(np.float64)
    u = v = 0.0
    if record.rxn_type is not None:
        u = t["type.u"].data[record.rxn_type - 1]
        v = t["type.v"].data[record.rxn_type - 1]

    back_ids = [i for i in candidate_ids if i != record.product_id]
    keys = {i: embs["h"][row[i]] for i in back_ids}

    def order_total(perm):
        query = embs["f"][row[record.product_id]] + u
        total = 0.0
        for step, chosen in enumerate(list(perm) + [None]):
            sims = [cos(query, keys[i]) for i in back_ids]
            if chosen is None or halt_mode == "always":
                sims.append(cos(query, halt))
            scores = np.array(sims) / tau
            logz = np.log(np.exp(scores - scores.max()).sum()) + scores.max()
            target = len(back_ids) if chosen is None else back_ids.index(chosen)
            total += scores[target] - logz
            if chosen is not None:
                query = query - embs["g"][row[chosen]]
        return total

    if greedy:
        query = embs["f"][row[record.product_id]] + u
        remaining, order = list(record.reactant_ids), []
        while remaining:
            pick = max(remaining, key=lambda i: (cos(query, keys[i]), -i))
            remaining.remove(pick)
            order.append(pick)
            query = query - embs["g"][row[pick]]
        loss_b = -order_total(order)
    else:
        loss_b = -max(order_total(perm)
                      for perm in itertools.permutations(record.reactant_ids))

    fwd_ids = [i for i in candidate_ids if i not in record.reactant_ids]
    query = np.sum([embs["g"][row[i]] for i in record.reactant_ids], axis=0) + v
    sims = np.array([cos(query, embs["h"][row[i]]) for i in fwd_ids]) / tau
    logz = np.log(np.exp(sims - sims.max()).sum()) + sims.max()
    loss_f = -(sims[fwd_ids.index(record.product_id)] - logz)
    return loss_b, loss_f


def test_losses_match_straight_line_oracle():
    corpus, records = make_corpus(REACTIONS)
    params = init_params(3, ModelDims(d=8, n_layers=2, n_types=2),
                         dtype=np.float64)
    candidate_ids = sorted({i for r in records for i in r.molecule_ids()})
    table = build_embed_table(candidate_ids, corpus, params)
    for record in records:  # n = 2 records: brute force over both orders
        got_b = loss_backward(record, table, params, tau=0.5).item()
        got_f = loss_forward(record, table, params, tau=0.5).item()
        # Oracle recomputes the whole forward in plain numpy; BN statistics
        # must match, so rebuild the table fresh for the same molecule list.
        want_b, want_f = oracle_losses(params, corpus, record, candidate_ids, 0.5)
        assert got_b == pytest.approx(want_b, rel=1e-9), record
        assert got_f == pytest.approx(want_f, rel=1e-9), record
        assert got_b >= 0 and got_f >= 0


def synthetic_batch():
    """Float64 table over 9 molecules with typed and untyped records of 1,
    2 and 3 reactants; molecule 8 is a distractor with a zero-norm key."""
    rng = np.random.default_rng(21)
    params = init_params(4, ModelDims(d=6, n_layers=1, n_types=2),
                         dtype=np.float64)
    for name in ("type.u", "type.v"):
        params.tensors[name].data[:] = rng.standard_normal((2, 6))
    f, g, h = (ad.parameter(rng.standard_normal((9, 6))) for _ in range(3))
    h.data[8] = 0.0
    records = [ReactionRecord((0,), 5, 1), ReactionRecord((1, 2, 3), 6, None),
               ReactionRecord((2, 4), 7, 2)]
    return EmbedTable(list(range(9)), f, g, h), params, records


@pytest.mark.parametrize("perm_threshold", [1, 5])
@pytest.mark.parametrize("halt_mode", ["always", "final"])
def test_batch_loss_matches_oracle_sum(halt_mode, perm_threshold):
    table, params, records = synthetic_batch()
    loss, loss_b, loss_f = batch_loss(records, table, params, 0.5,
                                      perm_threshold, halt_mode)
    embs = {name: getattr(table, name).data for name in "fgh"}
    want_b, want_f = zip(*(oracle_losses(
        params, None, record, table.ids, 0.5, halt_mode, embs,
        greedy=len(record.reactant_ids) > perm_threshold) for record in records))
    assert loss.item() == pytest.approx(sum(want_b) + sum(want_f), rel=1e-12)
    assert loss_b == pytest.approx(want_b, rel=1e-12)
    assert loss_f == pytest.approx(want_f, rel=1e-12)
    params.zero_grad()
    ad.backward(loss)
    assert np.all(table.h.grad[8] == 0.0)  # zero-norm key: no gradient
    assert np.any(table.h.grad[:8] != 0.0)


def oracle_order(table, params, record, tau, halt_mode):
    """First maximum over itertools orders of the summed float64 step
    log-probs (product column masked, halt column only in "always" mode)."""
    keys = [i for i in table.ids if i != record.product_id]
    h, g = table.h.data, table.g.data
    halt = params.tensors["halt_key"].data
    best, best_total = None, -np.inf
    for perm in itertools.permutations(record.reactant_ids):
        query, total = table.f.data[record.product_id].copy(), 0.0
        if record.rxn_type is not None:
            query = query + params.tensors["type.u"].data[record.rxn_type - 1]
        for chosen in perm:
            scores = [cos(query, h[i]) / tau for i in keys]
            if halt_mode == "always":
                scores.append(cos(query, halt) / tau)
            high = max(scores)
            log_z = high + np.log(sum(np.exp(x - high) for x in scores))
            total += cos(query, h[chosen]) / tau - log_z
            query = query - g[chosen]
        if total > best_total:
            best, best_total = perm, total
    return best


@pytest.mark.parametrize("halt_mode", ["always", "final"])
def test_batch_loss_order_matches_itertools_oracle(halt_mode, monkeypatch):
    followed = []  # (reactant count, one order per record of that count)

    def spy(*args):
        result = best_order(*args)
        followed.append((args[1].shape[1], result[0].tolist()))
        return result

    monkeypatch.setattr(training, "best_order", spy)
    rng = np.random.default_rng(5)
    params = init_params(6, ModelDims(d=6, n_layers=1, n_types=2),
                         dtype=np.float64)
    params.tensors["type.u"].data[:] = rng.standard_normal((2, 6))
    for _ in range(10):
        f, g, h = (ad.parameter(rng.standard_normal((12, 6))) for _ in range(3))
        table = EmbedTable(list(range(12)), f, g, h)
        records = []
        for owner in range(4):
            members = rng.choice(11, size=int(rng.integers(2, 5)), replace=False)
            product = int(rng.choice(sorted(set(range(12)) - set(members.tolist()))))
            records.append(ReactionRecord(tuple(sorted(members.tolist())), product,
                                          owner % 3 or None))
        followed.clear()
        batch_loss(records, table, params, 0.1, 5, halt_mode, sides=("backward",))
        # One call per reactant count, its rows the records of that count in
        # batch order.
        counts = [n for n, _ in followed]
        assert sorted(counts) == sorted({len(r.reactant_ids) for r in records})
        for n, rows in followed:
            of_count = [r for r in records if len(r.reactant_ids) == n]
            for record, positions in zip(of_count, rows, strict=True):
                got = tuple(record.reactant_ids[p] for p in positions)
                assert got == oracle_order(table, params, record, 0.1, halt_mode)


def per_record_order(record, table, params, tau, perm_threshold, halt_mode):
    """``best_order`` of one record alone (a batch of m = 1) on the float64
    step log-probs the loss picks: the product's column masked, and the halt
    column too in "final" mode."""
    keys = np.vstack([table.h.data, params.tensors["halt_key"].data]).astype(np.float64)
    live = np.ones(keys.shape[0], dtype=bool)
    live[table.row_of[record.product_id]] = False
    if halt_mode == "final":
        live[-1] = False
    members = [table.row_of[i] for i in record.reactant_ids]
    start = table.f.data[table.row_of[record.product_id]].astype(np.float64)
    if record.rxn_type is not None:
        start += params.tensors["type.u"].data[record.rxn_type - 1]

    def step_scores(queries):
        scores = np.where(live, cosine_table(queries, keys) / tau, -np.inf)
        high = scores.max(axis=-1, keepdims=True)
        log_z = high + np.log(np.exp(scores - high).sum(axis=-1, keepdims=True))
        return scores[..., members] - log_z

    (positions,), _, _ = best_order(start[None], table.g.data[None, members].astype(np.float64),
                                    step_scores, perm_threshold)
    return tuple(record.reactant_ids[p] for p in positions.tolist())


@pytest.mark.parametrize("perm_threshold", [5, 2])
@pytest.mark.parametrize("halt_mode", ["always", "final"])
def test_batched_order_choice_equals_per_record_call(halt_mode, perm_threshold, monkeypatch):
    # Batches of 1-4 reactants, typed and untyped, under shuffled ids; with
    # threshold 2 the larger sets take the greedy branch. Rows 10-19 repeat
    # the g and h rows of rows 0-9, so a record holding both rows of a pair
    # has exactly tied orders, and the first maximum must win in both.
    calls = []

    def counted(*args):
        calls.append(args[1].shape[1])
        return best_order(*args)

    monkeypatch.setattr(training, "best_order", counted)
    rng = np.random.default_rng(11)
    params = init_params(8, ModelDims(d=6, n_layers=1, n_types=2), dtype=np.float64)
    for name in ("type.u", "halt_key"):
        params.tensors[name].data[:] = rng.standard_normal(params.tensors[name].data.shape)
    for _ in range(6):
        f, g, h = (ad.parameter(rng.standard_normal((20, 6))) for _ in range(3))
        g.data[10:], h.data[10:] = g.data[:10], h.data[:10]
        ids = (rng.permutation(20) * 3 + 1).tolist()
        table = EmbedTable(ids, f, g, h)
        records = []
        for owner in range(16):
            n = int(rng.integers(1, 5))
            pair = int(rng.integers(10))
            rows = [pair, pair + 10] if n >= 2 and owner % 2 else []
            rest = [row for row in rng.permutation(20).tolist() if row not in rows]
            rows += rest[:n - len(rows)]
            records.append(ReactionRecord(tuple(sorted(ids[row] for row in rows)),
                                          ids[rest[-1]], owner % 3 or None))
        type_rows = [None if r.rxn_type is None else r.rxn_type - 1 for r in records]
        calls.clear()
        got = training._selection_orders(records, table, params, type_rows, 0.1,
                                         perm_threshold, halt_mode)
        assert sorted(calls) == sorted({len(r.reactant_ids) for r in records})
        assert got == [per_record_order(record, table, params, 0.1, perm_threshold,
                                        halt_mode) for record in records]


def test_batch_loss_sides_add_up():
    table, params, records = synthetic_batch()
    total = batch_loss(records, table, params, 0.5)[0].item()
    parts = sum(loss_backward(r, table, params, 0.5).item()
                + loss_forward(r, table, params, 0.5).item() for r in records)
    assert total == pytest.approx(parts, rel=1e-12)


def test_loss_forward_single_class_is_zero(world):
    corpus, records, params, index = world
    record = records[0]
    table_ids = sorted(record.molecule_ids())
    table = build_embed_table(table_ids, corpus, params)
    loss = loss_forward(record, table, params, tau=0.1)
    assert loss.item() == pytest.approx(0.0, abs=1e-7)


def test_loss_backward_two_class_case(world):
    corpus, records, params, index = world
    record = next(r for r in records if len(r.reactant_ids) == 2)
    single = ReactionRecord(record.reactant_ids[:1], record.product_id, None)
    table = build_embed_table(sorted(single.molecule_ids()), corpus, params)
    loss = loss_backward(single, table, params, tau=0.1)
    assert np.isfinite(loss.item()) and loss.item() >= 0


def test_loss_backward_missing_reactant(world):
    corpus, records, params, index = world
    record = records[0]
    table = build_embed_table([record.product_id], corpus, params)
    with pytest.raises(ReactantNotInCandidates):
        loss_backward(record, table, params, tau=0.1)


def test_zero_type_bias_losses_match_untyped():
    corpus, records = make_corpus(REACTIONS)
    params = init_params(5, ModelDims(d=8, n_layers=1, n_types=3))
    candidate_ids = sorted({i for r in records for i in r.molecule_ids()})
    typed = next(r for r in records if r.rxn_type is not None)
    untyped = ReactionRecord(typed.reactant_ids, typed.product_id, None)
    table = build_embed_table(candidate_ids, corpus, params)
    assert loss_backward(typed, table, params, 0.1).item() == \
        loss_backward(untyped, table, params, 0.1).item()
    assert loss_forward(typed, table, params, 0.1).item() == \
        loss_forward(untyped, table, params, 0.1).item()


def test_halt_denominator_variants_differ():
    corpus, records = make_corpus(REACTIONS)
    params = init_params(2, ModelDims(d=8, n_layers=1, n_types=2))
    record = next(r for r in records if len(r.reactant_ids) == 2)
    candidate_ids = sorted({i for r in records for i in r.molecule_ids()})
    table = build_embed_table(candidate_ids, corpus, params)
    always = loss_backward(record, table, params, 0.1, halt_mode="always").item()
    final = loss_backward(record, table, params, 0.1, halt_mode="final").item()
    assert always != final


def test_train_step_zero_lr_keeps_params(world):
    corpus, records, params, index = world
    cfg = TrainConfig(learning_rate=0.0, batch_size=3, total_iters=1,
                      hard_k=0, tau=0.1)
    optimizer = SgdConfig(0.0, cfg.momentum, cfg.weight_decay, cfg.clip_norm)
    before = {k: v.copy() for k, v in params.state_arrays().items()}
    metrics = train_step(records, index, params, cfg, corpus, optimizer)
    assert np.isfinite(metrics["loss_b"]) and np.isfinite(metrics["loss_f"])
    for name, tensor, _ in params.named_parameters():
        assert np.array_equal(before[name], tensor.data), name
    # Running statistics still move in train mode.
    assert params.step == 1


def test_train_step_clip_contract(world):
    corpus, records, params, index = world
    cfg = TrainConfig(learning_rate=0.01, batch_size=3, total_iters=1,
                      hard_k=0, clip_norm=0.05, tau=0.1)
    optimizer = SgdConfig(cfg.learning_rate, 0.0, 0.0, cfg.clip_norm)
    metrics = train_step(records, index, params, cfg, corpus, optimizer)
    assert metrics["grad_norm"] > 0
    applied = ad.global_norm(optimizer.velocities)
    assert applied <= cfg.clip_norm * (1 + 1e-6)  # float32 rounding headroom


def test_repeated_batch_overfits(world):
    corpus, records, params, index = world
    cfg = TrainConfig(learning_rate=0.02, batch_size=3, total_iters=50,
                      hard_k=0, tau=0.1)
    optimizer = SgdConfig(cfg.learning_rate, cfg.momentum, 0.0, cfg.clip_norm)
    losses = []
    for _ in range(50):
        metrics = train_step(records, index, params, cfg, corpus, optimizer)
        losses.append(metrics["loss_b"] + metrics["loss_f"])
    assert np.mean(losses[-5:]) < np.mean(losses[:5]) * 0.5


def test_train_steps_bitwise_equal_to_unfused_batchnorm(tmp_path, monkeypatch):
    # The fused train-mode batch-norm node against the linear/add/batchnorm
    # composition it replaced: same losses, grad norms and parameter bytes.
    corpus = make_memorization_world(str(tmp_path), seed=3, n_fragments=30,
                                     n_reactions=12, n_distractors=0).load()
    cfg = TrainConfig(batch_size=6, hard_k=2, tau=0.1, seed=3)

    def three_steps():
        params = init_params(3, ModelDims(d=16, n_layers=2, n_types=1))
        index = CandidateIndex.build(params, corpus.candidates(),
                                     np.array(corpus.candidate_ids))
        optimizer = SgdConfig(cfg.learning_rate, cfg.momentum, cfg.weight_decay,
                              cfg.clip_norm)
        sampler = training._BatchSampler(corpus.reactions["train"], cfg.batch_size, cfg.seed)
        metrics = [train_step(sampler.next_batch(), index, params, cfg, corpus, optimizer)
                   for _ in range(3)]
        return metrics, {name: array.tobytes()
                         for name, array in params.state_arrays().items()}

    fused = three_steps()
    eval_site = ad.affine_batchnorm

    def unfused(terms, b, state, mode, residual=None, relu=False):
        if mode == "train":
            out = composed_affine_batchnorm(terms, b, state, residual)
            return ad.relu(out) if relu else out
        return eval_site(terms, b, state, mode, residual, relu)
    monkeypatch.setattr(ad, "affine_batchnorm", unfused)
    assert three_steps() == fused


def test_train_step_keeps_only_what_its_backward_reads(tmp_path, monkeypatch):
    # Traced with tracemalloc from the start of one small train step: at the
    # end of the forward, the float32 [atoms, d] arrays alive are exactly two
    # per batch-norm site (its normalized buffer and its output) plus the
    # trunk's output, so none is a neighbour sum, a ReLU copy or a residual
    # sum; and the backward, which releases nodes as it sweeps, peaks at
    # most a few such arrays above the forward's end.
    corpus = make_memorization_world(str(tmp_path), seed=3, n_fragments=30,
                                     n_reactions=12, n_distractors=0).load()
    dims = ModelDims(d=32, n_layers=2, n_types=1)
    params = init_params(3, dims)
    cfg = TrainConfig(batch_size=6, hard_k=2, tau=0.1, seed=3)
    index = CandidateIndex.build(params, corpus.candidates(), np.array(corpus.candidate_ids))
    optimizer = SgdConfig(cfg.learning_rate, cfg.momentum, cfg.weight_decay, cfg.clip_norm)
    batch = training._BatchSampler(corpus.reactions["train"], cfg.batch_size,
                                   cfg.seed).next_batch()
    seen = {}
    build, backward = training.build_embed_table, ad.backward

    def counting_build(candidate_ids, *args):
        seen["node_bytes"] = 4 * dims.d * sum(len(corpus.molecule(i).atoms)
                                              for i in candidate_ids)
        return build(candidate_ids, *args)

    def traced_backward(loss):
        traces = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]).traces
        seen["node_sized"] = sum(trace.size == seen["node_bytes"] for trace in traces)
        seen["forward_end"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(loss)
        seen["backward_peak"] = tracemalloc.get_traced_memory()[1]
    monkeypatch.setattr(training, "build_embed_table", counting_build)
    monkeypatch.setattr(ad, "backward", traced_backward)
    tracemalloc.start()
    try:
        train_step(batch, index, params, cfg, corpus, optimizer)
    finally:
        tracemalloc.stop()
    sites = 1 + 2 * dims.n_layers + 2 * len(HEADS)
    assert seen["node_sized"] == 2 * sites + 1
    assert seen["backward_peak"] - seen["forward_end"] <= 7 * seen["node_bytes"]


def test_train_step_featurizes_once_and_keeps_nothing(world, monkeypatch):
    # A step featurizes the anchors outside the pool in one pass, then its
    # candidate set in one pass, in ``candidate_ids`` order, whether or not
    # the same batch came before.
    corpus, records, params, index = world
    anchors = sorted({i for r in records for i in r.molecule_ids()})
    outside = [i for i, inside in zip(anchors, index.find_rows(anchors)[1]) if not inside]
    assert outside

    def per_molecule(*args):
        raise AssertionError("a train step featurizes molecule by molecule")

    monkeypatch.setattr(training, "featurize", per_molecule)
    monkeypatch.setattr(training, "pack", per_molecule)
    featurized, candidate_sets = [], []
    featurize_packed, mine = training.featurize_packed, training.batch_candidates

    def spy_featurize(mols):
        featurized.append(list(mols))
        return featurize_packed(mols)

    def spy_mine(*args):
        candidate_sets.append(mine(*args))
        return candidate_sets[-1]

    monkeypatch.setattr(training, "featurize_packed", spy_featurize)
    monkeypatch.setattr(training, "batch_candidates", spy_mine)
    cfg = TrainConfig(batch_size=3, hard_k=2, tau=0.1)
    optimizer = SgdConfig(cfg.learning_rate, cfg.momentum, cfg.weight_decay, cfg.clip_norm)
    for step in range(2):
        train_step(records, index, params, cfg, corpus, optimizer)
        assert len(featurized) == 2 * (step + 1)
        for mols, ids in zip(featurized[2 * step:], (outside, candidate_sets[step])):
            expected = [corpus.molecule(i) for i in ids]
            assert len(mols) == len(expected)
            assert all(a is b for a, b in zip(mols, expected))


def test_typed_training_updates_bias_tables(world):
    corpus, records, params, index = world
    cfg = TrainConfig(learning_rate=0.05, batch_size=3, total_iters=1,
                      hard_k=0, tau=0.1)
    optimizer = SgdConfig(cfg.learning_rate, 0.0, 0.0, cfg.clip_norm)
    assert np.all(params.tensors["type.u"].data == 0)
    for _ in range(3):
        train_step(records, index, params, cfg, corpus, optimizer)
    typed_rows = sorted({r.rxn_type for r in records if r.rxn_type})
    u = params.tensors["type.u"].data
    v = params.tensors["type.v"].data
    for rxn_type in typed_rows:
        assert np.any(u[rxn_type - 1] != 0)
        assert np.any(v[rxn_type - 1] != 0)
    # Types absent from the data never move.
    untouched = [t for t in range(1, params.dims.n_types + 1)
                 if t not in typed_rows]
    for rxn_type in untouched:
        assert np.all(u[rxn_type - 1] == 0)


def test_predictor_reusing_training_index_matches_fresh(world):
    corpus, records, params, index = world
    kwargs = dict(forms=[corpus.form(i) for i in corpus.candidate_ids],
                  beam=8, n_max=3)
    ids = np.array(corpus.candidate_ids)
    fresh = Predictor(params, corpus.candidates(), ids, **kwargs)
    reused = Predictor(params, corpus.candidates(), ids, index=index, **kwargs)
    # One trunk pass for both heads gives bitwise the h-only index's keys
    # and the g-only pass's rows.
    assert np.array_equal(fresh.index.keys, reused.index.keys)
    assert np.array_equal(fresh.g_pool, reused.g_pool)
    for record in records:
        product = corpus.molecule(record.product_id)
        assert fresh.predict(product, 5) == reused.predict(product, 5)


def test_refresh_at_an_eval_step_embeds_the_pool_once(monkeypatch):
    from retroselect import encoder, search
    calls = []
    embed_matrix = encoder.embed_matrix

    def counted(mols, params, heads, *args, **kwargs):
        calls.append(tuple(heads))
        return embed_matrix(mols, params, heads, *args, **kwargs)

    for module in (encoder, search):
        monkeypatch.setattr(module, "embed_matrix", counted)
    corpus, _ = make_corpus(REACTIONS)
    cfg = TrainConfig(total_iters=4, eval_every=2, refresh_every=2, batch_size=2,
                      hard_k=1, val_beam=4, seed=3)
    train(corpus, cfg, ModelDims(d=8, n_layers=1, n_types=2))
    # The first mining index, then one pass for both heads at step 2 (which
    # refreshes and validates) and at step 4 (which validates).
    assert calls == [("h",), ("h", "g"), ("h", "g")]


def test_train_zero_iters_returns_init(tmp_path):
    corpus, _ = make_corpus(REACTIONS)
    cfg = TrainConfig(total_iters=0, batch_size=2, seed=9)
    dims = ModelDims(d=8, n_layers=1, n_types=2)
    out = train(corpus, cfg, dims)
    fresh = init_params(9, dims)
    for name, arr in fresh.state_arrays().items():
        assert np.array_equal(arr, out.state_arrays()[name]), name


def test_perm_threshold_range_matches_order_table():
    for threshold in (-1, 9):
        with pytest.raises(ValueError):
            TrainConfig(perm_threshold=threshold)
    assert TrainConfig(perm_threshold=8).perm_threshold == 8


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(halt_in_denominator="sometimes")
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-0.1)
