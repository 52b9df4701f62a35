import itertools

import numpy as np
import pytest

from retroselect import index as index_module
from retroselect import scoring
from retroselect.chem import canonical_form, parse_smiles
from retroselect.encoder import ModelDims, init_params
from retroselect.index import CandidateIndex
from retroselect.scoring import ScoredSet, cosine64, reaction_score
from retroselect.search import Banked, Predictor, beam_search, rank, route_search


def id_sets(banked):
    """Every banked id set as a tuple, block by block."""
    return [tuple(ids) for block in banked.blocks for ids in block.tolist()]


def synthetic_world(rng, n=8, d=6):
    """Random keys/queries detached from any molecule."""
    params = init_params(1, ModelDims(d=d, n_layers=1, n_types=1))
    params.tensors["halt_key"].data[:] = rng.standard_normal(d).astype(np.float32)
    raw = rng.standard_normal((n, d)).astype(np.float32)
    index = CandidateIndex.from_raw_keys(
        raw, np.arange(n), halt_key=params.tensors["halt_key"].data)
    g_pool = rng.standard_normal((n, d)).astype(np.float32)
    f_p = rng.standard_normal(d)
    return params, index, g_pool, f_p


def test_beam_explores_all_subsets(rng):
    params, index, g_pool, f_p = synthetic_world(rng)
    done = beam_search(None, index, params, g_pool, beam=200, n_max=2,
                       f_product=f_p)
    expected = {()} | {(i,) for i in range(8)} \
        | set(itertools.combinations(range(8), 2))
    assert set(id_sets(done)) == expected
    assert len(done) == len(id_sets(done)) == len(expected)


def test_beam_never_selects_excluded_or_duplicates(rng):
    params, index, g_pool, f_p = synthetic_world(rng)
    done = beam_search(None, index, params, g_pool, beam=50, n_max=3,
                       exclude_ids={2, 5}, f_product=f_p)
    for ids in id_sets(done):
        assert 2 not in ids and 5 not in ids
        assert len(set(ids)) == len(ids)


def test_beam_monotone_in_width(rng):
    params, index, g_pool, f_p = synthetic_world(rng)
    small = beam_search(None, index, params, g_pool, beam=2, n_max=2,
                        f_product=f_p)
    large = beam_search(None, index, params, g_pool, beam=6, n_max=2,
                        f_product=f_p)
    assert set(id_sets(small)) <= set(id_sets(large))


def test_beam_requires_halt_index(rng, tiny_params):
    mols = [parse_smiles("CCO")]
    index = CandidateIndex.build(tiny_params, mols)  # no halt row
    with pytest.raises(ValueError):
        beam_search(parse_smiles("CCOC"), index, tiny_params,
                    np.zeros((1, tiny_params.dims.d), np.float32))


def test_predictor_rejects_perm_threshold_outside_order_table(tiny_params):
    for threshold in (-1, 9):
        with pytest.raises(ValueError):
            Predictor(tiny_params, [], perm_threshold=threshold)


@pytest.mark.parametrize("n", [1, 512, 513, 1100])
def test_predictor_runs_the_trunk_once_per_chunk(n, tiny_params, corpus_molecules,
                                                 monkeypatch):
    from retroselect import encoder
    calls = []
    embed_nodes = encoder.embed_nodes

    def counted(*args, **kwargs):
        calls.append(1)
        return embed_nodes(*args, **kwargs)

    monkeypatch.setattr(encoder, "embed_nodes", counted)
    # Chunks of at most 512 atom rows: several for the larger pools.
    monkeypatch.setattr(encoder, "CHUNK_BYTES", 4 * tiny_params.dims.d * 512)
    candidates = list(itertools.islice(itertools.cycle(corpus_molecules), n))
    predictor = Predictor(tiny_params, candidates)
    atoms = sum(len(m.atoms) for m in candidates)
    chunks = list(encoder._chunks(candidates, 512))
    assert len(chunks) >= -(-atoms // 512)
    assert len(calls) == len(chunks)  # both heads per pass
    assert predictor.g_pool.shape == (n, tiny_params.dims.d)
    assert predictor.index.keys.shape == (n + 1, tiny_params.dims.d)


def reference_beam(index, g_pool, f_p, beam, n_max, exclude_ids=()):
    """Float64 reference beam: each hypothesis scans the whole pool with
    ``cosine64``, keeps its top ``beam`` by (-score, id), and the round keeps
    the top ``beam`` extensions by (-total, hypothesis index, id). Returns
    the sorted id sets of the hypotheses live at some round."""
    ids = index.ids.tolist()
    banked = set()
    live = [((), np.asarray(f_p, dtype=np.float64), 0.0)]
    for depth in range(n_max + 1):
        banked.update(tuple(sorted(chosen)) for chosen, _, _ in live)
        if depth == n_max:
            break
        extensions = []
        for hyp_index, (chosen, query, cum) in enumerate(live):
            scored = sorted(((cosine64(query, index.keys[row]), mol_id)
                             for row, mol_id in enumerate(ids)
                             if mol_id not in chosen and mol_id not in exclude_ids),
                            key=lambda pair: (-pair[0], pair[1]))
            extensions += [(cum + psi, hyp_index, mol_id)
                           for psi, mol_id in scored[:beam]]
        if not extensions:
            break
        extensions.sort(key=lambda e: (-e[0], e[1], e[2]))
        live = [(live[h][0] + (mol_id,),
                 live[h][1] - g_pool[ids.index(mol_id)].astype(np.float64), total)
                for total, h, mol_id in extensions[:beam]]
    return banked


def near_tie_world(rng, n, d, copies=6):
    """Pool of ``n // copies`` directions, each repeated ``copies`` times with
    float32-ulp nudges (some exact duplicates), under shuffled ids."""
    params, _, _, f_p = synthetic_world(rng, n=1, d=d)
    base = rng.standard_normal((n // copies, d)).astype(np.float32)
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    keys = np.repeat(base, copies, axis=0)
    top = np.argmax(np.abs(keys), axis=1)
    rows = np.arange(keys.shape[0])
    nudge = rng.integers(0, 3, size=keys.shape[0]).astype(np.float32)
    keys[rows, top] -= np.sign(keys[rows, top]) * nudge * np.spacing(
        np.abs(keys[rows, top]))
    halt = params.tensors["halt_key"].data
    halt_row = (halt / np.linalg.norm(halt)).astype(np.float32)[None, :]
    ids = rng.permutation(keys.shape[0]) * 3 + 1
    index = CandidateIndex(np.vstack([keys, halt_row]), ids, includes_halt=True)
    # Copies share their g row, so exact duplicates give exactly tied totals.
    g_pool = np.repeat(0.3 * rng.standard_normal((n // copies, d)), copies,
                       axis=0).astype(np.float32)
    f_p = base[0].astype(np.float64) + 0.01 * rng.standard_normal(d)
    return params, index, g_pool, f_p


def assert_same_beam(done, reference):
    # Each block holds distinct sets of one size, ids and rows ascending.
    for size, block in enumerate(done.blocks):
        assert block.shape[1] == size
        assert np.array_equal(block, np.unique(np.sort(block, axis=1), axis=0))
    assert sorted(id_sets(done)) == sorted(reference)


def test_beam_matches_float64_reference_on_near_ties(rng):
    for trial in range(4):
        params, index, g_pool, f_p = near_tie_world(rng, n=48, d=5)
        exclude = {int(index.ids[trial])}
        # 60 is wider than the 49 key rows.
        for beam in (1, 4, 9, 60):
            done = beam_search(None, index, params, g_pool, beam=beam, n_max=3,
                               exclude_ids=exclude, f_product=f_p)
            assert_same_beam(done, reference_beam(index, g_pool, f_p, beam, 3, exclude))


def test_beam_matches_float64_reference_across_blocks(rng, monkeypatch):
    beam = 6
    # Six live hypotheses fill a block of 40 columns, so the pool spans 4.
    monkeypatch.setattr(index_module, "_BLOCK_BYTES", 4 * beam * 40)
    params, index, g_pool, f_p = near_tie_world(rng, n=150, d=4, copies=5)
    assert index.keys.shape[0] > 3 * 40
    done = beam_search(None, index, params, g_pool, beam=beam, n_max=3,
                       f_product=f_p)
    assert_same_beam(done, reference_beam(index, g_pool, f_p, beam, 3))


def test_beam_wider_than_all_extensions_across_blocks(rng, monkeypatch):
    # Eight columns per block, so the first round scans the 31 key rows in
    # four blocks. The first two rounds have fewer extensions (30, then
    # 30 x 29) than the beam keeps, so every pair is banked.
    monkeypatch.setattr(index_module, "_BLOCK_BYTES", 4 * 8)
    params, index, g_pool, f_p = near_tie_world(rng, n=30, d=4, copies=5)
    done = beam_search(None, index, params, g_pool, beam=1000, n_max=3,
                       f_product=f_p)
    assert done.blocks[2].shape[0] == 30 * 29 // 2
    assert_same_beam(done, reference_beam(index, g_pool, f_p, 1000, 3))


def test_topk_pairs_and_beam_invariant_to_block_size(rng, monkeypatch):
    params, index, g_pool, f_p = near_tie_world(rng, n=150, d=4, copies=5)
    queries = f_p + 0.05 * rng.standard_normal((6, 4))
    offsets = rng.choice([0.5, 0.5 + 3e-5, 0.5 - 1e-9], size=6)
    exclude = [rng.choice(151, size=3, replace=False) for _ in range(6)]
    runs = []
    # One block; blocks of 40 columns, the first floor set by max(K, 3)
    # leading columns; blocks of one column.
    for block_bytes, seed_bytes in ((index_module._BLOCK_BYTES, index_module._SEED_BYTES),
                                    (4 * 6 * 40, 4 * 6 * 3), (4, 4)):
        monkeypatch.setattr(index_module, "_BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(index_module, "_SEED_BYTES", seed_bytes)
        pairs = [index.topk_pairs(queries, offsets, k, exclude) for k in (1, 7, 40, 900)]
        done = beam_search(None, index, params, g_pool, beam=12, n_max=3, f_product=f_p)
        runs.append((pairs, [block.tolist() for block in done.blocks]))
    for pairs, done in runs[1:]:
        assert done == runs[0][1]
        for (qi, rows, totals), (qi0, rows0, totals0) in zip(pairs, runs[0][0]):
            assert np.array_equal(qi, qi0) and np.array_equal(rows, rows0)
            assert totals.tobytes() == totals0.tobytes()


def test_rank_matches_exhaustive_scoring(rng):
    params, index, g_pool, f_p = synthetic_world(rng)
    h_p = rng.standard_normal(6)
    halt = params.tensors["halt_key"].data
    done = beam_search(None, index, params, g_pool, beam=200, n_max=2,
                       f_product=f_p)
    ranked = rank(None, done, params, index, g_pool,
                  f_product=f_p, h_product=h_p)
    # Oracle: enumerate every subset, score by the overall formula, sort.
    oracle = []
    for size in range(0, 3):
        for subset in itertools.combinations(index.ids.tolist(), size):
            best = -np.inf if subset else 0.0
            for perm in itertools.permutations(subset):
                query = np.asarray(f_p, dtype=np.float64).copy()
                value = 0.0
                for chosen in perm:
                    value += cosine64(query, index.keys[chosen])
                    query = query - g_pool[chosen].astype(np.float64)
                best = max(best, value)
            final_query = np.asarray(f_p, dtype=np.float64).copy()
            for chosen in subset:
                final_query = final_query - g_pool[chosen].astype(np.float64)
            psi_sum = (best if subset else 0.0) + cosine64(final_query, halt)
            total = np.zeros(6)
            for chosen in subset:
                total = total + g_pool[chosen].astype(np.float64)
            forward = cosine64(total, h_p)
            score = (psi_sum + forward) / (len(subset) + 2)
            oracle.append((tuple(subset), score))
    oracle.sort(key=lambda pair: (-pair[1], len(pair[0]), pair[0]))
    assert [s.reactant_ids for s in ranked] == [o[0] for o in oracle]
    # Scores agree to summation-order rounding (order equality is exact).
    assert np.allclose([s.score for s in ranked], [o[1] for o in oracle],
                       rtol=1e-12, atol=0)


def test_rank_matches_per_set_reaction_score_loop(rng, monkeypatch):
    """Batched ``rank`` scores every set bit for bit as ``reaction_score``
    scores it alone and orders them as the per-set key does: sizes
    0..n_max, exact ties from duplicated rows, the greedy path below n_max,
    biases, and batches split across calls."""
    n, d, n_max = 300, 16, 4
    for trial in range(20):
        params = init_params(trial, ModelDims(d=d, n_layers=1, n_types=1))
        for name in ("halt_key", "type.u", "type.v"):
            tensor = params.tensors[name].data
            tensor[:] = rng.standard_normal(tensor.shape)
        raw = rng.standard_normal((n, d)).astype(np.float32)
        g_pool = rng.standard_normal((n, d)).astype(np.float32)
        raw[:10], g_pool[:10] = raw[10:20], g_pool[10:20]  # exact duplicates
        index = CandidateIndex.from_raw_keys(raw, rng.permutation(n) * 2 + 1,
                                             halt_key=params.tensors["halt_key"].data)
        ids = index.ids
        sets = [rng.choice(ids, size=size, replace=False)
                for size in range(n_max + 1) for _ in range(12)]
        sets += [ids[[row, row + 10] + extra]
                 for row, extra in ((0, []), (3, [40]), (7, [41, 42]))]
        # Distinct sets of one size with exactly tied scores, ordered by ids.
        sets += [ids[pair] for row in (1, 4, 8)
                 for pair in ([row, row + 11], [row + 10, row + 1])]
        blocks = []
        for size in range(n_max + 1):
            of_size = [chosen for chosen in sets if len(chosen) == size]
            of_size = np.array(of_size, dtype=np.int64).reshape(len(of_size), size)
            blocks.append(np.unique(np.sort(of_size, axis=1), axis=0))
        banked = Banked(tuple(blocks))
        f_p, h_p = rng.standard_normal(d), rng.standard_normal(d)
        rxn_type = 1 if trial % 2 else None
        if trial % 4 == 3:
            # Room for about three size-4 sets per batched call.
            monkeypatch.setattr(scoring, "_BATCH_BYTES", 8 * 3 * (16 * (d + 16) + 48))
        for threshold in (5, 2):
            ranked = rank(None, banked, params, index, g_pool, rxn_type=rxn_type,
                          perm_threshold=threshold, f_product=f_p, h_product=h_p)
            u_bias = params.tensors["type.u"].data[0] if rxn_type else None
            v_bias = params.tensors["type.v"].data[0] if rxn_type else None
            loop = [reaction_score(f_p, h_p, {i: g_pool[index.row_of(i)] for i in chosen},
                                   {i: index.keys[index.row_of(i)] for i in chosen},
                                   params.tensors["halt_key"].data, u_bias=u_bias,
                                   v_bias=v_bias, perm_threshold=threshold)
                    for chosen in id_sets(banked)]
            loop.sort(key=lambda s: (-s.score, len(s.reactant_ids), s.reactant_ids))
            assert ranked == loop, (trial, threshold)
        monkeypatch.undo()


def test_rank_top_k_is_prefix_of_full_ranking(rng):
    params, index, g_pool, f_p = synthetic_world(rng)
    h_p = rng.standard_normal(6)
    done = beam_search(None, index, params, g_pool, beam=20, n_max=3, f_product=f_p)
    ranked = rank(None, done, params, index, g_pool, f_product=f_p, h_product=h_p)
    assert len(ranked) == len(done)
    for k in (1, 3, len(ranked), len(ranked) + 5):
        assert rank(None, done, params, index, g_pool, f_product=f_p, h_product=h_p,
                    k=k) == ranked[:k]


def test_ranked_scores_bounded_and_sorted(rng):
    params, index, g_pool, f_p = synthetic_world(rng)
    done = beam_search(None, index, params, g_pool, beam=20, n_max=2,
                       f_product=f_p)
    ranked = rank(None, done, params, index, g_pool,
                  f_product=f_p, h_product=rng.standard_normal(6))
    scores = [s.score for s in ranked]
    assert scores == sorted(scores, reverse=True)
    assert all(-1.0 <= s <= 1.0 for s in scores)
    sets = [s.reactant_ids for s in ranked]
    assert len(sets) == len(set(sets))


# --- route search ---

class StubPredictor:
    """Planted single-step predictions keyed by canonical product form."""

    def __init__(self, table, forms):
        self.table = table
        self.form_of_id = dict(enumerate(forms))
        self.id_of_form = {f: i for i, f in self.form_of_id.items()}
        self.calls = 0

    def predict(self, mol, k, rxn_type=None):
        self.calls += 1
        entries = self.table.get(canonical_form(mol), [])
        return [ScoredSet(tuple(sorted(self.id_of_form[f] for f in forms)),
                          score, ())
                for forms, score in entries[:k]]


def test_route_target_already_available():
    blocks = {canonical_form(parse_smiles("CCO"))}
    stub = StubPredictor({}, [])
    route = route_search(parse_smiles("OCC"), blocks, stub)
    assert route is not None and route.solved
    assert route.cost == 0.0 and route.steps == ()
    assert stub.calls == 0


def test_route_two_level_planted():
    c, o, co = (canonical_form(parse_smiles(s)) for s in ("C", "O", "CO"))
    target = canonical_form(parse_smiles("CCO"))
    forms = [c, o, co]
    table = {
        target: [((co, c), 0.9)],
        co: [((c, o), 0.8)],
    }
    stub = StubPredictor(table, forms)
    route = route_search(parse_smiles("CCO"), {c, o}, stub, max_expansions=10)
    assert route is not None and route.solved
    assert len(route.steps) == 2
    assert route.cost == pytest.approx((1 - 0.9) + (1 - 0.8))
    for step in route.steps:
        for form in step.reactant_forms:
            assert form in {c, o, co}
    # Every leaf of the finished route is a building block.
    produced = {step.product_form for step in route.steps}
    leaves = {f for step in route.steps for f in step.reactant_forms} - produced
    assert leaves <= {c, o}


def test_route_fails_within_budget():
    c = canonical_form(parse_smiles("C"))
    target = canonical_form(parse_smiles("CCO"))
    dead_end = canonical_form(parse_smiles("CN"))
    # Predictions never reach a building block.
    table = {target: [((dead_end,), 0.5)], dead_end: [((target,), 0.5)]}
    stub = StubPredictor(table, [c, dead_end, target])
    route = route_search(parse_smiles("CCO"), {c}, stub, max_expansions=5)
    assert route is None
    assert stub.calls <= 5
