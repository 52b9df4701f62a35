"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The training-based
criteria share module-scoped fixtures (a fragment-grammar world trained
with the stated defaults), so the first of them pays the training cost.
"""

import itertools
import random
import time
from pathlib import Path

import numpy as np
import pytest

from retroselect import autodiff as ad
from retroselect.chem import (ChemError, canonical_form, parse_smiles,
                              write_smiles)
from retroselect.data import (Corpus, MetricsLog, ReactionRecord,
                              save_checkpoint, topk_exact_match)
from retroselect.encoder import (ModelDims, embed_molecule, init_params)
from retroselect.index import CandidateIndex
from retroselect.scoring import cosine64, reaction_score
from retroselect.search import Predictor, beam_search, rank, route_search
from retroselect.toy import make_memorization_world, make_route_world
from retroselect.training import (TrainConfig, build_embed_table, loss_backward,
                                  loss_forward, train)

from helpers import isomorphic, random_permutation, relative_error


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {number:02d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {number}: {detail}"


# --- shared trained world (criteria 4, 5) ---

@pytest.fixture(scope="module")
def toy_world(tmp_path_factory):
    directory = tmp_path_factory.mktemp("accept_world")
    return make_memorization_world(str(directory), seed=7, n_fragments=300,
                                   n_reactions=100, n_distractors=900)


@pytest.fixture(scope="module")
def toy_model(toy_world):
    corpus = toy_world.load()
    cfg = TrainConfig(batch_size=16, total_iters=2000, eval_every=1000,
                      refresh_every=1000, tau=0.1, hard_k=4,
                      learning_rate=0.01, seed=0, val_cap=100, val_beam=32)
    started = time.time()
    params = train(corpus, cfg, ModelDims(d=32, n_layers=3, n_types=1),
                   MetricsLog())
    return corpus, params, time.time() - started


def _topk_table(corpus, params, ks, beam=200):
    predictor = Predictor(params, corpus.candidates(),
                          np.array(corpus.candidate_ids),
                          forms=[corpus.form(i) for i in corpus.candidate_ids],
                          beam=beam, n_max=4)
    predictions, truths = [], []
    for record in corpus.reactions["train"]:
        product = corpus.molecule(record.product_id)
        predictions.append([tuple(sorted(predictor.form_of_id[i] for i in s.reactant_ids))
                            for s in predictor.predict(product, k=max(ks))])
        truths.append(tuple(sorted(corpus.form(i) for i in record.reactant_ids)))
    return topk_exact_match(predictions, truths, ks)


def test_criterion_01_published_scale_gap_documented():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    ok = "Published-scale results" in text and "not reproduced" in text
    report(1, ok, "README documents that published-scale benchmark numbers "
                  "are out of desk-scale reach; property/oracle criteria "
                  "below stand in for them")


def test_criterion_02_end_to_end_gradient_check():
    started = time.time()
    corpus = Corpus()
    triples = [
        (["CCO", "CC(=O)O"], "CC(=O)OCC"),
        (["CNC"], "CNC=O"),
        (["c1ccco1", "CN"], "CNCc1ccco1"),
    ]
    records = []
    for reactants, product in triples:
        rid = tuple(sorted(corpus.intern(parse_smiles(s)) for s in reactants))
        records.append(ReactionRecord(rid, corpus.intern(parse_smiles(product))))
    assert all(len(corpus.molecule(i).atoms) <= 10
               for i in range(len(corpus.molecules)))
    params = init_params(5, ModelDims(d=8, n_layers=2, n_types=1),
                         dtype=np.float64)
    # Zero-initialized biases put whole ReLU rows exactly on the kink where
    # the subgradient convention (0) and central differences (1/2) disagree;
    # nudge every tensor to a generic point before differentiating.
    noise = np.random.default_rng(0)
    for _, tensor, _ in params.named_parameters():
        tensor.data += noise.uniform(-1e-2, 1e-2, size=tensor.data.shape)
    candidate_ids = sorted({i for r in records for i in r.molecule_ids()})
    tau = 0.1

    def total_loss():
        table = build_embed_table(candidate_ids, corpus, params)
        value = None
        for record in records:
            term = ad.add(loss_backward(record, table, params, tau),
                          loss_forward(record, table, params, tau))
            value = term if value is None else ad.add(value, term)
        return value

    params.zero_grad()
    ad.backward(total_loss())
    grads = params.gradients()
    h = 1e-5
    worst = 0.0
    worst_name = ""
    for name, tensor, _ in params.named_parameters():
        flat = tensor.data.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = total_loss().item()
            flat[i] = orig - h
            down = total_loss().item()
            flat[i] = orig
            rel = relative_error((up - down) / (2 * h), gflat[i])
            if rel > worst:
                worst, worst_name = rel, name
    elapsed = time.time() - started
    ok = worst < 1e-4 and elapsed < 60
    report(2, ok, f"max rel grad error {worst:.2e} (worst in {worst_name}) "
                  f"over {sum(t.data.size for _, t, _ in params.named_parameters())} "
                  f"parameters, {elapsed:.1f}s")


def test_criterion_03_search_matches_exhaustive_scoring():
    started = time.time()
    failures = 0
    for trial in range(50):
        rng = np.random.default_rng(1000 + trial)
        d = 6
        params = init_params(trial, ModelDims(d=d, n_layers=1, n_types=1))
        params.tensors["halt_key"].data[:] = \
            rng.standard_normal(d).astype(np.float32)
        raw = rng.standard_normal((8, d)).astype(np.float32)
        index = CandidateIndex.from_raw_keys(raw, np.arange(8))
        g_pool = rng.standard_normal((8, d)).astype(np.float32)
        f_p = rng.standard_normal(d)
        h_p = rng.standard_normal(d)
        done = beam_search(None, index, params, g_pool, beam=200, n_max=2,
                           f_product=f_p)
        ranked = rank(None, done, params, index, g_pool,
                      f_product=f_p, h_product=h_p)
        halt = params.tensors["halt_key"].data
        oracle = []
        for size in range(1, 3):
            for subset in itertools.combinations(range(8), size):
                best = -np.inf
                for perm in itertools.permutations(subset):
                    query = np.asarray(f_p, dtype=np.float64).copy()
                    value = 0.0
                    for chosen in perm:
                        value += cosine64(query, index.keys[chosen])
                        query = query - g_pool[chosen].astype(np.float64)
                    best = max(best, value)
                final = np.asarray(f_p, dtype=np.float64).copy()
                total = np.zeros(d)
                for chosen in subset:
                    final = final - g_pool[chosen].astype(np.float64)
                    total = total + g_pool[chosen].astype(np.float64)
                psi_sum = best + cosine64(final, halt)
                score = (psi_sum + cosine64(total, h_p)) / (len(subset) + 2)
                oracle.append((tuple(subset), score))
        oracle.sort(key=lambda pair: (-pair[1], len(pair[0]), pair[0]))
        if [s.reactant_ids for s in ranked] != [o[0] for o in oracle]:
            failures += 1
    elapsed = time.time() - started
    ok = failures == 0 and elapsed < 30
    report(3, ok, f"beam+rank order equals exhaustive scoring on 50 tiny "
                  f"worlds ({failures} mismatches), {elapsed:.1f}s")


def test_criterion_04_toy_memorization(toy_model):
    corpus, params, train_time = toy_model
    started = time.time()
    table = _topk_table(corpus, params, [1, 5])
    eval_time = time.time() - started
    top1, top5 = 100 * table[1], 100 * table[5]
    ok = top1 >= 90.0 and top5 >= 98.0 and train_time + eval_time < 300
    report(4, ok, f"2000 iters, batch 16, tau 0.1, K 4, lr 0.01: train top-1 "
                  f"{top1:.1f}% (>=90), top-5 {top5:.1f}% (>=98); "
                  f"train {train_time:.0f}s + eval {eval_time:.0f}s < 300s")


def test_criterion_05_unseen_candidate_robustness(toy_world, toy_model):
    corpus, params, _ = toy_model
    base_top5 = 100 * _topk_table(corpus, params, [5])[5]
    enlarged = toy_world.load(include_distractors=True)
    big_top5 = 100 * _topk_table(enlarged, params, [5])[5]
    drop = base_top5 - big_top5
    ok = drop <= 10.0
    report(5, ok, f"pool {len(corpus.candidate_ids)} -> "
                  f"{len(enlarged.candidate_ids)} candidates: top-5 "
                  f"{base_top5:.1f}% -> {big_top5:.1f}% (drop {drop:.1f} <= 10)")


def test_criterion_06_index_exactness():
    started = time.time()
    rng = np.random.default_rng(99)
    mismatches = 0
    for trial in range(200):
        n = int(rng.integers(4, 2001))
        d = int(rng.integers(2, 129))
        raw = rng.standard_normal((n, d)).astype(np.float32)
        if trial % 3 == 0 and n >= 6:  # plant exact ties
            raw[1] = raw[0]
            raw[5] = raw[0]
        index = CandidateIndex.from_raw_keys(raw)
        query = rng.standard_normal(d)
        exclude = set(rng.choice(n, size=min(4, n // 2), replace=False).tolist()) \
            if trial % 4 == 0 else set()
        keys64 = index.keys.astype(np.float64)
        norms = np.linalg.norm(keys64, axis=1)
        qn = np.linalg.norm(query)
        scores = np.where(norms < 1e-12, 0.0,
                          keys64 @ query / np.where(norms < 1e-12, 1.0,
                                                    norms * qn))
        order = np.lexsort((index.ids, -scores))
        order = [r for r in order if int(index.ids[r]) not in exclude]
        for k in {1, 3, n // 2 or 1, n, n + 7}:
            got = index.query_topk(query, k, exclude=exclude)
            want = [(int(index.ids[r]), float(scores[r])) for r in order[:k]]
            if [i for i, _ in got] != [i for i, _ in want]:
                mismatches += 1
    elapsed = time.time() - started
    ok = mismatches == 0 and elapsed < 10
    report(6, ok, f"query_topk equals naive float64 scan on 200 instances "
                  f"x5 K values incl. ties/exclusions "
                  f"({mismatches} mismatches), {elapsed:.1f}s")


def test_criterion_07_encoder_invariants(toy_world):
    from retroselect.chem import disjoint_union
    corpus = toy_world.load()
    params = init_params(21, ModelDims(d=32, n_layers=3, n_types=1))
    rng = random.Random(0)
    worst_perm = 0.0
    worst_add = 0.0
    worst_double = 0.0
    for mol_id in range(len(corpus.molecules)):
        mol = corpus.molecule(mol_id)
        base = embed_molecule(mol, "h", params)
        scale = max(1e-12, float(np.abs(base).max()))
        order = random_permutation(len(mol.atoms), rng)
        permuted = parse_smiles(write_smiles(mol, order), allow_fragments=True)
        other = embed_molecule(permuted, "h", params)
        worst_perm = max(worst_perm, float(np.abs(base - other).max()) / scale)
        doubled = embed_molecule(disjoint_union(mol, mol), "h", params)
        dscale = max(1e-12, float(np.abs(doubled).max()))
        worst_double = max(worst_double,
                           float(np.abs(doubled - 2 * base).max()) / dscale)
    pool = corpus.candidates()
    for a, b in zip(pool[0:40:2], pool[1:40:2]):
        ea = embed_molecule(a, "f", params)
        eb = embed_molecule(b, "f", params)
        eu = embed_molecule(disjoint_union(a, b), "f", params)
        uscale = max(1e-12, float(np.abs(eu).max()))
        worst_add = max(worst_add, float(np.abs(eu - (ea + eb)).max()) / uscale)
    ok = worst_perm < 1e-5 and worst_add < 1e-5 and worst_double < 1e-5
    report(7, ok, f"rel errors over {len(corpus.molecules)} molecules: "
                  f"permutation {worst_perm:.1e}, additivity {worst_add:.1e}, "
                  f"doubling {worst_double:.1e} (all < 1e-5)")


def test_criterion_08_overall_score_order_invariance():
    rng = np.random.default_rng(4)
    violations = 0
    for _ in range(1000):
        d = 8
        n = int(rng.integers(0, 5))
        ids = rng.choice(1000, size=n, replace=False).tolist()
        f_p, h_p, halt = (rng.standard_normal(d) for _ in range(3))
        g = {i: rng.standard_normal(d) for i in ids}
        h = {i: rng.standard_normal(d) for i in ids}
        baseline = None
        for _ in range(10):
            shuffled = list(ids)
            rng.shuffle(shuffled)
            scored = reaction_score(f_p, h_p, {i: g[i] for i in shuffled},
                                    {i: h[i] for i in shuffled}, halt)
            if baseline is None:
                baseline = scored
            elif (scored.score != baseline.score
                  or scored.reactant_ids != baseline.reactant_ids
                  or scored.best_order != baseline.best_order):
                violations += 1
    ok = violations == 0
    report(8, ok, f"reaction_score bitwise identical across 10 orderings "
                  f"for 1000 random sets (|R| <= 4): {violations} violations")


def test_criterion_09_parser_robustness(toy_world):
    started = time.time()
    corpus = toy_world.load()
    molecules = corpus.molecules
    rng = random.Random(17)
    rewrites_per_mol = max(1, 10000 // len(molecules))
    checked = 0
    for mol in molecules:
        base = canonical_form(mol)
        for _ in range(rewrites_per_mol):
            order = random_permutation(len(mol.atoms), rng)
            rewritten = parse_smiles(write_smiles(mol, order),
                                     allow_fragments=True)
            assert canonical_form(rewritten) == base
            checked += 1
    assert checked >= 10000

    crashes = 0
    alphabet = "CcNnOoSsPpBbrIlF()[]=#-+:123456789%@/\\. \tHhxX{}$!\x00\xff"
    raw = random.Random(23)
    for case in range(100000):
        if case % 4 == 0:  # unstructured bytes
            text = bytes(raw.randrange(256)
                         for _ in range(raw.randint(1, 256))).decode("latin-1")
        else:              # SMILES-flavored strings bite deeper into the parser
            text = "".join(rng.choice(alphabet)
                           for _ in range(rng.randint(1, 256)))
        try:
            parse_smiles(text)
        except ChemError:
            pass
        except Exception:
            crashes += 1

    small = [m for m in molecules if len(m.atoms) <= 16]
    for mol in small:
        again = parse_smiles(write_smiles(mol), allow_fragments=True)
        assert isomorphic(mol, again)
    elapsed = time.time() - started
    ok = crashes == 0
    report(9, ok, f"{checked} permutation rewrites canonical-stable; 100k "
                  f"fuzz strings, {crashes} crashes; round-trip isomorphism "
                  f"on {len(small)} molecules (<=16 atoms); {elapsed:.0f}s")


def test_criterion_10_training_determinism(tmp_path_factory):
    try:
        import threadpoolctl
        threadpoolctl.threadpool_limits(1)
    except ImportError:
        pass
    directory = tmp_path_factory.mktemp("det_world")
    world = make_memorization_world(str(directory), seed=23, n_fragments=30,
                                    n_reactions=12, n_distractors=0)
    blobs = []
    for run in range(2):
        corpus = world.load()
        cfg = TrainConfig(batch_size=8, total_iters=60, eval_every=30,
                          refresh_every=20, tau=0.1, hard_k=4,
                          learning_rate=0.01, seed=5, val_cap=12, val_beam=8)
        best = train(corpus, cfg, ModelDims(d=16, n_layers=2, n_types=1),
                     MetricsLog())
        path = directory / f"run{run}.rclc"
        save_checkpoint(best, str(path), tau=cfg.tau, seed=cfg.seed)
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1]
    report(10, ok, f"two identical train runs -> bitwise-identical best "
                   f"checkpoints ({len(blobs[0])} bytes each)")


def test_criterion_11_retrieval_throughput():
    rng = np.random.default_rng(8)
    raw = rng.standard_normal((100_000, 256)).astype(np.float32)
    index = CandidateIndex.from_raw_keys(raw)
    queries = rng.standard_normal((15, 256))
    index.query_topk(queries[0], 200)  # warm up
    times = []
    for q in queries:
        t0 = time.perf_counter()
        out = index.query_topk(q, 200)
        times.append(time.perf_counter() - t0)
        assert len(out) == 200
    median_ms = 1000 * sorted(times)[len(times) // 2]
    ok = median_ms <= 50.0
    report(11, ok, f"top-200 over 100k x 256: median {median_ms:.1f} ms "
                   f"(<= 50 ms)")


def test_criterion_12_multi_step_routes(tmp_path_factory):
    directory = tmp_path_factory.mktemp("route_world")
    world = make_route_world(str(directory), seed=3, n_blocks=40,
                             n_intermediates=25, n_targets=50)
    corpus = world.load()
    cfg = TrainConfig(batch_size=16, total_iters=2000, eval_every=1000,
                      refresh_every=1000, tau=0.1, hard_k=4,
                      learning_rate=0.01, seed=0, val_cap=60, val_beam=16)
    params = train(corpus, cfg, ModelDims(d=32, n_layers=3, n_types=1),
                   MetricsLog())
    predictor = Predictor(params, corpus.candidates(),
                          np.array(corpus.candidate_ids),
                          forms=[corpus.form(i) for i in corpus.candidate_ids],
                          beam=50, n_max=3)
    planted = {}
    for line in open(world.reaction_paths["test"], encoding="utf-8"):
        left, right = line.strip().split(">>")
        planted[right] = frozenset(left.split("."))
    recovered = 0
    for smiles, truth in planted.items():
        route = route_search(parse_smiles(smiles), world.building_block_forms,
                             predictor, max_expansions=100, k_per_step=5)
        if (route is not None and route.solved and len(route.steps) == 2
                and frozenset(route.steps[0].reactant_forms) == truth):
            recovered += 1
    rate = 100 * recovered / len(planted)
    ok = rate >= 90.0
    report(12, ok, f"planted two-step routes recovered for {recovered}/"
                   f"{len(planted)} targets ({rate:.0f}% >= 90%) within 100 "
                   f"expansions")
