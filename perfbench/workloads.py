"""The benchmark's workloads: seeded set-up, one timed operation, and the
check of that operation's output.

Every workload runs as a closed loop with one client: the next operation
starts only after the previous one has finished and been checked.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

import inputs

# Full sizes follow the paper's dimensions; smoke sizes finish in about a
# second and exercise the same code paths.
SIZES = {
    "train-paper": {
        "full": dict(n_fragments=300, n_reactions=100, d=256, n_layers=5, batch=64),
        "smoke": dict(n_fragments=30, n_reactions=12, d=16, n_layers=2, batch=8),
    },
    "predict-toy": {
        "full": dict(n_fragments=300, n_reactions=100, d=32, n_layers=3, beam=200,
                     products=16),
        "smoke": dict(n_fragments=30, n_reactions=12, d=8, n_layers=1, beam=10,
                      products=4),
    },
    "predict-large-pool": {
        "full": dict(n=100_000, d=256, products=8, beam=200),
        "smoke": dict(n=2_000, d=64, products=2, beam=20),
    },
    "ingest": {
        "full": dict(pool=1500, d=256, n_layers=5),
        "smoke": dict(pool=60, d=16, n_layers=2),
    },
}

N_MAX = 4
TOP_K = 10
SCORE_TOL = 1e-9


def _world_params(rs, seed: int, work_dir: str, size: dict):
    world = rs.toy.make_memorization_world(
        os.path.join(work_dir, "world"), seed=seed,
        n_fragments=size["n_fragments"], n_reactions=size["n_reactions"],
        n_distractors=0)
    corpus = world.load()
    dims = rs.encoder.ModelDims(d=size["d"], n_layers=size["n_layers"],
                                n_types=max(corpus.n_types, 1))
    return corpus, rs.encoder.init_params(seed, dims)


def _check_ranking(rs, ranked, f_p, h_p, g_rows, h_rows, row_of, params,
                   product_id=None) -> list[str]:
    """Rescore every returned set in float64; scores must match and be
    non-increasing, and the product must not be among its own reactants."""
    errors = []
    halt = params.tensors["halt_key"].data
    for pos, scored in enumerate(ranked):
        ids = scored.reactant_ids
        if product_id is not None and product_id in ids:
            errors.append(f"product {product_id} among its reactants {ids}")
            continue
        again = rs.scoring.reaction_score(
            f_p, h_p, {i: g_rows[row_of[i]] for i in ids},
            {i: h_rows[row_of[i]] for i in ids}, halt)
        if abs(again.score - scored.score) > SCORE_TOL:
            errors.append(f"set {ids}: score {scored.score!r} rescored {again.score!r}")
        if pos and scored.score > ranked[pos - 1].score:
            errors.append(f"score rises at rank {pos + 1}")
    if not ranked:
        errors.append("no reactant set returned")
    return errors


class Workload:
    """Set-up, then ``next_input``/``run``/``check`` per operation.

    A run measures whole cycles of ``cycle`` operations. ``parts`` picks
    the per-operation numbers that ``named_metrics`` needs out of an output.
    """

    name = ""
    cycle = 1

    def parts(self, out) -> dict:
        return {}

    def named_metrics(self, state, parts) -> dict:
        return {}


class TrainPaper(Workload):
    """``training.train_step`` at the paper's dimensions on a toy world."""

    name = "train-paper"

    def setup(self, rs, seed, work_dir, size):
        corpus, params = _world_params(rs, seed, work_dir, size)
        cfg = rs.training.TrainConfig(batch_size=size["batch"], hard_k=4, tau=0.1,
                                      seed=seed)
        state = {
            "rs": rs, "corpus": corpus, "params": params, "cfg": cfg,
            "optimizer": rs.autodiff.SgdConfig(cfg.learning_rate, cfg.momentum,
                                               cfg.weight_decay, cfg.clip_norm),
            "index": rs.index.CandidateIndex.build(
                params, corpus.candidates(),
                np.asarray(corpus.candidate_ids, dtype=np.int64)),
            "sampler": rs.training._BatchSampler(corpus.reactions["train"], size["batch"],
                                                 seed),
            "bundle_cache": {},
        }
        self.run(state, self.next_input(state, -1))  # warm-up step
        return state

    def next_input(self, state, i):
        return state["sampler"].next_batch()

    def run(self, state, batch):
        return state["rs"].training.train_step(
            batch, state["index"], state["params"], state["cfg"], state["corpus"],
            state["optimizer"], bundle_cache=state["bundle_cache"])

    def check(self, state, batch, out) -> list[str]:
        errors = [f"{key} = {out[key]!r}" for key in ("loss_b", "loss_f", "grad_norm")
                  if not np.isfinite(out[key])]
        errors += [f"parameter {name} not finite"
                   for name, array in state["params"].state_arrays().items()
                   if not np.isfinite(array).all()]
        return errors


class PredictToy(Workload):
    """``Predictor.predict`` over the first products of a toy world, in turn.

    Products differ in cost, so a run measures whole cycles over the same
    products; otherwise the median would depend on where the run stopped.
    """

    name = "predict-toy"

    def setup(self, rs, seed, work_dir, size):
        corpus, params = _world_params(rs, seed, work_dir, size)
        predictor = rs.search.Predictor(
            params, corpus.candidates(), corpus.candidate_ids,
            forms=[corpus.form(i) for i in corpus.candidate_ids],
            beam=size["beam"], n_max=N_MAX)
        state = {"rs": rs, "corpus": corpus, "params": params,
                 "predictor": predictor,
                 "products": [r.product_id
                              for r in corpus.reactions["train"][:size["products"]]],
                 "row_of": {int(m): r for r, m in enumerate(predictor.index.ids)},
                 "product_keys": {}}
        self.cycle = len(state["products"])
        self.run(state, self.next_input(state, -1))  # warm-up product
        return state

    def next_input(self, state, i):
        products = state["products"]
        return products[i % len(products)]

    def run(self, state, product_id):
        return state["predictor"].predict(state["corpus"].molecule(product_id), TOP_K)

    def check(self, state, product_id, ranked) -> list[str]:
        rs, params, predictor = state["rs"], state["params"], state["predictor"]
        if product_id not in state["product_keys"]:
            mol = state["corpus"].molecule(product_id)
            embs = rs.encoder.embed_graphs(rs.chem.pack([rs.chem.featurize(mol)]),
                                           params, "eval", heads=("f", "h"))
            state["product_keys"][product_id] = (embs["f"].data[0], embs["h"].data[0])
        f_p, h_p = state["product_keys"][product_id]
        own = predictor.id_of_form.get(state["corpus"].form(product_id))
        return _check_ranking(rs, ranked, f_p, h_p, predictor.g_pool,
                              predictor.index.keys, state["row_of"], params, own)


class PredictLargePool(Workload):
    """Beam search plus ranking over a synthetic 100k x 256 raw-key pool."""

    name = "predict-large-pool"

    def setup(self, rs, seed, work_dir, size):
        params = rs.encoder.init_params(
            seed, rs.encoder.ModelDims(d=size["d"], n_layers=1, n_types=1))
        halt = params.tensors["halt_key"].data
        # The index is built before the query rows exist, and the raw keys
        # are dropped after, so set-up peaks below what an operation adds to
        # the pool it leaves behind.
        rng = np.random.default_rng(seed)
        h_raw = inputs.large_pool_keys(rng, size["n"], size["d"])
        index = rs.index.CandidateIndex.from_raw_keys(h_raw, halt_key=halt)
        g_raw, products = inputs.large_pool_queries(rng, h_raw, halt, size["products"])
        del h_raw
        return {"rs": rs, "params": params, "index": index, "g_pool": g_raw,
                "products": products, "beam": size["beam"],
                "row_of": range(size["n"])}  # candidate ids are the rows

    def next_input(self, state, i):
        return state["products"][i % len(state["products"])]

    def run(self, state, product):
        rs = state["rs"]
        _planted, f_p, h_p = product
        hypotheses = rs.search.beam_search(
            None, state["index"], state["params"], state["g_pool"],
            beam=state["beam"], n_max=N_MAX, f_product=f_p)
        return rs.search.rank(None, hypotheses, state["params"], state["index"],
                              state["g_pool"], f_product=f_p, h_product=h_p)[:TOP_K]

    def check(self, state, product, ranked) -> list[str]:
        planted, f_p, h_p = product
        errors = _check_ranking(state["rs"], ranked, f_p, h_p, state["g_pool"],
                                state["index"].keys, state["row_of"], state["params"])
        if planted not in [s.reactant_ids for s in ranked]:
            errors.append(f"planted set {planted} not in the top {TOP_K}")
        return errors


def _write_pool(path: str, lines: list[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(smiles for smiles, _label in lines) + "\n")


def _load_share_by_class(rs, lines: list[tuple[str, str]]) -> dict:
    """Share of parse plus canonicalization time that each group class of
    the pool takes, with its share of the lines, timed one line at a time."""
    seconds: dict[str, float] = {}
    count: dict[str, int] = {}
    for smiles, label in lines:
        start = time.perf_counter()
        rs.chem.canonical_form(rs.chem.parse_smiles(smiles))
        seconds[label] = seconds.get(label, 0.0) + time.perf_counter() - start
        count[label] = count.get(label, 0) + 1
    total = sum(seconds.values())
    return {label: {"lines": count[label] / len(lines),
                    "time": seconds[label] / total}
            for label in sorted(seconds)}


class Ingest(Workload):
    """``data.load_corpus`` over a seeded pool file (parse, canonicalize,
    intern), then ``CandidateIndex.build`` at d=256 over the pool and an RCLX
    ``save_index``/``load_index`` round trip. The two halves are timed apart
    for the report's two rates."""

    name = "ingest"
    n_queries = 8

    def setup(self, rs, seed, work_dir, size):
        lines = inputs.pool_lines(seed, size["pool"])
        path = os.path.join(work_dir, "pool.txt")
        _write_pool(path, lines)
        params = rs.encoder.init_params(
            seed, rs.encoder.ModelDims(d=size["d"], n_layers=size["n_layers"], n_types=1))
        state = {"rs": rs, "path": path, "lines": lines, "n_lines": len(lines),
                 "params": params, "cache": os.path.join(work_dir, "pool.rclx"),
                 "forms": None}
        # Warm up on a fixed small pool, so set-up cost does not depend on
        # which molecules the seed puts first.
        warm = os.path.join(work_dir, "warm.txt")
        _write_pool(warm, inputs.pool_lines(0, 20))
        self.run(state, warm)
        rng = np.random.default_rng(seed)
        state["queries"] = rng.choice(len(lines), size=self.n_queries, replace=False)
        return state

    def next_input(self, state, i):
        return state["path"]

    def run(self, state, path):
        rs = state["rs"]
        start = time.perf_counter()
        corpus = rs.data.load_corpus({}, candidates_path=path)
        loaded_at = time.perf_counter()
        built = rs.index.CandidateIndex.build(
            state["params"], corpus.candidates(),
            np.asarray(corpus.candidate_ids, dtype=np.int64))
        rs.index.save_index(built, state["cache"])
        reloaded = rs.index.load_index(state["cache"])
        parts = {"load_s": loaded_at - start, "build_s": time.perf_counter() - loaded_at,
                 "candidates": built.n_candidates}
        return corpus, built, reloaded, parts

    def parts(self, out) -> dict:
        return out[3]

    def check(self, state, path, out) -> list[str]:
        corpus, built, reloaded, _parts = out
        return self._check_forms(state, corpus) + self._check_index(state, built, reloaded)

    def _check_forms(self, state, corpus) -> list[str]:
        rs = state["rs"]
        if state["forms"] is None:
            state["forms"] = list(corpus.forms)
            return [f"form {form!r} is not stable under re-parse"
                    for form in corpus.forms
                    if rs.chem.canonical_form(rs.chem.parse_smiles(form)) != form]
        if corpus.forms != state["forms"]:
            return ["forms differ from the first pass over the same file"]
        return []

    def _check_index(self, state, built, reloaded) -> list[str]:
        errors = []
        if not (np.array_equal(built.ids, reloaded.ids)
                and np.array_equal(built.keys, reloaded.keys)):
            errors.append("cache round trip changed keys or ids")
        keys64 = built.keys.astype(np.float64)
        norms = np.linalg.norm(keys64, axis=1)
        for row in state["queries"] % built.n_candidates:
            query = keys64[row]
            got = built.query_topk(query, TOP_K)
            denom = np.where(norms < 1e-12, 1.0, norms) * np.linalg.norm(query)
            scores = np.where(norms < 1e-12, 0.0, keys64 @ query / denom)
            order = np.lexsort((built.ids, -scores))[:TOP_K]
            want = [(int(built.ids[r]), float(scores[r])) for r in order]
            # Ids must agree except where two scores tie to the last bit.
            agree = len(got) == len(want) and all(
                abs(gs - ws) <= SCORE_TOL and (gi == wi or abs(gs - ws) <= 1e-15)
                for (gi, gs), (wi, ws) in zip(got, want))
            if not agree:
                errors.append(f"query row {row}: top-k {got} != naive scan {want}")
        return errors

    def named_metrics(self, state, parts):
        load_s = statistics.median(p["load_s"] for p in parts)
        build_s = statistics.median(p["build_s"] for p in parts)
        return {"ingest_mol_per_s": state["n_lines"] / load_s,
                "index_build_mol_per_s": parts[-1]["candidates"] / build_s,
                "load_share_by_class": _load_share_by_class(state["rs"], state["lines"])}


WORKLOADS = {w.name: w for w in (TrainPaper, PredictToy, PredictLargePool, Ingest)}
