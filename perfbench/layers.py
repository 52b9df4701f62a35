"""What the traced run wraps, and the per-layer metrics it reports.

Each metric names the end-to-end metric it should move and on which
workload; ``op_ms_p50`` is the median time of one operation: a train step,
a product, or a load of the pool file followed by an index build with its
cache round trip. Per-operation values are averaged over the traced
operations of the measured window; ``setup.*`` values cover one set-up.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from tracing import Target

LAYERS = ("chem", "data", "encoder", "autodiff", "training", "index", "scoring",
          "search")
# Set-up also generates toy worlds, which the measured operations never do.
SETUP_LAYERS = LAYERS + ("toy",)

# Bytes per element of the beam's score matrix: it is computed in float32
# and then copied to float64, and both copies are alive at once.
_SCORE_BYTES = 4 + 8


def _count_tape(tracer, args):
    seen = set()
    stack = [args["loss"]]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(p for p in getattr(node, "_parents", ()) if p.requires_grad)
    tracer.count("autodiff.tape_nodes", len(seen))


def _beam_counts(tracer, args, result):
    tracer.count("search.hypotheses_banked", len(result))
    index = args["index"]
    rows = min(args["beam"], index.n_candidates) if args["n_max"] > 1 else 1
    tracer.record_max("search.score_matrix_bytes",
                      rows * index.keys.shape[0] * _SCORE_BYTES)


def _corpus_stats(tracer, args, corpus):
    for key in ("parse_errors", "duplicates_dropped", "self_product_dropped"):
        tracer.record_latest(f"data.{key}", corpus.stats.get(key, 0))


def targets(rs) -> list[Target]:
    """Every wrapped function with each attribute its callers use."""
    chem, data, encoder, autodiff = rs.chem, rs.data, rs.encoder, rs.autodiff
    training, index, scoring, search, toy = (rs.training, rs.index, rs.scoring,
                                             rs.search, rs.toy)
    parser = rs.chem.parser
    candidate_index = index.CandidateIndex
    return [
        Target("chem.parse_smiles", [(chem, "parse_smiles"), (parser, "parse_smiles"),
                                     (data, "parse_smiles")]),
        Target("chem.canonical_form", [(chem, "canonical_form"), (data, "canonical_form"),
                                       (search, "canonical_form"), (toy, "canonical_form")]),
        Target("chem.featurize", [(chem, "featurize"), (encoder, "featurize"),
                                  (training, "featurize"), (search, "featurize")]),
        Target("chem.pack", [(chem, "pack"), (encoder, "pack"), (training, "pack"),
                             (search, "pack")],
               after=lambda t, a, r: t.count("chem.clamp_warnings", r.clamp_warnings)),
        Target("data.load_corpus", [(data, "load_corpus"), (toy, "load_corpus")],
               after=_corpus_stats),
        Target("toy.make_memorization_world", [(toy, "make_memorization_world")]),
        Target("encoder.embed_nodes", [(encoder, "embed_nodes")],
               after=lambda t, a, r: t.count("encoder.atoms_embedded",
                                             a["feats"].atom_features.shape[0])),
        Target("encoder.head_embeddings", [(encoder, "head_embeddings")]),
        Target("encoder.embed_graphs", [(encoder, "embed_graphs"),
                                        (training, "embed_graphs"),
                                        (search, "embed_graphs")]),
        Target("encoder.embed_matrix", [(encoder, "embed_matrix"),
                                        (search, "embed_matrix")]),
        Target("encoder.embed_pool", [(encoder, "embed_pool"), (index, "embed_pool")]),
        Target("autodiff.backward", [(autodiff, "backward")], before=_count_tape),
        Target("autodiff.clip_global_norm", [(autodiff, "clip_global_norm")]),
        Target("autodiff.sgd_step", [(autodiff, "sgd_step")]),
        Target("training.train_step", [(training, "train_step")]),
        Target("training.batch_candidates", [(training, "batch_candidates")],
               after=lambda t, a, r: t.count("training.candidate_set_size", len(r))),
        Target("training.build_embed_table", [(training, "build_embed_table")]),
        Target("training.loss_backward", [(training, "loss_backward")]),
        Target("training.loss_forward", [(training, "loss_forward")]),
        Target("index.build", [(candidate_index, "build")]),
        Target("index.from_raw_keys", [(candidate_index, "from_raw_keys")]),
        Target("index.query_topk", [(candidate_index, "query_topk")]),
        Target("index.hard_neighbors", [(index, "hard_neighbors"),
                                        (training, "hard_neighbors")]),
        Target("index.save_index", [(index, "save_index")]),
        Target("index.load_index", [(index, "load_index")]),
        Target("scoring.reaction_score", [(scoring, "reaction_score"),
                                          (search, "reaction_score")]),
        Target("scoring.cosine64", [(scoring, "cosine64"), (search, "cosine64")],
               timed=False),
        Target("search.Predictor", [(search.Predictor, "__init__")]),
        Target("search.Predictor.predict", [(search.Predictor, "predict")]),
        Target("search.beam_search", [(search, "beam_search")], after=_beam_counts),
        Target("search.rank", [(search, "rank")]),
    ]


# Getters read one traced run: ``op`` and ``setup`` are Tracer summaries,
# ``n`` the number of traced operations.
def _span_s(stem):
    return lambda r: r.op["spans"].get(stem, {}).get("s", 0.0) / r.n


def _calls(stem):
    return lambda r: r.op["spans"].get(stem, {}).get("calls", 0) / r.n


def _per_op(name):
    return lambda r: r.op["counts"].get(name, 0) / r.n


def _latest(name):
    return lambda r: r.tracer.latest.get(name, 0)


def _mean_set_size(r):
    calls = r.op["spans"].get("training.batch_candidates", {}).get("calls", 0)
    return r.op["counts"].get("training.candidate_set_size", 0) / calls if calls else 0.0


def _overhead_ms(r):
    return (statistics.median(r.traced_s) - statistics.median(r.untraced_s)) * 1e3


_TRAIN = "op_ms_p50 on train-paper"
_INGEST = "op_ms_p50 on ingest (load half, ingest_mol_per_s)"
_BUILD = "op_ms_p50 on ingest (build half, index_build_mol_per_s)"
_BOTH = _TRAIN + " and " + _BUILD
_CACHED = "; barely on train-paper (bundle cache)"
# (name, unit, the end-to-end metric it should move and where, getter).
PER_LAYER = [
    ("chem.parse_smiles.s", "s/op", _INGEST, _span_s("chem.parse_smiles")),
    ("chem.canonical_form.s", "s/op", _INGEST + "; flat elsewhere (cached on the molecule)",
     _span_s("chem.canonical_form")),
    ("chem.canonical_form.calls", "count/op", _INGEST, _calls("chem.canonical_form")),
    ("chem.canonical_form.max_ms", "ms", _INGEST,
     lambda r: r.op["spans"].get("chem.canonical_form", {}).get("max_s", 0.0) * 1e3),
    ("chem.featurize.s", "s/op", _BUILD + _CACHED, _span_s("chem.featurize")),
    ("chem.pack.s", "s/op", _BUILD + _CACHED, _span_s("chem.pack")),
    ("chem.clamp_warnings", "count/op", _BUILD + _CACHED, _per_op("chem.clamp_warnings")),
    ("data.load_corpus.s", "s/op", _INGEST, _span_s("data.load_corpus")),
    ("data.parse_errors", "count", "Corpus.stats of the last load",
     _latest("data.parse_errors")),
    ("data.duplicates_dropped", "count", "Corpus.stats of the last load",
     _latest("data.duplicates_dropped")),
    ("data.self_product_dropped", "count", "Corpus.stats of the last load",
     _latest("data.self_product_dropped")),
    ("encoder.embed_nodes.s", "s/op", _BOTH, _span_s("encoder.embed_nodes")),
    ("encoder.head_embeddings.s", "s/op", _BOTH, _span_s("encoder.head_embeddings")),
    ("encoder.embed_graphs.calls", "count/op", _BOTH, _calls("encoder.embed_graphs")),
    ("encoder.atoms_embedded", "count/op", _BOTH, _per_op("encoder.atoms_embedded")),
    ("autodiff.backward.s", "s/op", _TRAIN, _span_s("autodiff.backward")),
    ("autodiff.tape_nodes", "count/op", _TRAIN, _per_op("autodiff.tape_nodes")),
    ("autodiff.clip_global_norm.s", "s/op", _TRAIN, _span_s("autodiff.clip_global_norm")),
    ("autodiff.sgd_step.s", "s/op", _TRAIN, _span_s("autodiff.sgd_step")),
    ("training.batch_candidates.s", "s/op", _TRAIN, _span_s("training.batch_candidates")),
    ("training.candidate_set_size", "count", _TRAIN + " (mean molecules per batch)",
     _mean_set_size),
    ("training.build_embed_table.s", "s/op", _TRAIN, _span_s("training.build_embed_table")),
    ("training.loss_backward.s", "s/op", _TRAIN, _span_s("training.loss_backward")),
    ("training.loss_forward.s", "s/op", _TRAIN, _span_s("training.loss_forward")),
    ("index.query_topk.calls", "count/op", _TRAIN, _calls("index.query_topk")),
    ("index.query_topk.s", "s/op", _TRAIN, _span_s("index.query_topk")),
    ("index.hard_neighbors.s", "s/op", _TRAIN, _span_s("index.hard_neighbors")),
    ("index.build.s", "s/op", _BUILD + "; setup_s elsewhere (setup.index.self_s)",
     _span_s("index.build")),
    ("index.save_index.s", "s/op", _BUILD, _span_s("index.save_index")),
    ("index.load_index.s", "s/op", _BUILD, _span_s("index.load_index")),
    ("scoring.reaction_score.calls", "count/op", "op_ms_p50 on predict-toy",
     _calls("scoring.reaction_score")),
    ("scoring.reaction_score.s", "s/op",
     "op_ms_p50 on predict-toy; barely on predict-large-pool",
     _span_s("scoring.reaction_score")),
    ("scoring.cosine64.calls", "count/op", "op_ms_p50 on predict-toy",
     _per_op("scoring.cosine64.calls")),
    ("search.beam_search.s", "s/op", "op_ms_p50 on predict-large-pool",
     _span_s("search.beam_search")),
    ("search.rank.s", "s/op", "op_ms_p50 on predict-toy; none on train-paper",
     _span_s("search.rank")),
    ("search.hypotheses_banked", "count/op", "op_ms_p50 on both predict workloads",
     _per_op("search.hypotheses_banked")),
    ("search.score_matrix_bytes", "bytes",
     "peak_rss_mb on predict-large-pool; computed from array sizes, not measured",
     lambda r: r.op["maxima"].get("search.score_matrix_bytes", 0)),
]
PER_LAYER += [(f"{layer}.self_s", "s/op", "op_ms_p50 where the layer runs",
               (lambda layer: lambda r: r.op["layer_self_s"].get(layer, 0.0) / r.n)(layer))
              for layer in LAYERS]
PER_LAYER += [
    ("trace.uncovered_s", "s/op", "time inside operations outside every span",
     lambda r: r.op["uncovered_s"] / r.n),
    ("trace.overhead_ms", "ms", "traced minus untraced op_ms_p50 within the run",
     _overhead_ms),
]
PER_LAYER += [(f"setup.{layer}.self_s", "s", "setup_s",
               (lambda layer: lambda r: r.setup["layer_self_s"].get(layer, 0.0))(layer))
              for layer in SETUP_LAYERS]
PER_LAYER += [("setup.uncovered_s", "s", "setup_s", lambda r: r.setup["uncovered_s"])]


@dataclass
class TracedRun:
    tracer: object
    traced_s: list[float]
    untraced_s: list[float]

    def __post_init__(self):
        self.op = self.tracer.summary("op")
        self.setup = self.tracer.summary("setup")
        self.n = max(self.op["roots"], 1)


def per_layer_values(tracer, traced_s: list[float], untraced_s: list[float]) -> dict:
    """Every PER_LAYER metric from one traced run."""
    run = TracedRun(tracer, traced_s, untraced_s)
    return {name: get(run) for name, _unit, _moves, get in PER_LAYER}
