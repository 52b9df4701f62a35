"""Contrastive training over per-batch candidate sets with hard negatives.

Each step featurizes the batch candidate set in one pass, embeds it inside
the tape (train-mode batch norm over all node rows), chooses reactant orders
with one ``best_order`` call per reactant count, scores the whole batch with
one masked log-softmax pick over one cosine matrix (a query row per backward
selection step and per forward synthesizability check, a key column per
candidate plus the halt key), and applies one clipped SGD update. A step
keeps no per-molecule state for the next. The halt key is a column of that
matrix only, never a row of the candidate index. The candidate index used
for hard-negative mining is rebuilt periodically from the current
parameters; at a step that also validates, it is the validation predictor's
index, so the pool is embedded once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import SgdConfig, Tensor
# The benchmark's tracer looks up ``featurize`` and ``pack`` here (perfbench/layers.py).
from .chem import featurize, featurize_packed, pack  # noqa: F401
from .data import Corpus, MetricsLog, ReactionRecord
from .encoder import ModelDims, ParamStore, embed_graphs, init_params, type_row
from .index import CandidateIndex, hard_neighbors
from .scoring import MAX_PERM_THRESHOLD, best_order, cosine_table


class ReactantNotInCandidates(ValueError):
    pass


HALT_MODES = ("always", "final")
VAL_N_MAX = 4  # most reactants in a set predicted during validation


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-5
    batch_size: int = 64
    clip_norm: float = 5.0
    total_iters: int = 200_000
    eval_every: int = 1000
    refresh_every: int = 1000
    tau: float = 0.1
    hard_k: int = 4
    seed: int = 0
    perm_threshold: int = 5
    # Whether the halt key competes in the backward softmax at every
    # selection step ("always") or only at the final halt step ("final").
    halt_in_denominator: str = field(default="always", metadata={"choices": HALT_MODES})
    val_cap: int = 500
    val_beam: int = 32

    def __post_init__(self):
        # Written as "not in range", so that NaN is rejected too.
        for name in ("batch_size", "clip_norm", "tau"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("eval_every", "refresh_every", "val_cap", "val_beam"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("learning_rate", "momentum", "weight_decay", "total_iters", "hard_k"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0 <= self.perm_threshold <= MAX_PERM_THRESHOLD:
            raise ValueError(f"perm_threshold must be in 0..{MAX_PERM_THRESHOLD}")
        if not 0 <= self.seed < 2**64:  # the checkpoint stores it as a u64
            raise ValueError("seed must be in 0..2**64-1")
        if self.halt_in_denominator not in HALT_MODES:
            raise ValueError("halt_in_denominator must be 'always' or 'final'")


def batch_candidates(batch: list[ReactionRecord], index: CandidateIndex,
                     k: int, embed_query=None) -> list[int]:
    """Sorted batch candidate set: every batch molecule plus its top-k
    embedding neighbors from the pool."""
    base: set[int] = set()
    for record in batch:
        base.update(record.molecule_ids())
    return sorted(base | hard_neighbors(index, sorted(base), k, embed_query))


@dataclass
class EmbedTable:
    """Tape embeddings of the batch candidate set, one row per molecule."""

    ids: list[int]
    f: Tensor
    g: Tensor
    h: Tensor
    row_of: dict[int, int] = field(init=False)

    def __post_init__(self):
        self.row_of = {mol_id: row for row, mol_id in enumerate(self.ids)}


def build_embed_table(candidate_ids: list[int], corpus: Corpus,
                      params: ParamStore) -> EmbedTable:
    """Train-mode (taped) embeddings of the batch candidate set, featurized
    in one pass."""
    feats = featurize_packed([corpus.molecule(i) for i in candidate_ids])
    embeddings = embed_graphs(feats, params, "train")
    return EmbedTable(list(candidate_ids), embeddings["f"], embeddings["g"],
                      embeddings["h"])


def _selection_orders(batch: list[ReactionRecord], table: EmbedTable, params: ParamStore,
                      type_rows: list, tau: float, perm_threshold: int,
                      halt_mode: str) -> list[tuple[int, ...]]:
    """Each record's reactant ids in their detached ``best_order`` on the
    float64 step log-probs the loss picks (keys: the table's h rows, then the
    halt key), one call per reactant count as ``score_sets`` batches sets of
    one size; the loss then follows this active branch of the order max."""
    keys = np.vstack([table.h.data, params.tensors["halt_key"].data]).astype(np.float64)
    products = np.array([table.row_of[r.product_id] for r in batch], dtype=np.intp)
    starts = table.f.data[products].astype(np.float64)
    typed = [owner for owner, row in enumerate(type_rows) if row is not None]
    starts[typed] += params.tensors["type.u"].data[[type_rows[owner] for owner in typed]]
    counts = np.array([len(r.reactant_ids) for r in batch])
    orders = [()] * len(batch)
    for n in np.unique(counts).tolist():
        owners = np.flatnonzero(counts == n)
        ids = np.array([batch[owner].reactant_ids for owner in owners], dtype=np.int64)
        members = np.vectorize(table.row_of.__getitem__, otypes=[np.intp])(ids)
        live = np.ones((owners.size, 1, keys.shape[0]), dtype=bool)  # [m, 1, K]
        live[np.arange(owners.size), 0, products[owners]] = False
        if halt_mode == "final":
            live[..., -1] = False

        def step_scores(queries: np.ndarray) -> np.ndarray:
            scores = np.where(live, cosine_table(queries, keys) / tau, -np.inf)
            high = scores.max(axis=-1, keepdims=True)
            log_z = high + np.log(np.exp(scores - high).sum(axis=-1, keepdims=True))
            return np.take_along_axis(scores, members[:, None, :], axis=-1) - log_z

        positions, _, _ = best_order(starts[owners], table.g.data[members].astype(np.float64),
                                     step_scores, perm_threshold)
        for owner, order in zip(owners.tolist(),
                                np.take_along_axis(ids, positions, axis=1).tolist()):
            orders[owner] = tuple(order)
    return orders


def batch_loss(batch: list[ReactionRecord], table: EmbedTable,
               params: ParamStore, tau: float, perm_threshold: int = 5,
               halt_mode: str = "always", sides=("backward", "forward")):
    """Summed contrastive losses of a batch from one cosine matrix.

    Query rows: each backward selection step of each record (the product's
    f row plus its type.u row minus the g rows already chosen, in the order
    ``_selection_orders`` returns, then the halt step), followed by one
    forward row per record (its reactants' g rows plus its type.v row). Key
    columns: every table row's h, then ``halt_key``. The live mask drops the
    product from its backward rows, the halt key from non-final steps when
    ``halt_mode`` is "final", and the reactants and the halt key from
    forward rows. Returns the negated summed pick as a scalar tensor and the
    detached per-record backward and forward losses (zero for a side left
    out of ``sides``).
    """
    for record in batch:
        missing = [i for i in record.molecule_ids() if i not in table.row_of]
        if missing or record.product_id in record.reactant_ids:
            raise ReactantNotInCandidates(
                f"{record}: molecules {missing} not in candidate set, or the "
                f"product is among the reactants")
    row_of = table.row_of
    halt_col = len(table.ids)
    type_rows = [type_row(params, record.rxn_type) for record in batch]
    # Per source tensor: query rows, source rows and signs of the entries of
    # one sparse matrix, so each source adds one sparse product to the queries.
    sources = {"f": table.f, "g": table.g, "u": params.tensors["type.u"],
               "v": params.tensors["type.v"]}
    terms = {name: ([], [], []) for name in sources}
    targets, dead, owners = [], [], []

    def add_term(name, src_row, query, sign=1.0):
        query_rows, src_rows, signs = terms[name]
        query_rows.append(query)
        src_rows.append(src_row)
        signs.append(sign)

    if "backward" in sides:
        orders = _selection_orders(batch, table, params, type_rows, tau, perm_threshold,
                                   halt_mode)
        for owner, (record, order, u_row) in enumerate(zip(batch, orders, type_rows)):
            product_row = row_of[record.product_id]
            for step in range(len(order) + 1):
                query = len(targets)
                add_term("f", product_row, query)
                if u_row is not None:
                    add_term("u", u_row, query)
                for earlier in order[:step]:
                    add_term("g", row_of[earlier], query, -1.0)
                dead.append((query, product_row))
                final = step == len(order)
                if not final and halt_mode == "final":
                    dead.append((query, halt_col))
                targets.append(halt_col if final else row_of[order[step]])
                owners.append(owner)
    n_backward = len(targets)
    if "forward" in sides:
        for record, v_row in zip(batch, type_rows):
            query = len(targets)
            for reactant in record.reactant_ids:
                add_term("g", row_of[reactant], query)
                dead.append((query, row_of[reactant]))
            if v_row is not None:
                add_term("v", v_row, query)
            dead.append((query, halt_col))
            targets.append(row_of[record.product_id])
    if not targets:
        raise ValueError("batch_loss needs at least one record and one side")

    queries = None
    for name, (query_rows, src_rows, signs) in terms.items():
        if not query_rows:
            continue
        source = sources[name]
        select = ad.SparseMatrix(query_rows, src_rows, (len(targets), source.shape[0]),
                                 signs)
        term = ad.sparse_matmul(select, source)
        queries = term if queries is None else ad.add(queries, term)
    live = np.ones((len(targets), halt_col + 1), dtype=bool)
    dead_rows, dead_cols = zip(*dead)
    live[list(dead_rows), list(dead_cols)] = False
    scores = ad.scale(ad.cosine_matrix(queries, table.h, params.tensors["halt_key"]),
                      1.0 / tau)
    picks = ad.log_softmax_pick(scores, targets, live)
    losses = -picks.data.astype(np.float64)
    loss_b = np.bincount(np.asarray(owners, dtype=np.int64),
                         weights=losses[:n_backward], minlength=len(batch))
    loss_f = losses[n_backward:] if "forward" in sides else np.zeros(len(batch))
    return ad.scale(ad.sum_all(picks), -1.0), loss_b, loss_f


def loss_backward(record: ReactionRecord, table: EmbedTable, params: ParamStore,
                  tau: float, perm_threshold: int = 5,
                  halt_mode: str = "always") -> Tensor:
    """Negated best-order sum of step log-probs of selecting each true
    reactant (then halt) against the candidate keys."""
    return batch_loss([record], table, params, tau, perm_threshold, halt_mode,
                      sides=("backward",))[0]


def loss_forward(record: ReactionRecord, table: EmbedTable, params: ParamStore,
                 tau: float) -> Tensor:
    """Negated log-prob of the true product against candidate products,
    scored by the summed reactant queries (halt is never a product)."""
    return batch_loss([record], table, params, tau, sides=("forward",))[0]


def _anchor_queries(batch: list[ReactionRecord], index: CandidateIndex,
                    corpus: Corpus, params: ParamStore):
    """Eval h-embeddings of the batch's anchors outside the pool (products),
    as a lookup by id: one graph batch on the calling thread, so a step's
    time does not hang on a second CPU being free."""
    anchors = np.array(sorted({i for r in batch for i in r.molecule_ids()}), dtype=np.int64)
    missing = anchors[~index.find_rows(anchors)[1]].tolist()
    feats = featurize_packed([corpus.molecule(i) for i in missing])
    rows = embed_graphs(feats, params, heads=("h",))["h"].data
    return dict(zip(missing, rows)).__getitem__


def train_step(batch: list[ReactionRecord], index: CandidateIndex,
               params: ParamStore, cfg: TrainConfig, corpus: Corpus,
               optimizer: SgdConfig, bundle_cache: dict | None = None) -> dict:
    """One forward/backward/clip/update cycle; returns step metrics.

    Mines the batch candidate set, embeds it on the tape, and takes the
    whole batch's loss from one ``batch_loss`` call; ``loss_b``/``loss_f``
    are per-record means of its detached values. ``bundle_cache`` is not
    used: the train-paper set-up in ``perfbench/workloads.py`` passes it.
    """
    embed_query = (_anchor_queries(batch, index, corpus, params)
                   if cfg.hard_k > 0 else None)
    candidate_ids = batch_candidates(batch, index, cfg.hard_k, embed_query)
    table = build_embed_table(candidate_ids, corpus, params)
    loss, loss_b, loss_f = batch_loss(batch, table, params, cfg.tau,
                                      cfg.perm_threshold, cfg.halt_in_denominator)
    mean_loss = ad.scale(loss, 1.0 / len(batch))
    params.zero_grad()
    ad.backward(mean_loss)
    grads = params.gradients()
    grad_norm = ad.clip_global_norm(grads, cfg.clip_norm)
    ad.sgd_step(params, grads, optimizer)
    params.step += 1
    return {
        "loss_b": float(np.mean(loss_b)),
        "loss_f": float(np.mean(loss_f)),
        "grad_norm": grad_norm,
    }


class _BatchSampler:
    """Seeded shuffled-epoch sampler yielding fixed-size batches."""

    def __init__(self, records: list[ReactionRecord], batch_size: int, seed: int):
        self.records = records
        self.batch_size = min(batch_size, len(records))
        self.rng = np.random.default_rng(seed)
        self.queue: list[int] = []

    def next_batch(self) -> list[ReactionRecord]:
        while len(self.queue) < self.batch_size:
            self.queue.extend(self.rng.permutation(len(self.records)).tolist())
        picks, self.queue = self.queue[:self.batch_size], self.queue[self.batch_size:]
        return [self.records[i] for i in picks]


def train(corpus: Corpus, cfg: TrainConfig, dims: ModelDims | None = None,
          metrics: MetricsLog | None = None,
          checkpoint_path: str | None = None) -> ParamStore:
    """Full training loop; returns the best-validation parameter snapshot."""
    from .data import save_checkpoint
    from .search import Predictor

    dims = dims or ModelDims(n_types=max(corpus.n_types, 1))
    params = init_params(cfg.seed, dims)
    optimizer = SgdConfig(cfg.learning_rate, cfg.momentum,
                          cfg.weight_decay, cfg.clip_norm)
    metrics = metrics or MetricsLog()
    train_records = corpus.reactions.get("train", [])
    if not train_records:
        raise ValueError("corpus has no training reactions")
    if cfg.total_iters == 0:
        return params
    val_records = corpus.reactions.get("val") or train_records
    val_records = val_records[:cfg.val_cap]

    candidates = corpus.candidates()
    candidate_ids = np.asarray(corpus.candidate_ids, dtype=np.int64)
    sampler = _BatchSampler(train_records, cfg.batch_size, cfg.seed)
    index = CandidateIndex.build(params, candidates, candidate_ids)

    best_score = -1.0
    best_params = None
    for step in range(1, cfg.total_iters + 1):
        batch = sampler.next_batch()
        step_metrics = train_step(batch, index, params, cfg, corpus, optimizer)
        refresh = step % cfg.refresh_every == 0 and step < cfg.total_iters
        if step % cfg.eval_every == 0 or step == cfg.total_iters:
            predictor = Predictor(params, candidates, candidate_ids,
                                  forms=[corpus.form(i) for i in corpus.candidate_ids],
                                  beam=cfg.val_beam, n_max=VAL_N_MAX,
                                  perm_threshold=cfg.perm_threshold)
            if refresh:
                index = predictor.index  # the current keys
            predicted = predictor.predict_many(
                [(corpus.molecule(r.product_id), r.rxn_type) for r in val_records], k=1)
            # The corpus interns one id per canonical form, so equal ids are
            # equal sets of forms.
            hits = sum(1 for ranked, record in zip(predicted, val_records)
                       if ranked and ranked[0].reactant_ids == record.reactant_ids)
            val_top1 = hits / max(1, len(val_records))
            step_metrics["val_top1"] = val_top1
            if val_top1 > best_score:
                best_score = val_top1
                best_params = params.copy()
                if checkpoint_path:
                    save_checkpoint(best_params, checkpoint_path,
                                    tau=cfg.tau, seed=cfg.seed)
        elif refresh:
            index = CandidateIndex.build(params, candidates, candidate_ids)
        metrics.log(step=step, **step_metrics)
    return best_params if best_params is not None else params.copy()
