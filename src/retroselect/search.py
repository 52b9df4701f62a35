"""Beam-search prediction of ranked reactant sets and multi-step routes.

Beam search selects candidates sequentially by the backward score against
the key index. The beam is held as arrays (chosen rows, running queries and
score sums, one line per live hypothesis), and each round is one
``CandidateIndex.topk_pairs`` call over all live hypotheses: a blocked
float32 scan of running sum plus cosine against one top-``beam`` floor
(each hypothesis's cosines are compared once with the floor less its
running sum), with the few pairs near it rescored in float64, so score
memory is O(live x block) and the round keeps exactly the float64 top
``beam`` extensions (each hypothesis offering its own top ``beam`` by
cosine, then ascending id). Every live hypothesis is banked at every round
with the float64 cosine of its query against the halt key, and banked
hypotheses are deduplicated as id sets. ``rank`` re-ranks them by the full
permutation-maximized overall score, one batched ``scoring.score_sets``
call per set size.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .chem import Molecule, canonical_form, featurize, pack
from .encoder import ParamStore, embed_graphs, embed_matrix, type_bias
from .index import HALT_ID, CandidateIndex, EmptyIndex
# ``cosine64`` and ``reaction_score`` are looked up here by the benchmark's
# tracer (perfbench/layers.py), so they stay importable from this module.
from .scoring import (MAX_PERM_THRESHOLD, ScoredSet, cosine64,  # noqa: F401
                      pair_cosines, reaction_score, score_sets)


@dataclass
class Hypothesis:
    """Partial reactant selection: chosen ids, running query, score sum."""

    chosen: tuple[int, ...]
    query: np.ndarray       # float64: f(P) (+u bias) minus the chosen g rows
    cum_psi: float


def beam_search(product: Molecule | None, index: CandidateIndex, params: ParamStore,
                g_pool: np.ndarray, beam: int = 200, n_max: int = 4,
                rxn_type: int | None = None,
                exclude_ids: set[int] | None = None,
                f_product: np.ndarray | None = None) -> list[Hypothesis]:
    """Completed hypotheses for one product, deduplicated as id sets.

    ``g_pool`` holds raw reactant-query embeddings aligned with the index
    candidate rows. The product's own pool id (if any) must be passed in
    ``exclude_ids``; chosen ids are excluded from later rounds. Hypotheses
    still live at depth ``n_max`` are finalized with a forced halt term.
    ``f_product`` is the product-query embedding if the caller already has
    it; otherwise it is embedded from ``product``.
    """
    if not index.includes_halt:
        raise ValueError("beam search needs an index built with the halt key")
    if index.keys.shape[0] == 0 or index.n_candidates == 0:
        raise EmptyIndex("empty candidate index")
    if beam < 1 or n_max < 1:
        raise ValueError("beam and n_max must be >= 1")
    if g_pool.shape[0] != index.n_candidates:
        raise ValueError("g_pool rows must match index candidates")

    if f_product is None:
        f_embs = embed_graphs(pack([featurize(product)]), params, "eval", heads=("f",))
        f_product = f_embs["f"].data[0]
    query = np.asarray(f_product, dtype=np.float64).copy()
    u_bias = type_bias(params, "u", rxn_type)
    if u_bias is not None:
        query += np.asarray(u_bias, dtype=np.float64)

    halt_key = np.asarray(params.tensors["halt_key"].data, dtype=np.float64)
    excluded_rows, present = index.find_rows(list(exclude_ids or ()))
    blocked = np.append(index.row_of(HALT_ID), excluded_rows[present])
    # The beam, one line per live hypothesis: chosen key rows in selection
    # order, running query and running score sum.
    chosen = np.empty((1, 0), dtype=np.int64)
    queries = query[None, :]
    cum = np.zeros(1)
    banked: list[Hypothesis] = []
    for depth in range(n_max + 1):
        banked += _banked(index.ids[chosen], queries, cum + pair_cosines(queries, halt_key))
        if depth == n_max:
            break  # depth cap: the halt step above was forced
        excluded = np.hstack([np.broadcast_to(blocked, (cum.shape[0], blocked.shape[0])),
                              chosen])
        hyp, rows, cum = index.topk_pairs(queries, cum, beam, excluded)
        if hyp.size == 0:
            break
        queries = queries[hyp] - g_pool[rows].astype(np.float64)
        chosen = np.hstack([chosen[hyp], rows[:, None]])
    return banked


def _banked(chosen_ids: np.ndarray, queries: np.ndarray,
            totals: np.ndarray) -> list[Hypothesis]:
    """Finished hypotheses of one round, one per distinct id set: the one
    with the highest total (the earliest on ties), in order of each set's
    first appearance. Sets of different rounds differ in size, so rounds
    never share a set."""
    _, first, group = np.unique(np.sort(chosen_ids, axis=1), axis=0,
                                return_index=True, return_inverse=True)
    by_group = np.lexsort((-totals, group))
    best = by_group[np.searchsorted(group[by_group], np.arange(first.shape[0]))]
    best = best[np.argsort(first)]
    return [Hypothesis(tuple(ids), query, total)
            for ids, query, total in zip(chosen_ids[best].tolist(), queries[best],
                                         totals[best].tolist())]


def rank(product: Molecule | None, hypotheses: list[Hypothesis], params: ParamStore,
         index: CandidateIndex, g_pool: np.ndarray,
         rxn_type: int | None = None, perm_threshold: int = 5,
         f_product: np.ndarray | None = None,
         h_product: np.ndarray | None = None) -> list[ScoredSet]:
    """Rescore completed hypotheses with the overall reaction score and sort
    descending; ties prefer fewer reactants, then lexicographic ids. Sets of
    one size are scored in one batched call, each exactly as
    ``reaction_score`` scores it alone."""
    if f_product is None or h_product is None:
        embs = embed_graphs(pack([featurize(product)]), params, "eval",
                            heads=("f", "h"))
        f_product = embs["f"].data[0] if f_product is None else f_product
        h_product = embs["h"].data[0] if h_product is None else h_product
    halt_key = params.tensors["halt_key"].data
    u_bias = type_bias(params, "u", rxn_type)
    v_bias = type_bias(params, "v", rxn_type)
    by_size: dict[int, list[list[int]]] = {}
    for hyp in hypotheses:
        by_size.setdefault(len(hyp.chosen), []).append(sorted(hyp.chosen))
    scored = []
    for n, sets in by_size.items():
        ids = np.array(sets, dtype=np.int64).reshape(len(sets), n)
        rows = index.rows_of(ids)
        scores, orders = score_sets(f_product, h_product, g_pool[rows], index.keys[rows],
                                    halt_key, u_bias, v_bias, perm_threshold)
        best_ids = np.take_along_axis(ids, orders, axis=1)
        scored += [ScoredSet(tuple(s), value, tuple(order)) for s, value, order
                   in zip(ids.tolist(), scores.tolist(), best_ids.tolist())]
    scored.sort(key=lambda s: (-s.score, len(s.reactant_ids), s.reactant_ids))
    return scored


class Predictor:
    """Read-only prediction engine over one parameter/index snapshot."""

    def __init__(self, params: ParamStore, candidates: list[Molecule],
                 candidate_ids=None, forms: list[str] | None = None,
                 index: CandidateIndex | None = None,
                 beam: int = 200, n_max: int = 4, perm_threshold: int = 5):
        if not 0 <= perm_threshold <= MAX_PERM_THRESHOLD:
            raise ValueError(f"perm_threshold must be in 0..{MAX_PERM_THRESHOLD}")
        self.params = params
        if candidate_ids is None:
            candidate_ids = np.arange(len(candidates), dtype=np.int64)
        self.candidate_ids = np.asarray(candidate_ids, dtype=np.int64)
        if index is None:
            index = CandidateIndex.build(params, candidates, self.candidate_ids)
        self.index = index.with_halt(params)
        self.g_pool = embed_matrix(candidates, params, "g")
        self.forms = forms if forms is not None \
            else [canonical_form(m) for m in candidates]
        self.id_of_form = {form: int(mol_id)
                           for form, mol_id in zip(self.forms, self.candidate_ids)}
        self.form_of_id = {int(mol_id): form
                           for form, mol_id in zip(self.forms, self.candidate_ids)}
        self.beam = beam
        self.n_max = n_max
        self.perm_threshold = perm_threshold

    def predict(self, product: Molecule, k: int,
                rxn_type: int | None = None) -> list[ScoredSet]:
        """Top-k scored reactant sets for one product."""
        exclude = set()
        own_id = self.id_of_form.get(canonical_form(product))
        if own_id is not None:
            exclude.add(own_id)
        embs = embed_graphs(pack([featurize(product)]), self.params, "eval",
                            heads=("f", "h"))
        f_product, h_product = embs["f"].data[0], embs["h"].data[0]
        hypotheses = beam_search(product, self.index, self.params, self.g_pool,
                                 beam=self.beam, n_max=self.n_max,
                                 rxn_type=rxn_type, exclude_ids=exclude,
                                 f_product=f_product)
        ranked = rank(product, hypotheses, self.params, self.index, self.g_pool,
                      rxn_type=rxn_type, perm_threshold=self.perm_threshold,
                      f_product=f_product, h_product=h_product)
        return ranked[:k]

    def predict_forms(self, product: Molecule, k: int,
                      rxn_type: int | None = None) -> list[tuple[str, ...]]:
        """Top-k reactant sets as sorted canonical SMILES tuples."""
        return [tuple(sorted(self.form_of_id[i] for i in s.reactant_ids))
                for s in self.predict(product, k, rxn_type)]


# --- multi-step route search ---

@dataclass
class RouteStep:
    product_form: str
    reactant_forms: tuple[str, ...]
    score: float


@dataclass
class RouteNode:
    """Best-first search node: molecules still to synthesize plus the
    reactions chosen so far; cost is the sum of per-reaction (1 - score)."""

    open_forms: frozenset
    steps: tuple[RouteStep, ...] = ()
    cost: float = 0.0

    @property
    def solved(self) -> bool:
        return not self.open_forms


def route_search(product: Molecule, building_blocks: set[str],
                 predictor: Predictor, max_expansions: int = 100,
                 k_per_step: int = 5) -> RouteNode | None:
    """Best-first multi-step search down to building blocks.

    ``building_blocks`` holds canonical forms available as starting
    materials (must be a subset of the predictor's candidate pool). Each
    expansion replaces the lexicographically first open molecule with the
    reactant sets proposed for it; returns the solved node or None after
    ``max_expansions`` expansions.
    """
    product_form = canonical_form(product)
    start_open = frozenset() if product_form in building_blocks \
        else frozenset([product_form])
    counter = 0
    heap: list[tuple[float, int, RouteNode]] = []
    heapq.heappush(heap, (0.0, counter, RouteNode(start_open)))
    visited: set[frozenset] = set()
    expansions = 0
    while heap:
        cost, _, node = heapq.heappop(heap)
        if node.solved:
            return node
        if node.open_forms in visited:
            continue
        if expansions >= max_expansions:
            # Budget spent: keep draining for already-found solved nodes.
            continue
        visited.add(node.open_forms)
        expansions += 1
        target_form = min(node.open_forms)
        mol = _molecule_for(target_form)
        for scored in predictor.predict(mol, k_per_step):
            forms = tuple(sorted(predictor.form_of_id[i]
                                 for i in scored.reactant_ids))
            new_open = set(node.open_forms)
            new_open.discard(target_form)
            new_open.update(f for f in forms if f not in building_blocks)
            child = RouteNode(
                frozenset(new_open),
                node.steps + (RouteStep(target_form, forms, scored.score),),
                node.cost + (1.0 - scored.score))
            if child.open_forms not in visited:
                counter += 1
                heapq.heappush(heap, (child.cost, counter, child))
    return None


def _molecule_for(form: str) -> Molecule:
    from .chem import parse_smiles
    return parse_smiles(form, allow_fragments=True)
