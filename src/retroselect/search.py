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
cosine, then ascending id). Each round banks the id sets of its live
hypotheses, and only those: one lexsort over the sorted id rows makes a
block of distinct sets (``Banked``). ``rank`` scores every banked set
from its ids alone by the full permutation-maximized overall score, one
batched ``scoring.score_sets`` call per block, orders all sets with one
lexsort and builds ``ScoredSet`` records only for the top ``k``.
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
                      reaction_score, score_sets)


@dataclass(frozen=True)
class Banked:
    """Reactant sets reached by one beam search, one block per round: an
    [m, n] array of m distinct id sets of size n, each row in ascending id
    order and the rows in ascending order."""

    blocks: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return sum(ids.shape[0] for ids in self.blocks)


def beam_search(product: Molecule | None, index: CandidateIndex, params: ParamStore,
                g_pool: np.ndarray, beam: int = 200, n_max: int = 4,
                rxn_type: int | None = None,
                exclude_ids: set[int] | None = None,
                f_product: np.ndarray | None = None) -> Banked:
    """Id sets of the hypotheses live at each round for one product, from
    the empty set up to size ``n_max``, one block of distinct sets per round.

    ``g_pool`` holds raw reactant-query embeddings aligned with the index
    candidate rows. The product's own pool id (if any) must be passed in
    ``exclude_ids``; chosen ids are excluded from later rounds, and so is the
    index's halt row. ``f_product`` is the product-query embedding if the
    caller already has it; otherwise it is embedded from ``product``.
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

    excluded_rows, present = index.find_rows(list(exclude_ids or ()))
    blocked = np.append(index.row_of(HALT_ID), excluded_rows[present])
    # The beam, one line per live hypothesis: chosen key rows in selection
    # order, running query and running score sum.
    chosen = np.empty((1, 0), dtype=np.int64)
    queries = query[None, :]
    cum = np.zeros(1)
    blocks = [index.ids[chosen]]  # the empty set
    for _ in range(n_max):
        excluded = np.hstack([np.broadcast_to(blocked, (cum.shape[0], blocked.shape[0])),
                              chosen])
        hyp, rows, cum = index.topk_pairs(queries, cum, beam, excluded)
        if hyp.size == 0:
            break
        queries = queries[hyp] - g_pool[rows].astype(np.float64)
        chosen = np.hstack([chosen[hyp], rows[:, None]])
        # The round's distinct id sets: one lexsort of the sorted rows, then
        # each row compared with the one before (a few times faster than
        # ``np.unique(axis=0)``, which sorts the rows as structured records).
        sets = np.sort(index.ids[chosen], axis=1)
        sets = sets[np.lexsort(sets.T[::-1])]
        blocks.append(sets[np.append(True, np.any(sets[1:] != sets[:-1], axis=1))])
    return Banked(tuple(blocks))


def rank(product: Molecule | None, banked: Banked, params: ParamStore,
         index: CandidateIndex, g_pool: np.ndarray,
         rxn_type: int | None = None, perm_threshold: int = 5,
         f_product: np.ndarray | None = None,
         h_product: np.ndarray | None = None,
         k: int | None = None) -> list[ScoredSet]:
    """Score banked sets with the overall reaction score and sort
    descending; ties prefer fewer reactants, then lexicographic ids. Each
    block is scored in one batched call, each set exactly as
    ``reaction_score`` scores it alone; all sets are then ordered by one
    lexsort, and records are built for the first ``k`` only (all if ``k``
    is None)."""
    if f_product is None or h_product is None:
        embs = embed_graphs(pack([featurize(product)]), params, "eval",
                            heads=("f", "h"))
        f_product = embs["f"].data[0] if f_product is None else f_product
        h_product = embs["h"].data[0] if h_product is None else h_product
    halt_key = params.tensors["halt_key"].data
    u_bias = type_bias(params, "u", rxn_type)
    v_bias = type_bias(params, "v", rxn_type)
    width = max(ids.shape[1] for ids in banked.blocks)
    # Ids right-padded with zeros: ranking compares ids only within one size.
    sets = np.zeros((len(banked), width), dtype=np.int64)
    best_orders = np.zeros_like(sets)
    sizes = np.zeros(len(banked), dtype=np.int64)
    scores = np.zeros(len(banked))
    end = 0
    for ids in banked.blocks:
        start, end = end, end + ids.shape[0]
        n = ids.shape[1]
        rows = index.rows_of(ids)
        scores[start:end], orders = score_sets(f_product, h_product, g_pool[rows],
                                               index.keys[rows], halt_key, u_bias,
                                               v_bias, perm_threshold)
        sets[start:end, :n] = ids
        best_orders[start:end, :n] = np.take_along_axis(ids, orders, axis=1)
        sizes[start:end] = n
    top = np.lexsort((*sets.T[::-1], sizes, -scores))[:k]
    return [ScoredSet(tuple(ids[:n]), value, tuple(order[:n])) for ids, order, n, value
            in zip(sets[top].tolist(), best_orders[top].tolist(), sizes[top].tolist(),
                   scores[top].tolist())]


class Predictor:
    """Read-only prediction engine over one parameter/index snapshot. The
    key index (halt row appended) and ``g_pool`` come from one trunk pass
    over ``candidates``; with a given ``index`` (e.g. from an RCLX cache) of
    their current keys, only ``g_pool`` is embedded."""

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
            h_rows, self.g_pool = embed_matrix(candidates, params, ("h", "g"))
            self.index = CandidateIndex.from_raw_keys(
                h_rows, self.candidate_ids, halt_key=params.tensors["halt_key"].data)
        else:
            self.index = index.with_halt(params)
            (self.g_pool,) = embed_matrix(candidates, params, ("g",))
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
        banked = beam_search(product, self.index, self.params, self.g_pool,
                             beam=self.beam, n_max=self.n_max,
                             rxn_type=rxn_type, exclude_ids=exclude,
                             f_product=f_product)
        return rank(product, banked, self.params, self.index, self.g_pool,
                    rxn_type=rxn_type, perm_threshold=self.perm_threshold,
                    f_product=f_product, h_product=h_product, k=k)

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
