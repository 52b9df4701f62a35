"""Reaction scoring: backward selection score, forward synthesizability
score, and the permutation-maximized overall score.

The overall score of a product P against a reactant set of size n averages
n+2 cosines: the best-order sum of per-step selection scores (halt step
last), plus the forward score. It is therefore bounded in [-1, 1] and
independent of the order and number of reactants. All arithmetic here is
float64 over eval-mode embeddings.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

ZERO_NORM_EPS = 1e-12
PERM_THRESHOLD = 5
# The exhaustive order table holds n! x n positions: 40,320 x 8 at 8.
MAX_PERM_THRESHOLD = 8


class ProductInReactants(ValueError):
    pass


def cosine64(a: np.ndarray, b: np.ndarray) -> float:
    """Float64 cosine with the zero-norm-gives-zero convention."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < ZERO_NORM_EPS or nb < ZERO_NORM_EPS:
        return 0.0
    return float(a @ b) / (na * nb)


@dataclass
class ScoredSet:
    reactant_ids: tuple[int, ...]   # sorted
    score: float
    best_order: tuple[int, ...]     # order achieving the selection-score maximum


def cosine_table(queries: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Float64 cosines of every query row with every key row, ``[m, k]``,
    with the zero-norm-gives-zero convention."""
    q_norms = np.linalg.norm(queries, axis=1)
    k_norms = np.linalg.norm(keys, axis=1)
    live = (q_norms >= ZERO_NORM_EPS)[:, None] & (k_norms >= ZERO_NORM_EPS)[None, :]
    denom = np.where(live, np.outer(q_norms, k_norms), 1.0)
    return np.where(live, (queries @ keys.T) / denom, 0.0)


@functools.lru_cache(maxsize=MAX_PERM_THRESHOLD + 1)
def _orders(n: int) -> np.ndarray:
    """All orders of ``range(n)`` as read-only rows, in lexicographic
    order."""
    orders = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    orders.flags.writeable = False
    return orders


def best_order(start: np.ndarray, g: np.ndarray, score,
               perm_threshold: int) -> tuple[tuple[int, ...], float, np.ndarray]:
    """Order of the ``g`` rows maximizing the summed step scores.

    The query after choosing a subset is ``start`` minus the ``g`` rows of
    that subset; ``score(queries [m, d]) -> [m, n]`` gives the step score of
    choosing each member from each query. Exhaustive for n <= perm_threshold
    (every subset query is scored in one call, every order is summed step by
    step, left to right, and the first maximum keeps the lexicographically
    smallest order); greedy beyond (ties to the smaller position). Returns
    the positions, their summed score and the query after all n members.
    """
    n = g.shape[0]
    if not 0 <= perm_threshold <= MAX_PERM_THRESHOLD:
        raise ValueError(f"perm_threshold must be in 0..{MAX_PERM_THRESHOLD}")
    if n > perm_threshold:
        order, total, query = [], 0.0, start
        remaining = list(range(n))
        while remaining:
            step = score(query[None, :])[0]
            pick = remaining.pop(int(np.argmax(step[remaining])))
            total += float(step[pick])
            query = query - g[pick]
            order.append(pick)
        return tuple(order), total, query
    # queries[s] is start minus the g rows of the bits of s, ascending.
    queries = np.empty((1 << n, start.shape[0]))
    queries[0] = start
    for i in range(n):
        queries[1 << i:2 << i] = queries[:1 << i] - g[i]
    steps = score(queries)
    orders = _orders(n)
    totals = np.zeros(orders.shape[0])
    taken = np.zeros(orders.shape[0], dtype=np.intp)
    for column in orders.T:
        totals += steps[taken, column]
        taken |= 1 << column
    best = int(np.argmax(totals))
    return tuple(orders[best].tolist()), float(totals[best]), queries[-1]


def phi(reactant_g_embeddings, product_h: np.ndarray,
        v_bias: np.ndarray | None = None) -> float:
    """Forward synthesizability score: cosine of summed reactant queries
    (plus optional type bias) with the product key."""
    total = np.zeros(np.asarray(product_h).shape[0], dtype=np.float64)
    for vec in reactant_g_embeddings:
        total += np.asarray(vec, dtype=np.float64)
    if v_bias is not None:
        total += np.asarray(v_bias, dtype=np.float64)
    return cosine64(total, product_h)


def best_permutation(f_product: np.ndarray,
                     g_by_id: dict[int, np.ndarray],
                     h_by_id: dict[int, np.ndarray],
                     halt_key: np.ndarray,
                     u_bias: np.ndarray | None = None,
                     perm_threshold: int = PERM_THRESHOLD) -> tuple[tuple[int, ...], float]:
    """Order of the reactant ids maximizing the summed selection scores
    (``best_order`` over the cosines with their ``h`` rows), and that sum.

    The halt term is always last and uses the query after all subtractions,
    so it is order-independent. Ties break toward the lexicographically
    smallest id sequence.
    """
    ids = sorted(g_by_id)
    start = np.asarray(f_product, dtype=np.float64).copy()
    if u_bias is not None:
        start += np.asarray(u_bias, dtype=np.float64)
    shape = (len(ids), start.shape[0])
    g = np.array([g_by_id[i] for i in ids], dtype=np.float64).reshape(shape)
    h = np.array([h_by_id[i] for i in ids], dtype=np.float64).reshape(shape)
    positions, total, final = best_order(start, g, lambda q: cosine_table(q, h),
                                         perm_threshold)
    return tuple(ids[p] for p in positions), total + cosine64(final, halt_key)


def reaction_score(f_product: np.ndarray,
                   h_product: np.ndarray,
                   g_by_id: dict[int, np.ndarray],
                   h_by_id: dict[int, np.ndarray],
                   halt_key: np.ndarray,
                   u_bias: np.ndarray | None = None,
                   v_bias: np.ndarray | None = None,
                   product_id: int | None = None,
                   perm_threshold: int = PERM_THRESHOLD) -> ScoredSet:
    """Overall score (psi_sum + phi) / (n + 2) for one candidate reactant set."""
    ids = tuple(sorted(g_by_id))
    if product_id is not None and product_id in g_by_id:
        raise ProductInReactants(f"product id {product_id} appears in reactant set")
    order, psi_sum = best_permutation(f_product, g_by_id, h_by_id, halt_key,
                                      u_bias, perm_threshold)
    forward = phi([g_by_id[i] for i in ids], h_product, v_bias)
    value = (psi_sum + forward) / (len(ids) + 2)
    return ScoredSet(ids, value, order)


class ReactionScorer:
    """Molecule-level scoring with an embedding cache keyed by canonical form."""

    def __init__(self, params):
        from .chem import canonical_form
        from .encoder import embed_molecule, type_bias
        self.params = params
        self._canonical = canonical_form
        self._embed = embed_molecule
        self._type_bias = type_bias
        self._cache: dict[tuple[str, str], np.ndarray] = {}

    def embedding(self, mol, head: str) -> np.ndarray:
        key = (head, self._canonical(mol))
        if key not in self._cache:
            self._cache[key] = self._embed(mol, head, self.params).vector
        return self._cache[key]

    def reaction_score(self, product, reactants: list,
                       rxn_type: int | None = None,
                       perm_threshold: int = PERM_THRESHOLD) -> ScoredSet:
        product_form = self._canonical(product)
        forms = []
        for mol in reactants:
            form = self._canonical(mol)
            if form == product_form:
                raise ProductInReactants(f"product {product_form} is its own reactant")
            forms.append(form)
        # Dense local ids in canonical order make tie-breaks deterministic.
        ordered = sorted(set(forms))
        by_form = {form: i for i, form in enumerate(ordered)}
        mols_by_id = {by_form[self._canonical(m)]: m for m in reactants}
        g_by_id = {i: self.embedding(m, "g") for i, m in mols_by_id.items()}
        h_by_id = {i: self.embedding(m, "h") for i, m in mols_by_id.items()}
        return reaction_score(
            self.embedding(product, "f"), self.embedding(product, "h"),
            g_by_id, h_by_id, self.params.tensors["halt_key"].data,
            u_bias=self._type_bias(self.params, "u", rxn_type),
            v_bias=self._type_bias(self.params, "v", rxn_type),
            perm_threshold=perm_threshold)
