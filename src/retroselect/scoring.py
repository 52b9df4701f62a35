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
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import ZERO_NORM_EPS

PERM_THRESHOLD = 5
# The exhaustive order table holds n! x n positions: 40,320 x 8 at 8.
MAX_PERM_THRESHOLD = 8
# Bytes that one batched ``best_order`` call may take for its subset
# queries, step scores and order totals; larger batches go in parts.
_BATCH_BYTES = 16 << 20


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
    """Float64 cosines of every query row with every key row, ``[..., m, k]``
    over any shared leading batch axes, with the zero-norm-gives-zero
    convention."""
    q_norms = np.linalg.norm(queries, axis=-1)[..., :, None]
    k_norms = np.linalg.norm(keys, axis=-1)[..., None, :]
    live = (q_norms >= ZERO_NORM_EPS) & (k_norms >= ZERO_NORM_EPS)
    denom = np.where(live, q_norms * k_norms, 1.0)
    return np.where(live, (queries @ np.swapaxes(keys, -1, -2)) / denom, 0.0)


def pair_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two [m, d] float64 arrays. A stack of
    1 x d by d x 1 products makes numpy call the same BLAS dot as ``a @ b``
    on two vectors, so each value matches it bit for bit."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def pair_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise float64 cosines, equal bit for bit to ``cosine64`` on each
    pair of rows (zero-norm rows score 0). ``b`` may be one [d] row shared
    by every row of ``a``."""
    b = np.broadcast_to(b, a.shape)
    na = np.sqrt(pair_dots(a, a))
    nb = np.sqrt(pair_dots(b, b))
    zero = (na < ZERO_NORM_EPS) | (nb < ZERO_NORM_EPS)
    return np.where(zero, 0.0, pair_dots(a, b) / np.where(zero, 1.0, na * nb))


@functools.lru_cache(maxsize=MAX_PERM_THRESHOLD + 1)
def _orders(n: int) -> np.ndarray:
    """All orders of ``range(n)`` as read-only rows, in lexicographic
    order."""
    orders = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    orders.flags.writeable = False
    return orders


def best_order(start: np.ndarray, g: np.ndarray, score, perm_threshold: int):
    """Order of the ``g`` rows maximizing the summed step scores, for a
    batch of m sets of the same size n.

    ``start`` is [m, d] and ``g`` [m, n, d]. The query after choosing a
    subset is ``start`` minus the ``g`` rows of that subset;
    ``score(queries [m, q, d]) -> [m, q, n]`` gives the step score of
    choosing each member from each query. Exhaustive for n <= perm_threshold
    (every subset query is scored in one call, every order is summed step by
    step, left to right, one shared order table for the batch, and the first
    maximum keeps the lexicographically smallest order); greedy beyond (ties
    to the smaller position). Returns the positions [m, n], their summed
    scores [m] and the queries after all n members [m, d].

    A single set may be passed unbatched: ``start`` [d], ``g`` [n, d] and
    ``score`` mapping [q, d] to [q, n]; the result is then a positions
    tuple, a float and a [d] query.
    """
    if not 0 <= perm_threshold <= MAX_PERM_THRESHOLD:
        raise ValueError(f"perm_threshold must be in 0..{MAX_PERM_THRESHOLD}")
    if np.ndim(start) == 1:
        orders, totals, finals = best_order(start[None], g[None],
                                            lambda q: score(q[0])[None],
                                            perm_threshold)
        return tuple(orders[0].tolist()), float(totals[0]), finals[0]
    m, n = g.shape[:2]
    sets = np.arange(m)
    if n > perm_threshold:
        orders = np.empty((m, n), dtype=np.intp)
        totals, query = np.zeros(m), start
        taken = np.zeros((m, n), dtype=bool)
        for step in range(n):
            steps = np.where(taken, -np.inf, score(query[:, None, :])[:, 0])
            pick = np.argmax(steps, axis=1)
            totals += steps[sets, pick]
            query = query - g[sets, pick]
            taken[sets, pick] = True
            orders[:, step] = pick
        return orders, totals, query
    # queries[:, s] is start minus the g rows of the bits of s, ascending.
    queries = np.empty((m, 1 << n, start.shape[-1]))
    queries[:, 0] = start
    for i in range(n):
        queries[:, 1 << i:2 << i] = queries[:, :1 << i] - g[:, i, None]
    steps = score(queries)
    orders = _orders(n)
    totals = np.zeros((m, orders.shape[0]))
    taken = np.zeros(orders.shape[0], dtype=np.intp)
    for column in orders.T:
        totals += steps[:, taken, column]
        taken |= 1 << column
    best = np.argmax(totals, axis=1)
    return orders[best], totals[sets, best], queries[:, -1]


def _selection_sums(f_product: np.ndarray, u_bias: np.ndarray | None,
                    g: np.ndarray, h: np.ndarray, halt_key: np.ndarray,
                    perm_threshold: int) -> tuple[np.ndarray, np.ndarray]:
    """Best orders [m, n] (positions) and their selection-score sums [m],
    halt term included, of m sets whose float64 rows ``g``, ``h`` are
    [m, n, d]."""
    m, n, d = g.shape
    start = np.asarray(f_product, dtype=np.float64).copy()
    if u_bias is not None:
        start += np.asarray(u_bias, dtype=np.float64)
    halt_key = np.asarray(halt_key, dtype=np.float64)
    # An exhaustive call holds 2^n subset queries with their step scores
    # and n! order totals per set, a greedy call one query and its scores.
    per_set = ((1 << n) * (d + 4 * n) + 2 * math.factorial(n)
               if n <= perm_threshold else d + 4 * n)
    step = max(1, _BATCH_BYTES // (8 * per_set))
    orders = np.empty((m, n), dtype=np.intp)
    sums = np.empty(m)
    for lo in range(0, m, step):
        part = slice(lo, lo + step)
        keys = h[part]
        orders[part], totals, finals = best_order(
            np.broadcast_to(start, (keys.shape[0], d)), g[part],
            lambda queries: cosine_table(queries, keys), perm_threshold)
        sums[part] = totals + pair_cosines(finals, halt_key)
    return orders, sums


def _forward_scores(g: np.ndarray, product_h: np.ndarray,
                    v_bias: np.ndarray | None) -> np.ndarray:
    """Forward synthesizability scores of m sets whose reactant query rows
    ``g`` are [m, n, d]: the cosine of the summed rows (plus the type bias)
    with the product key."""
    total = np.zeros((g.shape[0], g.shape[2]))
    for i in range(g.shape[1]):
        total += g[:, i]
    if v_bias is not None:
        total += np.asarray(v_bias, dtype=np.float64)
    return pair_cosines(total, np.asarray(product_h, dtype=np.float64))


def _stacked_rows(by_id: dict[int, np.ndarray], ids, d: int) -> np.ndarray:
    """One set's rows in ``ids`` order as a [1, n, d] float64 batch."""
    return np.array([by_id[i] for i in ids], dtype=np.float64).reshape(1, len(ids), d)


def score_sets(f_product: np.ndarray, h_product: np.ndarray, g: np.ndarray,
               h: np.ndarray, halt_key: np.ndarray,
               u_bias: np.ndarray | None = None,
               v_bias: np.ndarray | None = None,
               perm_threshold: int = PERM_THRESHOLD) -> tuple[np.ndarray, np.ndarray]:
    """Overall scores (psi_sum + phi) / (n + 2) of m reactant sets of one
    size n, ``g`` and ``h`` [m, n, d] holding each set's rows in ascending
    id order. Returns the scores [m] and each set's best order as positions
    [m, n]; each set's values equal ``reaction_score`` on it bit for bit."""
    g = np.asarray(g, dtype=np.float64)
    orders, sums = _selection_sums(f_product, u_bias, g, np.asarray(h, dtype=np.float64),
                                   halt_key, perm_threshold)
    return (sums + _forward_scores(g, h_product, v_bias)) / (g.shape[1] + 2), orders


def reaction_score(f_product: np.ndarray,
                   h_product: np.ndarray,
                   g_by_id: dict[int, np.ndarray],
                   h_by_id: dict[int, np.ndarray],
                   halt_key: np.ndarray,
                   u_bias: np.ndarray | None = None,
                   v_bias: np.ndarray | None = None,
                   product_id: int | None = None,
                   perm_threshold: int = PERM_THRESHOLD) -> ScoredSet:
    """Overall score (psi_sum + phi) / (n + 2) for one candidate reactant set.

    ``best_order`` is the id order maximizing the summed selection scores
    (halt term last, on the query after all subtractions); ties break toward
    the lexicographically smallest id sequence.
    """
    ids = tuple(sorted(g_by_id))
    if product_id is not None and product_id in g_by_id:
        raise ProductInReactants(f"product id {product_id} appears in reactant set")
    d = np.asarray(f_product).shape[0]
    scores, orders = score_sets(f_product, h_product, _stacked_rows(g_by_id, ids, d),
                                _stacked_rows(h_by_id, ids, d), halt_key,
                                u_bias, v_bias, perm_threshold)
    return ScoredSet(ids, float(scores[0]), tuple(ids[p] for p in orders[0]))
