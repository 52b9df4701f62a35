"""Exact top-K cosine retrieval over the candidate pool's key embeddings.

An index is the pool's keys and ids and nothing else, as in FAISS (Johnson,
Douze & Jegou, arXiv:1702.08734): the halt key is not a candidate, and
scoring and training read it from the parameters.

One blocked scan serves every selection. It scans the keys in float32, one
column block at a time, against a running top K per group: one group per
query row, or one over all rows. Each block is compared once with its
group's floor (the running K-th value less a margin derived from the key
width, first taken from the pool's leading columns), and only the entries
above it update the running top K and join the shortlist, which is
rescored in float64. The blocks after the leading columns are dealt out
by ``workers.fan_out`` to the CPUs this process may run on, each share
keeping its own running top K, so one scan uses every usable core while the
score memory in flight stays ``_BLOCK_BYTES`` in total.
``CandidateIndex.build`` embeds the pool with ``encoder.embed_pool``, whose
chunks fan out over the same threads.
``CandidateIndex.topk_rows`` keeps a top K per query row: a single query
(``query_topk``) or one row per anchor in hard-negative mining.
``CandidateIndex.topk_pairs`` keeps one top K over all rows at once, each
row's cosines shifted by an offset: a beam round, where the offset is a
hypothesis's running score, so a row's cosines are compared against the
floor less its offset. Results are therefore exactly the float64 ranking
with ascending-id tie-breaks, while score memory stays O(query rows x
block) however large the pool is.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import workers
from .autodiff import ZERO_NORM_EPS
from .data import replace_on_success
from .encoder import ParamStore, embed_pool, normalize_rows
from .scoring import pair_cosines, pair_dots

_MAGIC = b"RCLX"
_VERSION = 1
_HEADER = struct.Struct("<4sIQIB")

# The least margin by which the scan widens its shortlist; wide keys get a
# larger one (``_scan_margin``).
_REFINE_MARGIN = 1e-4
# Bytes that the column blocks of float32 scores in flight may take across
# all query rows and scan workers; the block width follows from it, so score
# memory does not grow with the pool. The float64 rescoring gathers
# shortlisted keys, and ``load_index`` checks that keys are finite, in
# chunks of at most _RESCORE_BYTES.
_BLOCK_BYTES = 16 << 20
_RESCORE_BYTES = 1 << 20
# Bytes of float32 scores in the leading columns whose top K sets the first
# floor of a scan: a small slice already puts it near the final K-th value.
_SEED_BYTES = 1 << 20
_LOWEST32 = np.finfo(np.float32).min


class EmptyIndex(ValueError):
    pass


@dataclass
class CandidateIndex:
    """Immutable snapshot of unit-normalized key embeddings, one row per
    candidate (input order), and the candidates' ids. Rows with zero-norm
    embeddings stay zero, so every cosine with them is 0.
    """

    keys: np.ndarray                  # [N, d] float32, unit (or zero) rows
    ids: np.ndarray                   # [N] int64, unique, >= 0
    # The rows in ascending id order: the id-to-row lookup is one searchsorted.
    _by_id: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if np.any(self.ids < 0):
            raise ValueError("candidate ids must be non-negative")
        if self.keys.shape[0] != self.ids.shape[0]:
            raise ValueError(f"key rows {self.keys.shape[0]} != ids {self.ids.shape[0]}")
        self._by_id = np.argsort(self.ids, kind="stable")
        sorted_ids = self.ids[self._by_id]
        if np.any(sorted_ids[1:] == sorted_ids[:-1]):
            raise ValueError("candidate ids must be unique")

    @property
    def n_candidates(self) -> int:
        return self.ids.shape[0]

    @property
    def dim(self) -> int:
        return self.keys.shape[1]

    def find_rows(self, mol_ids) -> tuple[np.ndarray, np.ndarray]:
        """Key rows of an array of ids and a mask of the ids present; the
        row of an absent id is meaningless."""
        mol_ids = np.asarray(mol_ids, dtype=np.int64)
        if self._by_id.size == 0:
            return np.zeros(mol_ids.shape, dtype=np.int64), np.zeros(mol_ids.shape, bool)
        pos = np.searchsorted(self.ids, mol_ids, sorter=self._by_id)
        rows = np.take(self._by_id, pos, mode="clip")
        return rows, self.ids[rows] == mol_ids

    def rows_of(self, mol_ids) -> np.ndarray:
        """Key rows of an array of ids, all of which must be present."""
        rows, present = self.find_rows(mol_ids)
        if not present.all():
            raise KeyError(int(np.asarray(mol_ids)[~present].flat[0]))
        return rows

    # --- construction ---

    @classmethod
    def build(cls, params: ParamStore, candidates: list,
              candidate_ids=None) -> "CandidateIndex":
        """Embed and normalize all candidate molecules, input order preserved."""
        if candidate_ids is None:
            candidate_ids = np.arange(len(candidates), dtype=np.int64)
        return cls(embed_pool(candidates, params), candidate_ids)

    @classmethod
    def from_raw_keys(cls, raw: np.ndarray, candidate_ids=None,
                      halt_key: np.ndarray | None = None) -> "CandidateIndex":
        """Index over already-computed raw (unnormalized) key vectors, which
        are copied, not changed. ``halt_key`` is accepted and not used: the
        halt key is not a candidate, but the predict-large-pool set-up in
        ``perfbench/workloads.py`` still passes it."""
        if candidate_ids is None:
            candidate_ids = np.arange(np.shape(raw)[0], dtype=np.int64)
        return cls(normalize_rows(np.array(raw, dtype=np.float32)), candidate_ids)

    # --- queries ---

    def topk_rows(self, queries: np.ndarray, k: int,
                  exclude_rows=None) -> tuple[np.ndarray, np.ndarray]:
        """Each query's K key rows of highest float64 cosine.

        ``queries`` is [L, d]; ``exclude_rows``, if given, holds one
        collection of key rows per query that it must not return (or an
        [L, m] array of them). Returns ``(rows, scores)``, both
        [L, min(K, key rows)]: each line is ordered by descending float64
        cosine, then ascending id, and ends in row -1 with score -inf where
        the query has fewer valid rows. A zero query or zero key scores 0.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        k = min(k, self.keys.shape[0])
        qi, rows, exact = self._shortlist(queries, k, exclude_rows)
        qi, rows, exact, rank = self._per_query_topk(qi, rows, exact, k)
        n_queries = np.atleast_2d(queries).shape[0]
        out_rows = np.full((n_queries, k), -1, dtype=np.int64)
        out_scores = np.full((n_queries, k), -np.inf)
        out_rows[qi, rank] = rows
        out_scores[qi, rank] = exact
        return out_rows, out_scores

    def topk_pairs(self, queries: np.ndarray, offsets: np.ndarray, k: int,
                   exclude_rows=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The K (query, key row) pairs of highest ``offsets[query]`` plus
        float64 cosine, over all queries at once.

        Each query offers only its own top K rows (``topk_rows`` order), and
        the pairs are ordered by descending total, then query, then id.
        ``exclude_rows`` is as for ``topk_rows``. Returns ``(query, row,
        total)`` arrays of at most K pairs.

        A pair that ranks in the top K has a total at least the K-th
        highest total, and so do its query's better rows. The scan keeps
        one top K of approximate totals, and every pair within the margin
        of it reaches the float64 rescoring together with those rows.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        k = min(k, np.atleast_2d(queries).shape[0] * self.keys.shape[0])
        offsets = np.asarray(offsets, dtype=np.float64)
        qi, rows, exact = self._shortlist(queries, k, exclude_rows, offsets)
        qi, rows, exact, _ = self._per_query_topk(qi, rows, exact, k)
        totals = offsets[qi] + exact
        order = np.lexsort((self.ids[rows], qi, -totals))[:k]
        return qi[order], rows[order], totals[order]

    def _shortlist(self, queries: np.ndarray, k: int, exclude_rows,
                   offsets: np.ndarray | None = None):
        """Float64 cosines of every (query, row) pair that can reach the top
        K, as ``(query, row, cosine)`` arrays.

        The top K is each query's own by cosine or, with ``offsets``, one
        over all queries by ``offsets[query] + cosine``. The leading
        columns set the first floor on the calling thread; the columns
        after them are cut into spans dealt round-robin to
        ``workers.COUNT`` shares by ``workers.fan_out``, which run at once,
        so every share scans the same spans from the same start whatever the
        timing. The result does not depend on the worker count or the block
        width.
        """
        n_rows = self.keys.shape[0]
        if n_rows == 0:
            raise EmptyIndex("index has no rows")
        q64 = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n_queries = q64.shape[0]
        qn = np.sqrt(pair_dots(q64, q64))
        q32 = (q64 / np.where(qn < ZERO_NORM_EPS, 1.0, qn)[:, None]).astype(np.float32)
        ex_q, ex_r = _flat_exclusions(exclude_rows, n_queries, n_rows)

        # Float32 scan, one column block at a time. ``best`` holds the K
        # highest values so far of each group (a query row, or all rows).
        # The K-th highest of any K entries of a group is a lower bound on
        # its final K-th value, and every entry that can reach the final top
        # K is within the margin of that bound: the floor. Each block is
        # compared once with the floor, and only the entries above it update
        # ``best`` and join the shortlist. Until some group has K values, the
        # block's leading columns enter ``best`` whole, to set the floor for
        # the rest of the block.
        n_groups = n_queries if offsets is None else 1
        group = np.arange(n_queries) if offsets is None \
            else np.zeros(n_queries, dtype=np.int64)
        shift = None if offsets is None else offsets.astype(np.float32)
        margin = _scan_margin(self.dim, offsets)
        row_bytes = 4 * max(n_queries, 1)
        lead = min(max(k, _SEED_BYTES // row_bytes), max(1, _BLOCK_BYTES // row_bytes), n_rows)

        def scan(spans, best):
            """The block loop over ``spans`` from the running top K
            ``best``: the top K after them and the entries they shortlist.
            One score buffer and one mask serve every span."""
            size = n_queries * max(hi - lo for lo, hi in spans)
            scores, above = np.empty(size, dtype=np.float32), np.empty(size, dtype=bool)
            found = []
            for lo, hi in spans:
                block = scores[:n_queries * (hi - lo)].reshape(n_queries, hi - lo)
                np.matmul(q32, self.keys[lo:hi].T, out=block)
                inside = (ex_r >= lo) & (ex_r < hi)
                block[ex_q[inside], ex_r[inside] - lo] = -np.inf
                seeded = 0
                if np.isneginf(best[:, 0]).all():
                    leading = block[:, :lead] if shift is None \
                        else block[:, :lead] + shift[:, None]
                    best = _top_k(best, leading.reshape(n_groups, -1), k)
                    seeded = leading.shape[1]
                floor = _shortlist_floor(best, margin)[group]
                if shift is not None:
                    # Cosines are compared against the floor less their row's
                    # offset, so the offsets are added to the survivors only.
                    floor = (floor - offsets).astype(np.float32)
                # (flatnonzero then divmod is several times faster than a
                # 2-D nonzero)
                mask = above[:block.size].reshape(block.shape)
                flat = np.flatnonzero(np.greater_equal(block, floor[:, None], out=mask))
                qi, col = np.divmod(flat, block.shape[1])
                value = block.ravel()[flat]
                if shift is not None:
                    value += shift[qi]
                if seeded < block.shape[1]:
                    fresh = col >= seeded  # the leading columns are in ``best``
                    best = _top_k(best, _by_group(group[qi[fresh]], value[fresh], n_groups), k)
                    keep = value >= _shortlist_floor(best, margin)[group[qi]]
                    qi, col, value = qi[keep], col[keep], value[keep]
                found.append((qi, col + lo, value))
            return best, found

        best, found = scan([(0, lead)], np.full((n_groups, k), -np.inf, dtype=np.float32))
        # The shares' blocks together take _BLOCK_BYTES. Each share starts
        # from a copy of the seeded ``best``.
        width = max(1, _BLOCK_BYTES // (row_bytes * workers.COUNT))
        spans = [(lo, min(lo + width, n_rows)) for lo in range(lead, n_rows, width)]
        results = workers.fan_out(lambda share: scan(share, best.copy()), spans)
        # Any share's K-th value is a lower bound on the final one, so each
        # group keeps the highest.
        for share_best, share_found in results:
            best = np.where(share_best[:, :1] > best[:, :1], share_best, best)
            found += share_found
        qi, rows, approx = (np.concatenate(parts) for parts in zip(*found))
        keep = approx >= _shortlist_floor(best, margin)[group[qi]]
        qi, rows = qi[keep], rows[keep]

        exact = np.empty(rows.shape[0])
        step = max(1, _RESCORE_BYTES // (8 * self.dim))
        for lo in range(0, rows.shape[0], step):
            part = slice(lo, lo + step)
            exact[part] = pair_cosines(q64[qi[part]],
                                       self.keys[rows[part]].astype(np.float64))
        return qi, rows, exact

    def _per_query_topk(self, qi: np.ndarray, rows: np.ndarray, exact: np.ndarray,
                        k: int):
        """Each query's first K pairs by descending cosine, then ascending
        id, grouped by query, with their positions within the query."""
        order = np.lexsort((self.ids[rows], -exact, qi))
        qi, rows, exact = qi[order], rows[order], exact[order]
        rank = np.arange(qi.shape[0]) - np.searchsorted(qi, qi)
        keep = rank < k
        return qi[keep], rows[keep], exact[keep], rank[keep]

    def query_topk(self, query: np.ndarray, k: int,
                   exclude=()) -> list[tuple[int, float]]:
        """K highest float64 cosine scores, descending, id-ascending ties.

        Returns fewer than K pairs if the non-excluded pool is smaller.
        """
        rows, present = self.find_rows(np.fromiter(exclude, dtype=np.int64))
        rows, scores = self.topk_rows(np.asarray(query)[None, :], k, [rows[present]])
        found = rows[0] >= 0
        return list(zip(self.ids[rows[0][found]].tolist(),
                        scores[0][found].tolist()))


def _scan_margin(dim: int, offsets: np.ndarray | None) -> float:
    """The margin for ``_shortlist_floor`` at key width ``dim``: twice the
    bound there on one float32 total's error, and at least
    ``_REFINE_MARGIN``."""
    u = 2.0 ** -24
    n = 2 * dim + 4
    cosine = n * u / (1 - n * u) if n * u < 1 else np.inf
    offset = 0.0 if offsets is None or offsets.size == 0 else float(np.abs(offsets).max())
    return max(_REFINE_MARGIN, 2 * (cosine + 4 * u * (1 + offset)))


def _shortlist_floor(best: np.ndarray, margin: float) -> np.ndarray:
    """Lowest float32 value kept per row of ``best``: ``margin`` below the
    K-th best so far, but above -inf so that excluded entries never pass.

    The margin is a proven bound. Let E bound the difference between any
    entry's float32 value and its float64 total. The K entries behind the
    K-th best so far, b, have totals of at least b - E, so the final K-th
    total is at least b - E, and an entry that reaches the final top K has
    a float32 value of at least b - 2E. With u = 2^-24 and gamma_n =
    n u / (1 - n u) (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., section 3.1), for a unit query and a unit key of
    width d:

    - the float32 dot product errs by at most gamma_d, in any summation
      order;
    - rounding the unit query to float32 adds at most u;
    - the stored key's norm is within (d/2 + 2) u of 1 to first order,
      from its float32 normalization.

    Their sum, (3d/2 + 3) u plus terms of order (d u)^2, is at most
    gamma_{2d+4}. With offsets o, rounding o to float32, adding it to the
    cosine and rounding the floor less o to float32 add under
    4 u (1 + max |o|) to that, so E = gamma_{2d+4} + 4 u (1 + max |o|), and
    ``_scan_margin`` returns the larger of 2E and ``_REFINE_MARGIN``. At
    d = 256 2E is 6.2e-5, below 1e-4; it passes 1e-4 from d of about 415
    and is 9.8e-4 at d = 4,096.
    """
    return np.maximum(best[:, 0] - margin, _LOWEST32)


def _top_k(best: np.ndarray, more: np.ndarray, k: int) -> np.ndarray:
    """Each group's K highest of ``best`` ([groups, K]) and ``more``
    ([groups, m], -inf where a group has fewer values)."""
    both = np.concatenate([best, more], axis=1)
    both.partition(both.shape[1] - k, axis=1)  # in place: no second copy
    return both[:, -k:].copy()


def _by_group(group: np.ndarray, values: np.ndarray, n_groups: int) -> np.ndarray:
    """``values`` laid out one line per group, padded with -inf; ``group``
    (ascending) holds the group of each value."""
    counts = np.bincount(group, minlength=n_groups)
    lines = np.full((n_groups, counts.max(initial=0)), -np.inf, dtype=np.float32)
    lines[group, np.arange(values.shape[0]) - (np.cumsum(counts) - counts)[group]] = values
    return lines


def _flat_exclusions(exclude_rows, n_queries: int,
                     n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-query excluded rows as flat (query, row) index arrays."""
    if exclude_rows is None:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if isinstance(exclude_rows, np.ndarray):
        per_query = exclude_rows.shape[0]
        ex_q = np.repeat(np.arange(per_query), exclude_rows.shape[1])
        ex_r = exclude_rows.astype(np.int64).ravel()
    else:
        lists = [np.fromiter(rows, dtype=np.int64) for rows in exclude_rows]
        per_query = len(lists)
        ex_q = np.repeat(np.arange(per_query), [rows.shape[0] for rows in lists])
        ex_r = np.concatenate(lists) if lists else np.empty(0, dtype=np.int64)
    if per_query != n_queries:
        raise ValueError(f"{per_query} exclusion lists for {n_queries} queries")
    if ex_r.size and (ex_r.min() < 0 or ex_r.max() >= n_rows):
        raise IndexError("excluded row outside the index")
    return ex_q, ex_r


def hard_neighbors(index: CandidateIndex, anchor_ids, k: int,
                   embed_query=None) -> set[int]:
    """Union of each anchor's top-K nearest candidate ids, each anchor's
    own row excluded.

    All anchors go through one batched ``topk_rows`` call. Anchors absent
    from the index (e.g. products outside the pool) need
    ``embed_query(anchor_id) -> vector``.
    """
    anchors = sorted(int(a) for a in anchor_ids)
    if k <= 0 or not anchors:
        return set()
    queries, excluded = [], []
    anchor_rows, present = index.find_rows(anchors)
    for anchor, row, inside in zip(anchors, anchor_rows.tolist(), present.tolist()):
        if inside:
            queries.append(index.keys[row])
            excluded.append([row])
        elif embed_query is not None:
            queries.append(embed_query(anchor))
            excluded.append([])
        else:
            raise KeyError(f"anchor {anchor} not in index and no embedder given")
    rows, _ = index.topk_rows(np.stack(queries), k, excluded)
    return set(index.ids[rows[rows >= 0]].tolist())


# --- on-disk cache ---

def save_index(index: CandidateIndex, path: str) -> None:
    """RCLX cache: header, ids as u64 LE, then row-major float32 LE keys. The
    header's last byte, once set by files that held a halt row after the
    keys, is always 0. The file at ``path`` is replaced only once the whole
    cache is written."""
    with replace_on_success(path) as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, index.n_candidates, index.dim, 0))
        fh.write(index.ids.astype("<u8").tobytes())
        fh.write(np.ascontiguousarray(index.keys, dtype="<f4").tobytes())


class CorruptIndexCache(ValueError):
    pass


def load_index(path: str) -> CandidateIndex:
    """Read an RCLX cache, the ids and keys straight into their arrays. An
    older file whose header flags a halt row after the keys is read without
    that row. Ids that repeat or reach 2^63 and keys that are not finite
    raise ``CorruptIndexCache``; the keys are checked in row blocks, so no
    temporary is the pool's size."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise CorruptIndexCache("truncated header")
        magic, version, n, d, halt_flag = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise CorruptIndexCache(f"bad magic {magic!r}")
        if version != _VERSION:
            raise CorruptIndexCache(f"unsupported index version {version}")
        rows = n + (1 if halt_flag else 0)
        if os.fstat(fh.fileno()).st_size != _HEADER.size + 8 * n + 4 * rows * d:
            raise CorruptIndexCache("unexpected file size")
        # Read as signed, an id of 2^63 or more is negative.
        ids = np.empty(n, dtype="<i8")
        keys = np.empty((n, d), dtype="<f4")
        for array in (ids, keys):
            if fh.readinto(array.reshape(-1).view(np.uint8)) != array.nbytes:
                raise CorruptIndexCache("unexpected file size")
    step = max(1, _RESCORE_BYTES // (4 * max(1, d)))
    for lo in range(0, n, step):
        finite = np.isfinite(keys[lo:lo + step]).all(axis=1)
        if not finite.all():
            raise CorruptIndexCache(f"key row {lo + int(np.argmin(finite))} is not finite")
    try:
        return CandidateIndex(keys, ids)
    except ValueError as exc:
        raise CorruptIndexCache(f"bad ids: {exc}") from None
