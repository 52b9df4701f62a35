"""Exact top-K cosine retrieval over the candidate pool's key embeddings.

One blocked scan serves every selection. It scans the keys in float32, one
column block at a time, keeps a running top K plus every entry within a
safety margin of its K-th value, and rescores that shortlist in float64.
``CandidateIndex.topk_rows`` keeps a top K per query row: a single query
(``query_topk``) or one row per anchor in hard-negative mining.
``CandidateIndex.topk_pairs`` keeps one top K over all rows at once, each
row's cosines shifted by an offset: a beam round, where the offset is a
hypothesis's running score. Results are therefore exactly the float64
ranking with ascending-id tie-breaks, while score memory stays
O(query rows x block) however large the pool is.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .encoder import ParamStore, embed_pool
from .scoring import ZERO_NORM_EPS, pair_cosines, pair_dots

HALT_ID = -1

_MAGIC = b"RCLX"
_VERSION = 1
_HEADER = struct.Struct("<4sIQIB")

# Float32 scan error is far below this; used to widen the shortlist.
_REFINE_MARGIN = 1e-4
# Bytes that one column block of float32 scores may take across all query
# rows; the block width follows from it, so score memory does not grow
# with the pool. The float64 rescoring gathers shortlisted keys in chunks
# of at most _RESCORE_BYTES.
_BLOCK_BYTES = 16 << 20
_RESCORE_BYTES = 1 << 20
_LOWEST32 = np.finfo(np.float32).min


class EmptyIndex(ValueError):
    pass


@dataclass
class CandidateIndex:
    """Immutable snapshot of unit-normalized key embeddings.

    ``keys`` has one row per candidate (input order) plus, when
    ``includes_halt``, a final row for the halt key (id -1, never stored on
    disk). Rows with zero-norm embeddings stay zero and are flagged.
    """

    keys: np.ndarray                  # [N (+1), d] float32, unit (or zero) rows
    ids: np.ndarray                   # [N] int64, unique, >= 0
    includes_halt: bool = False
    build_step: int = 0
    zero_mask: np.ndarray | None = None
    _row_of: dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if len(set(self.ids.tolist())) != self.ids.shape[0]:
            raise ValueError("candidate ids must be unique")
        if np.any(self.ids < 0):
            raise ValueError("candidate ids must be non-negative")
        expected_rows = self.ids.shape[0] + (1 if self.includes_halt else 0)
        if self.keys.shape[0] != expected_rows:
            raise ValueError(f"key rows {self.keys.shape[0]} != expected {expected_rows}")
        if self.zero_mask is None:
            self.zero_mask = np.zeros(self.keys.shape[0], dtype=bool)
        self._row_of = {int(mol_id): row for row, mol_id in enumerate(self.ids)}
        if self.includes_halt:
            self._row_of[HALT_ID] = self.keys.shape[0] - 1

    @property
    def n_candidates(self) -> int:
        return self.ids.shape[0]

    @property
    def dim(self) -> int:
        return self.keys.shape[1]

    def all_ids(self) -> np.ndarray:
        if self.includes_halt:
            return np.concatenate([self.ids, [HALT_ID]])
        return self.ids

    def row_of(self, mol_id: int) -> int:
        """Key row of a candidate id, or of the halt row for ``HALT_ID``."""
        return self._row_of[int(mol_id)]

    def row_for(self, mol_id: int) -> np.ndarray:
        return self.keys[self._row_of[mol_id]]

    def has_id(self, mol_id: int) -> bool:
        return mol_id in self._row_of

    # --- construction ---

    @classmethod
    def build(cls, params: ParamStore, candidates: list, candidate_ids=None,
              include_halt: bool = False, build_step: int = 0,
              batch_size: int = 512) -> "CandidateIndex":
        """Embed and normalize all candidate molecules, input order preserved."""
        if candidate_ids is None:
            candidate_ids = np.arange(len(candidates), dtype=np.int64)
        keys, zero_mask = embed_pool(candidates, params, batch_size=batch_size)
        if include_halt:
            keys, zero_mask = _append_halt(keys, zero_mask, params)
        return cls(keys, candidate_ids, include_halt, build_step, zero_mask)

    @classmethod
    def from_raw_keys(cls, raw: np.ndarray, candidate_ids=None,
                      halt_key: np.ndarray | None = None,
                      build_step: int = 0) -> "CandidateIndex":
        """Index over already-computed raw (unnormalized) key vectors."""
        raw = np.asarray(raw, dtype=np.float32)
        if candidate_ids is None:
            candidate_ids = np.arange(raw.shape[0], dtype=np.int64)
        keys, zero_mask = _normalize_rows(raw)
        if halt_key is not None:
            hk = np.asarray(halt_key, dtype=np.float32).reshape(1, -1)
            hkeys, hzero = _normalize_rows(hk)
            keys = np.vstack([keys, hkeys])
            zero_mask = np.concatenate([zero_mask, hzero])
        return cls(keys, candidate_ids, halt_key is not None, build_step, zero_mask)

    def with_halt(self, params: ParamStore) -> "CandidateIndex":
        """Derived snapshot with the current halt key appended (for search)."""
        if self.includes_halt:
            return self
        keys, zero_mask = _append_halt(self.keys, self.zero_mask, params)
        return CandidateIndex(keys, self.ids, True, self.build_step, zero_mask)

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
        offsets = np.asarray(offsets, dtype=np.float64)
        qi, rows, exact = self._shortlist(queries, k, exclude_rows, offsets)
        qi, rows, exact, _ = self._per_query_topk(qi, rows, exact, k)
        totals = offsets[qi] + exact
        order = np.lexsort((self.all_ids()[rows], qi, -totals))[:k]
        return qi[order], rows[order], totals[order]

    def _shortlist(self, queries: np.ndarray, k: int, exclude_rows,
                   offsets: np.ndarray | None = None):
        """Float64 cosines of every (query, row) pair that can reach the top
        K, as ``(query, row, cosine)`` arrays.

        The top K is each query's own by cosine or, with ``offsets``, one
        over all queries by ``offsets[query] + cosine``.
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
        # highest values so far (per query, or over all of them), so its
        # first column is a lower bound on the final K-th value: every entry
        # that can reach the final top K is within the margin of it when
        # its block is scanned.
        width = max(1, _BLOCK_BYTES // (4 * max(n_queries, 1)))
        best = np.full((n_queries if offsets is None else 1, k), -np.inf,
                       dtype=np.float32)
        shift = None if offsets is None else offsets.astype(np.float32)[:, None]
        found = []
        for lo in range(0, n_rows, width):
            block = q32 @ self.keys[lo:lo + width].T
            inside = (ex_r >= lo) & (ex_r < lo + width)
            block[ex_q[inside], ex_r[inside] - lo] = -np.inf
            if shift is not None:
                block += shift
            both = np.concatenate([best, block.reshape(best.shape[0], -1)], axis=1)
            best = np.partition(both, both.shape[1] - k, axis=1)[:, -k:].copy()
            # (flatnonzero then divmod is several times faster than a 2-D nonzero)
            flat = np.flatnonzero(block >= _shortlist_floor(best)[:, None])
            qi, col = np.divmod(flat, block.shape[1])
            found.append((qi, col + lo, block.ravel()[flat]))
        qi, rows, approx = (np.concatenate(parts) for parts in zip(*found))
        keep = approx >= np.broadcast_to(_shortlist_floor(best), (n_queries,))[qi]
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
        order = np.lexsort((self.all_ids()[rows], -exact, qi))
        qi, rows, exact = qi[order], rows[order], exact[order]
        rank = np.arange(qi.shape[0]) - np.searchsorted(qi, qi)
        keep = rank < k
        return qi[keep], rows[keep], exact[keep], rank[keep]

    def query_topk(self, query: np.ndarray, k: int,
                   exclude=()) -> list[tuple[int, float]]:
        """K highest float64 cosine scores, descending, id-ascending ties.

        Returns fewer than K pairs if the non-excluded pool is smaller.
        """
        excluded = [self._row_of[i] for i in map(int, exclude) if i in self._row_of]
        rows, scores = self.topk_rows(np.asarray(query)[None, :], k, [excluded])
        found = rows[0] >= 0
        return list(zip(self.all_ids()[rows[0][found]].tolist(),
                        scores[0][found].tolist()))


def _shortlist_floor(best: np.ndarray) -> np.ndarray:
    """Lowest float32 value kept per row of ``best``: the margin below the
    K-th best so far, but above -inf so that excluded entries never pass."""
    return np.maximum(best[:, 0] - _REFINE_MARGIN, _LOWEST32)


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


def _normalize_rows(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(raw, axis=1)
    zero_mask = norms < 1e-12
    scale = np.where(zero_mask, 1.0, norms).astype(np.float32)
    return (raw / scale[:, None]).astype(np.float32), zero_mask


def _append_halt(keys: np.ndarray, zero_mask: np.ndarray,
                 params: ParamStore) -> tuple[np.ndarray, np.ndarray]:
    halt, hzero = _normalize_rows(
        params.tensors["halt_key"].data.astype(np.float32).reshape(1, -1))
    return np.vstack([keys, halt]), np.concatenate([zero_mask, hzero])


def hard_neighbors(index: CandidateIndex, anchor_ids, k: int,
                   embed_query=None) -> set[int]:
    """Union of each anchor's top-K nearest candidate ids, anchors excluded.

    All anchors go through one batched ``topk_rows`` call. Anchors absent
    from the index (e.g. products outside the pool) need
    ``embed_query(anchor_id) -> vector``.
    """
    anchors = sorted(int(a) for a in anchor_ids)
    if k <= 0 or not anchors:
        return set()
    halt = [index.row_of(HALT_ID)] if index.includes_halt else []
    queries, excluded = [], []
    for anchor in anchors:
        if index.has_id(anchor):
            queries.append(index.row_for(anchor))
            excluded.append([index.row_of(anchor)] + halt)
        elif embed_query is not None:
            queries.append(embed_query(anchor))
            excluded.append(halt)
        else:
            raise KeyError(f"anchor {anchor} not in index and no embedder given")
    rows, _ = index.topk_rows(np.stack(queries), k, excluded)
    return set(index.all_ids()[rows[rows >= 0]].tolist())


# --- on-disk cache ---

def save_index(index: CandidateIndex, path: str) -> None:
    """RCLX cache: header, ids as u64 LE, then row-major float32 LE keys."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, index.n_candidates,
                              index.dim, 1 if index.includes_halt else 0))
        fh.write(index.ids.astype("<u8").tobytes())
        fh.write(np.ascontiguousarray(index.keys, dtype="<f4").tobytes())


class CorruptIndexCache(ValueError):
    pass


def load_index(path: str) -> CandidateIndex:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise CorruptIndexCache("truncated header")
    magic, version, n, d, halt_flag = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise CorruptIndexCache(f"bad magic {magic!r}")
    if version != _VERSION:
        raise CorruptIndexCache(f"unsupported index version {version}")
    rows = n + (1 if halt_flag else 0)
    offset = _HEADER.size
    ids_bytes = 8 * n
    keys_bytes = 4 * rows * d
    if len(blob) != offset + ids_bytes + keys_bytes:
        raise CorruptIndexCache("unexpected file size")
    ids = np.frombuffer(blob, dtype="<u8", count=n, offset=offset).astype(np.int64)
    keys = np.frombuffer(blob, dtype="<f4", count=rows * d,
                         offset=offset + ids_bytes).reshape(rows, d).copy()
    return CandidateIndex(keys, ids, bool(halt_flag), 0)
