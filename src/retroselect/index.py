"""Exact top-K cosine retrieval over the candidate pool's key embeddings.

One blocked scan serves every selection. It scans the keys in float32, one
column block at a time, against a running top K per group: one group per
query row, or one over all rows. Each block is compared once with its
group's floor (the running K-th value less a safety margin, first taken
from the block's leading columns), and only the entries above it update
the running top K and join the shortlist, which is rescored in float64.
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
# Bytes of float32 scores in the leading columns whose top K sets the first
# floor of a scan: a small slice already puts it near the final K-th value.
_SEED_BYTES = 1 << 20
_LOWEST32 = np.finfo(np.float32).min


class EmptyIndex(ValueError):
    pass


@dataclass
class CandidateIndex:
    """Immutable snapshot of unit-normalized key embeddings.

    ``keys`` has one row per candidate (input order) plus, when
    ``includes_halt``, a final row for the halt key (id -1). Rows with
    zero-norm embeddings stay zero, so every cosine with them is 0.
    """

    keys: np.ndarray                  # [N (+1), d] float32, unit (or zero) rows
    ids: np.ndarray                   # [N] int64, unique, >= 0
    includes_halt: bool = False
    # Id of every key row (the halt row's is HALT_ID), and the rows in
    # ascending id order: the id-to-row lookup is one searchsorted.
    _all_ids: np.ndarray = field(init=False, repr=False, compare=False)
    _by_id: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if np.any(self.ids < 0):
            raise ValueError("candidate ids must be non-negative")
        expected_rows = self.ids.shape[0] + (1 if self.includes_halt else 0)
        if self.keys.shape[0] != expected_rows:
            raise ValueError(f"key rows {self.keys.shape[0]} != expected {expected_rows}")
        self._all_ids = np.concatenate([self.ids, [HALT_ID]]) if self.includes_halt \
            else self.ids
        self._by_id = np.argsort(self._all_ids, kind="stable")
        sorted_ids = self._all_ids[self._by_id]
        if np.any(sorted_ids[1:] == sorted_ids[:-1]):
            raise ValueError("candidate ids must be unique")

    @property
    def n_candidates(self) -> int:
        return self.ids.shape[0]

    @property
    def dim(self) -> int:
        return self.keys.shape[1]

    def all_ids(self) -> np.ndarray:
        """Id of every key row, ``HALT_ID`` for the halt row."""
        return self._all_ids

    def find_rows(self, mol_ids) -> tuple[np.ndarray, np.ndarray]:
        """Key rows of an array of ids (``HALT_ID``: the halt row) and a
        mask of the ids present; the row of an absent id is meaningless."""
        mol_ids = np.asarray(mol_ids, dtype=np.int64)
        if self._by_id.size == 0:
            return np.zeros(mol_ids.shape, dtype=np.int64), np.zeros(mol_ids.shape, bool)
        pos = np.searchsorted(self._all_ids, mol_ids, sorter=self._by_id)
        rows = np.take(self._by_id, pos, mode="clip")
        return rows, self._all_ids[rows] == mol_ids

    def rows_of(self, mol_ids) -> np.ndarray:
        """Key rows of an array of ids, all of which must be present."""
        rows, present = self.find_rows(mol_ids)
        if not present.all():
            raise KeyError(int(np.asarray(mol_ids)[~present].flat[0]))
        return rows

    def row_of(self, mol_id: int) -> int:
        """Key row of a candidate id, or of the halt row for ``HALT_ID``."""
        return int(self.rows_of(int(mol_id)))

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
        """Index over already-computed raw (unnormalized) key vectors."""
        raw = np.asarray(raw, dtype=np.float32)
        if candidate_ids is None:
            candidate_ids = np.arange(raw.shape[0], dtype=np.int64)
        keys = _normalize_rows(raw)
        if halt_key is not None:
            keys = _append_halt(keys, halt_key)
        return cls(keys, candidate_ids, halt_key is not None)

    def with_halt(self, params: ParamStore) -> "CandidateIndex":
        """Derived snapshot with the current halt key appended (for search)."""
        if self.includes_halt:
            return self
        return CandidateIndex(_append_halt(self.keys, params.tensors["halt_key"].data),
                              self.ids, True)

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
        # highest values so far of each group (a query row, or all rows).
        # The K-th highest of any K entries of a group is a lower bound on
        # its final K-th value, and every entry that can reach the final top
        # K is within the margin of that bound: the floor. Each block is
        # compared once with the floor, and only the entries above it update
        # ``best`` and join the shortlist. Until some group has K values, the
        # block's leading columns enter ``best`` whole, to set the floor for
        # the rest of the block.
        width = max(1, _BLOCK_BYTES // (4 * max(n_queries, 1)))
        lead = max(k, _SEED_BYTES // (4 * max(n_queries, 1)))
        n_groups = n_queries if offsets is None else 1
        group = np.arange(n_queries) if offsets is None \
            else np.zeros(n_queries, dtype=np.int64)
        best = np.full((n_groups, k), -np.inf, dtype=np.float32)
        shift = None if offsets is None else offsets.astype(np.float32)
        found = []
        for lo in range(0, n_rows, width):
            block = q32 @ self.keys[lo:lo + width].T
            inside = (ex_r >= lo) & (ex_r < lo + width)
            block[ex_q[inside], ex_r[inside] - lo] = -np.inf
            seeded = 0
            if np.isneginf(best[:, 0]).all():
                leading = block[:, :lead] if shift is None \
                    else block[:, :lead] + shift[:, None]
                best = _top_k(best, leading.reshape(n_groups, -1), k)
                seeded = leading.shape[1]
            floor = _shortlist_floor(best)[group]
            if shift is not None:
                # Cosines are compared against the floor less their row's
                # offset, so the offsets are added to the survivors only.
                floor = (floor - offsets).astype(np.float32)
            # (flatnonzero then divmod is several times faster than a 2-D nonzero)
            flat = np.flatnonzero(block >= floor[:, None])
            qi, col = np.divmod(flat, block.shape[1])
            value = block.ravel()[flat]
            if shift is not None:
                value += shift[qi]
            if seeded < block.shape[1]:
                fresh = col >= seeded  # the leading columns are in ``best``
                best = _top_k(best, _by_group(group[qi[fresh]], value[fresh], n_groups), k)
                keep = value >= _shortlist_floor(best)[group[qi]]
                qi, col, value = qi[keep], col[keep], value[keep]
            found.append((qi, col + lo, value))
        qi, rows, approx = (np.concatenate(parts) for parts in zip(*found))
        keep = approx >= _shortlist_floor(best)[group[qi]]
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
        rows, present = self.find_rows(np.fromiter(exclude, dtype=np.int64))
        rows, scores = self.topk_rows(np.asarray(query)[None, :], k, [rows[present]])
        found = rows[0] >= 0
        return list(zip(self.all_ids()[rows[0][found]].tolist(),
                        scores[0][found].tolist()))


def _shortlist_floor(best: np.ndarray) -> np.ndarray:
    """Lowest float32 value kept per row of ``best``: the margin below the
    K-th best so far, but above -inf so that excluded entries never pass."""
    return np.maximum(best[:, 0] - _REFINE_MARGIN, _LOWEST32)


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


def _normalize_rows(raw: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(raw, axis=1)
    scale = np.where(norms < 1e-12, 1.0, norms).astype(np.float32)
    return (raw / scale[:, None]).astype(np.float32)


def _append_halt(keys: np.ndarray, halt_key: np.ndarray) -> np.ndarray:
    halt = _normalize_rows(np.asarray(halt_key, dtype=np.float32).reshape(1, -1))
    return np.vstack([keys, halt])


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
    anchor_rows, present = index.find_rows(anchors)
    for anchor, row, inside in zip(anchors, anchor_rows.tolist(), present.tolist()):
        if inside:
            queries.append(index.keys[row])
            excluded.append([row] + halt)
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
    """Read an RCLX cache, the ids and keys straight into their arrays."""
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
        ids = np.empty(n, dtype="<u8")
        keys = np.empty((rows, d), dtype="<f4")
        for array in (ids, keys):
            if fh.readinto(array.reshape(-1).view(np.uint8)) != array.nbytes:
                raise CorruptIndexCache("unexpected file size")
    return CandidateIndex(keys, ids, bool(halt_flag))
