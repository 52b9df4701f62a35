import sys
import threading

import numpy as np
import pytest
from helpers import rclx_bytes

from retroselect import index as index_module
from retroselect import workers
from retroselect.chem import parse_smiles
from retroselect.encoder import embed_molecule
from retroselect.index import (CandidateIndex, CorruptIndexCache, hard_neighbors,
                               load_index, save_index)
from retroselect.scoring import cosine64


def naive_topk(keys, ids, query, k, exclude=()):
    """Full float64 per-row scan oracle with (score desc, id asc) ordering."""
    query64 = np.asarray(query, dtype=np.float64)
    qn = np.linalg.norm(query64)
    rows = []
    for row_index in range(keys.shape[0]):
        mol_id = int(ids[row_index])
        if mol_id in exclude:
            continue
        row = keys[row_index].astype(np.float64)
        rn = np.linalg.norm(row)
        if rn < 1e-12 or qn < 1e-12:
            score = 0.0
        else:
            score = float(np.dot(row, query64)) / (rn * qn)
        rows.append((mol_id, score))
    rows.sort(key=lambda pair: (-pair[1], pair[0]))
    return rows[:k]


def build_random_index(rng, n=50, d=8):
    raw = rng.standard_normal((n, d)).astype(np.float32)
    return CandidateIndex.from_raw_keys(raw, np.arange(n, dtype=np.int64))


def test_build_from_molecules(tiny_params):
    mols = [parse_smiles(s) for s in ("CCO", "c1ccccc1", "CC(N)=O")]
    index = CandidateIndex.build(tiny_params, mols, np.array([10, 20, 30]))
    assert index.keys.shape == (3, tiny_params.dims.d)
    assert index.n_candidates == 3
    assert index.ids.tolist() == [10, 20, 30]
    rebuilt = CandidateIndex.build(tiny_params, mols, np.array([10, 20, 30]))
    assert np.array_equal(index.keys, rebuilt.keys)


def test_rows_match_per_molecule_embeddings(tiny_params):
    mols = [parse_smiles(s) for s in ("CCO", "CNC", "C1CCCCC1")]
    index = CandidateIndex.build(tiny_params, mols)
    for row_index, mol in enumerate(mols):
        vec = embed_molecule(mol, "h", tiny_params)
        vec = vec / np.linalg.norm(vec)
        assert np.abs(index.keys[row_index] - vec).max() < 1e-6


def test_query_topk_self_similarity(rng):
    index = build_random_index(rng)
    query = index.keys[7]
    top = index.query_topk(query, 1)
    assert top[0][0] == 7 and top[0][1] == pytest.approx(1.0)
    top_excluded = index.query_topk(query, 1, exclude={7})
    assert top_excluded[0][0] != 7
    expected = naive_topk(index.keys, index.ids, query, 2, exclude={7})
    assert top_excluded[0][0] == expected[0][0]


def test_query_topk_k_covers_pool(rng):
    index = build_random_index(rng, n=9)
    out = index.query_topk(rng.standard_normal(8), 50)
    assert len(out) == 9
    scores = [s for _, s in out]
    assert scores == sorted(scores, reverse=True)


def test_query_topk_matches_naive_scan(rng):
    for trial in range(30):
        n = int(rng.integers(5, 200))
        d = int(rng.integers(2, 32))
        index = build_random_index(rng, n=n, d=d)
        k = int(rng.integers(1, n + 3))
        exclude = set(rng.choice(n, size=min(n // 3, 5), replace=False).tolist())
        query = rng.standard_normal(d)
        got = index.query_topk(query, k, exclude=exclude)
        expected = naive_topk(index.keys, index.ids, query, k, exclude=exclude)
        assert [i for i, _ in got] == [i for i, _ in expected], trial
        assert np.allclose([s for _, s in got], [s for _, s in expected],
                           rtol=0, atol=0)


def test_query_topk_tie_break_by_id(rng):
    raw = rng.standard_normal((6, 4)).astype(np.float32)
    raw[4] = raw[1]  # exact duplicates produce exact score ties
    raw[5] = raw[1]
    index = CandidateIndex.from_raw_keys(raw)
    got = index.query_topk(raw[1], 3)
    assert [i for i, _ in got] == [1, 4, 5]


def test_query_topk_zero_query_and_zero_rows(rng):
    raw = rng.standard_normal((4, 3)).astype(np.float32)
    raw[2] = 0.0
    index = CandidateIndex.from_raw_keys(raw)
    assert not index.keys[2].any()
    got = index.query_topk(np.zeros(3), 2)
    assert [i for i, _ in got] == [0, 1]
    assert all(s == 0.0 for _, s in got)
    scores = dict(index.query_topk(raw[0], 4))
    assert scores[2] == 0.0


def test_query_scale_invariance(rng):
    index = build_random_index(rng, n=30)
    query = rng.standard_normal(8)
    base = index.query_topk(query, 10)
    for factor in (0.001, 7.0, 123456.0):
        scaled = index.query_topk(query * factor, 10)
        assert [i for i, _ in scaled] == [i for i, _ in base]


# --- batched kernel: topk_rows ---

def naive_topk_rows(index, queries, k, exclude_rows):
    """One full float64 scan per query: the oracle for ``topk_rows``."""
    return [naive_topk(index.keys, index.ids, query, k,
                       exclude={int(index.ids[r]) for r in excluded})
            for query, excluded in zip(queries, exclude_rows)]


def kernel_lists(index, rows, scores):
    """``topk_rows`` output as per-query (id, score) lists, checking that
    every slot past a query's valid rows is padded with -1 and -inf."""
    out = []
    for line_rows, line_scores in zip(rows, scores):
        valid = line_rows >= 0
        n_valid = int(valid.sum())
        assert valid[:n_valid].all() and not valid[n_valid:].any()
        assert np.all(line_scores[n_valid:] == -np.inf)
        out.append([(int(index.ids[r]), float(s))
                    for r, s in zip(line_rows[:n_valid], line_scores[:n_valid])])
    return out


def plant_near_ties(index, rows, rng):
    """Make ``rows`` copies of one key, each coordinate nudged by up to two
    float32 ulps: their cosines with a query near that key differ by less
    than the float32 scan can resolve. Returns the shared key in float64."""
    base = index.keys[rows[0]].copy()
    for row in rows:
        steps = rng.integers(-2, 3, size=base.shape[0]).astype(np.float32)
        index.keys[row] = base + steps * np.spacing(np.abs(base))
    return base.astype(np.float64)


def random_exclusions(rng, n_queries, n_rows, most=5):
    return [rng.choice(n_rows, size=int(rng.integers(0, most + 1)),
                       replace=False).tolist() for _ in range(n_queries)]


def test_topk_rows_matches_naive_scan_with_exclusions(rng):
    for trial in range(20):
        n = int(rng.integers(5, 300))
        d = int(rng.integers(2, 24))
        index = build_random_index(rng, n=n, d=d)
        n_rows = index.keys.shape[0]
        queries = rng.standard_normal((int(rng.integers(1, 25)), d))
        k = int(rng.integers(1, n + 3))
        exclude = random_exclusions(rng, queries.shape[0], n_rows)
        rows, scores = index.topk_rows(queries, k, exclude)
        assert rows.shape == scores.shape == (queries.shape[0], min(k, n_rows))
        assert kernel_lists(index, rows, scores) == \
            naive_topk_rows(index, queries, k, exclude), trial


def test_topk_rows_zero_keys_and_zero_queries(rng):
    raw = rng.standard_normal((40, 5)).astype(np.float32)
    raw[[3, 17, 30]] = 0.0
    index = CandidateIndex.from_raw_keys(raw, rng.permutation(40) + 100)
    queries = rng.standard_normal((6, 5))
    queries[[1, 4]] = 0.0
    exclude = random_exclusions(rng, 6, 40)
    for k in (1, 4, 40):
        rows, scores = index.topk_rows(queries, k, exclude)
        got = kernel_lists(index, rows, scores)
        assert got == naive_topk_rows(index, queries, k, exclude)
        # A zero query scores 0 everywhere, so it lists the lowest ids.
        assert all(s == 0.0 for _, s in got[1])
        assert [i for i, _ in got[1]] == sorted(i for i, _ in got[1])


def test_topk_rows_exact_ties_resolve_to_ascending_id(rng):
    raw = rng.standard_normal((12, 4)).astype(np.float32)
    raw[[2, 5, 9, 11]] = raw[7]
    ids = np.array([40, 8, 31, 2, 90, 5, 77, 60, 13, 1, 50, 20])
    index = CandidateIndex.from_raw_keys(raw, ids)
    rows, scores = index.topk_rows(np.stack([raw[7], raw[7]]), 3, [[], [9]])
    # Rows 2, 5, 7, 9 and 11 (ids 31, 5, 60, 1, 20) tie exactly.
    assert index.ids[rows[0]].tolist() == [1, 5, 20]
    assert index.ids[rows[1]].tolist() == [5, 20, 31]
    assert scores[0][0] == scores[0][1] == scores[0][2]


def test_topk_rows_planted_near_ties(rng):
    index = build_random_index(rng, n=200, d=16)
    tied = rng.choice(200, size=40, replace=False)
    base = plant_near_ties(index, tied, rng)
    queries = base + 1e-3 * rng.standard_normal((8, 16))
    approx = index.keys[tied] @ queries.T.astype(np.float32)
    exact = np.array([[cosine64(q, index.keys[r]) for q in queries] for r in tied])
    # The float32 scan orders the planted rows differently from float64.
    assert any((np.argsort(-approx[:, j], kind="stable")
                != np.argsort(-exact[:, j], kind="stable")).any() for j in range(8))
    for k in (1, 5, 20, 40, 41):
        rows, scores = index.topk_rows(queries, k)
        assert kernel_lists(index, rows, scores) == \
            naive_topk_rows(index, queries, k, [[]] * 8)


def test_topk_rows_spans_column_blocks(rng, monkeypatch):
    d, n_queries = 3, 7
    monkeypatch.setattr(index_module, "_BLOCK_BYTES", 4 * n_queries * 64)
    index = build_random_index(rng, n=300, d=d)
    assert index.keys.shape[0] >= 3 * 64
    groups = rng.permutation(300)[:30].reshape(3, 10)
    queries = [plant_near_ties(index, group, rng) for group in groups]
    queries = np.stack(queries + [rng.standard_normal(d) for _ in range(4)])
    exclude = random_exclusions(rng, n_queries, index.keys.shape[0], most=20)
    for k in (1, 6, 10, 65, 400):
        rows, scores = index.topk_rows(queries, k, exclude)
        assert kernel_lists(index, rows, scores) == \
            naive_topk_rows(index, queries, k, exclude)


def naive_topk_pairs(lines, offsets, k):
    """Oracle for ``topk_pairs`` from each query's naive ranking (``lines``,
    as from ``naive_topk_rows``): the K highest ``offset + cosine`` totals of
    the queries' top K rows, by (-total, query, id)."""
    pairs = [(offsets[q] + score, q, mol_id)
             for q, line in enumerate(lines) for mol_id, score in line[:k]]
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
    return [(q, mol_id, total) for total, q, mol_id in pairs[:k]]


def monotone_index(rng, n, d, width, rising):
    """Keys whose cosine with the first axis rises (or falls) with the row,
    so that for queries near that axis every column block of ``width`` rows
    beats all earlier ones (or loses to them). Around the block boundary
    nearest ``n // 2``, eight rows become float32-ulp copies of one key
    (four on each side), flanked by a key a few 1e-5 above them and one a
    few 1e-5 below, inside the scan's margin. Returns the index, queries
    near the axis and the planted rows."""
    angles = np.linspace(1.4, 0.05, n) if rising else np.linspace(0.05, 1.4, n)
    other = rng.standard_normal((n, d - 1))
    other /= np.linalg.norm(other, axis=1, keepdims=True)
    boundary = (n // 2) // width * width
    ties = np.arange(boundary - 5, boundary + 5)
    angles[ties] = angles[boundary] + np.array([-3e-5] + [0.0] * 8 + [5e-5])
    other[ties] = other[boundary]
    raw = np.hstack([np.cos(angles)[:, None], np.sin(angles)[:, None] * other])
    index = CandidateIndex.from_raw_keys(raw.astype(np.float32), rng.permutation(n) * 2)
    queries = np.eye(1, d) + 1e-4 * rng.standard_normal((12, d))
    # Plant the copies until, for some query, float32 puts a copy after the
    # boundary below all four before it while float64 puts it above one of
    # them: a scan whose floor sits on the lowest copy before the boundary
    # needs the margin to keep it.
    base = index.keys[boundary].copy()
    for _ in range(200):
        index.keys[ties[1]] = base
        plant_near_ties(index, ties[1:-1], rng)
        approx = queries.astype(np.float32) @ index.keys[ties].T
        exact = np.array([[cosine64(q, index.keys[r]) for r in ties] for q in queries])
        below_all = approx[:, 5:9] < approx[:, 1:5].min(axis=1, keepdims=True)
        above_one = exact[:, 5:9] > exact[:, 1:5].min(axis=1, keepdims=True)
        if np.any(below_all & above_one):
            break
    else:
        raise AssertionError("no float32 misorder across the boundary")
    cosines = np.array([[cosine64(q, key) for key in index.keys] for q in queries])
    rise = cosines if rising else -cosines
    untied = np.setdiff1d(np.arange(n), ties)
    blocks = untied[:untied.shape[0] // width * width].reshape(-1, width)
    assert np.all(rise[:, blocks[1:, 0]] > rise[:, blocks[:-1, -1]])
    assert np.all(np.diff(rise[:, untied], axis=1) > 0)
    return index, queries, ties


@pytest.mark.parametrize("rising", [True, False])
@pytest.mark.parametrize("width", [7, 32])
def test_topk_rows_and_pairs_adversarial_block_order(rng, monkeypatch, width, rising):
    n, d, n_queries = 160, 6, 12
    # The first floor comes from the K highest of max(K, 3) leading columns.
    monkeypatch.setattr(index_module, "_SEED_BYTES", 4 * n_queries * 3)
    index, queries, ties = monotone_index(rng, n, d, width, rising)
    # Queries 1 and 3 may not return any row of the first block; query 3
    # loses half the pool. The others exclude a few rows.
    exclude = random_exclusions(rng, n_queries, n, most=4)
    exclude[1] = list(range(width))
    exclude[3] = list(range(n // 2))
    # Offsets within the margin of each other tie totals across queries.
    offsets = 0.3 + rng.choice([0.0, 2e-5, -1e-5, -4e-5], size=n_queries)
    # Every K, from below one block's width to past the whole pool: some put
    # the K-th highest row of a query on the near-ties across the boundary.
    lines = naive_topk_rows(index, queries, n + 2, exclude)
    # Blocks of ``width`` columns, dealt round-robin to one, two and three
    # scan workers: within each worker's share, later blocks beat (or lose
    # to) earlier ones.
    for count in (1, 2, 3):
        monkeypatch.setattr(workers, "COUNT", count)
        monkeypatch.setattr(index_module, "_BLOCK_BYTES", 4 * n_queries * width * count)
        for k in range(1, n + 3):
            rows, scores = index.topk_rows(queries, k, exclude)
            assert kernel_lists(index, rows, scores) == [line[:k] for line in lines], k
            qi, rows, totals = index.topk_pairs(queries, offsets, k, exclude)
            got = list(zip(qi.tolist(), index.ids[rows].tolist(), totals.tolist()))
            assert got == naive_topk_pairs(lines, offsets, k), (count, k)


def test_concurrent_scans_share_the_pool(rng, monkeypatch):
    # Six callers at once, each scan dealt over four workers in one-column
    # blocks, with the interpreter switching threads as often as it can:
    # every caller gets the single-threaded result.
    index = build_random_index(rng, n=200, d=5)
    plant_near_ties(index, rng.choice(200, size=20, replace=False), rng)
    queries = rng.standard_normal((6, 5))
    offsets = rng.choice([0.2, 0.2 + 2e-5], size=6)
    exclude = random_exclusions(rng, 6, 200, most=8)
    monkeypatch.setattr(index_module, "_SEED_BYTES", 4)
    monkeypatch.setattr(index_module, "_BLOCK_BYTES", 4 * 6 * 4)

    def both():
        rows = index.topk_rows(queries, 9, exclude)
        pairs = index.topk_pairs(queries, offsets, 25, exclude)
        return [array.tobytes() for array in rows + pairs]

    monkeypatch.setattr(workers, "COUNT", 1)
    expected = both()
    monkeypatch.setattr(workers, "COUNT", 4)
    results = []
    callers = [threading.Thread(target=lambda: results.extend(both() for _ in range(5)))
               for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert results == [expected] * 30


def test_scan_margin_bounds_float32_error_at_large_width(rng, monkeypatch):
    d, u = 4096, 2.0 ** -24
    # Blocks of 16 columns after a 3-column seed, so floors rise across them.
    monkeypatch.setattr(index_module, "_BLOCK_BYTES", 4 * 5 * 16)
    monkeypatch.setattr(index_module, "_SEED_BYTES", 4 * 5 * 3)
    margin = index_module._scan_margin(d, None)
    # The float32 dot alone may err by d u (Higham, section 3.1), and the
    # query's rounding and the key's norm add about (d/2 + 3) u more: twice
    # their sum is past the fixed 1e-4, which the margin still is at d = 256.
    assert 2 * (1.5 * d + 3) * u > 2 * d * u > index_module._REFINE_MARGIN
    assert margin >= 2 * (1.5 * d + 3) * u
    assert index_module._scan_margin(256, np.array([-3.0, 4.0])) == \
        index_module._REFINE_MARGIN
    assert index_module._scan_margin(d, np.array([1e3])) > margin
    index = build_random_index(rng, n=120, d=d)
    tied = rng.choice(120, size=30, replace=False)
    base = plant_near_ties(index, tied, rng)
    queries = base + 1e-3 * rng.standard_normal((5, d))
    q32 = (queries / np.linalg.norm(queries, axis=1, keepdims=True)).astype(np.float32)
    exact = np.array([[cosine64(q, key) for key in index.keys] for q in queries])
    assert np.abs(q32 @ index.keys.T - exact).max() <= margin / 2
    exclude = random_exclusions(rng, 5, 120, most=6)
    offsets = 1.0 + rng.choice([0.0, 3e-4, -2e-4], size=5)
    lines = naive_topk_rows(index, queries, 121, exclude)
    for k in (1, 4, 29, 31, 60, 121):
        rows, scores = index.topk_rows(queries, k, exclude)
        assert kernel_lists(index, rows, scores) == [line[:k] for line in lines], k
        qi, rows, totals = index.topk_pairs(queries, offsets, k, exclude)
        got = list(zip(qi.tolist(), index.ids[rows].tolist(), totals.tolist()))
        assert got == naive_topk_pairs(lines, offsets, k), k


def test_topk_rows_k_at_or_above_valid_rows(rng):
    index = build_random_index(rng, n=10, d=4)
    queries = rng.standard_normal((3, 4))
    exclude = [[], [0, 4, 9], list(range(10))]
    for k in (7, 10, 25):
        rows, scores = index.topk_rows(queries, k, exclude)
        assert rows.shape == (3, min(k, 10))
        got = kernel_lists(index, rows, scores)
        assert [len(line) for line in got] == [min(k, 10), min(k, 7), 0]
        assert got == naive_topk_rows(index, queries, k, exclude)


def test_topk_pairs_k_above_all_pairs(rng):
    # No result holds more than queries x rows pairs, so a larger K returns
    # the same arrays, and allocates nothing of K's size.
    index = build_random_index(rng, n=10, d=4)
    queries = rng.standard_normal((3, 4))
    offsets = rng.standard_normal(3)
    exclude = [[], [0, 4, 9], list(range(10))]
    for excluded in (None, exclude):
        every = index.topk_pairs(queries, offsets, 3 * 10, excluded)
        got = index.topk_pairs(queries, offsets, 10**11, excluded)
        assert all(np.array_equal(a, b) for a, b in zip(got, every))
        assert every[0].shape == (30 if excluded is None else 10 + 7,)


def test_topk_rows_rejects_bad_exclusions(rng):
    index = build_random_index(rng, n=5, d=3)
    with pytest.raises(ValueError):
        index.topk_rows(rng.standard_normal((2, 3)), 2, [[1]])
    with pytest.raises(IndexError):
        index.topk_rows(rng.standard_normal((1, 3)), 2, [[5]])
    with pytest.raises(ValueError):
        index.topk_rows(rng.standard_normal((1, 3)), 0)


def test_hard_neighbors_contract(rng):
    index = build_random_index(rng, n=20)
    assert hard_neighbors(index, [1, 2], 0) == set()
    out = hard_neighbors(index, [3, 4], 2)
    assert 3 not in index.query_topk(index.keys[3], 2, exclude={3})
    assert out <= set(range(20))
    assert len(out) <= 2 * 2
    # Anchors never return themselves.
    for anchor in (3, 4):
        assert anchor not in hard_neighbors(index, [anchor], 2)


def test_hard_neighbors_external_anchor(rng):
    index = build_random_index(rng, n=10)
    probe = rng.standard_normal(8)
    out = hard_neighbors(index, [999], 3, embed_query=lambda _id: probe)
    assert len(out) == 3
    with pytest.raises(KeyError):
        hard_neighbors(index, [999], 3)


def test_hard_neighbors_match_per_anchor_naive_scan(rng, monkeypatch):
    monkeypatch.setattr(index_module, "_BLOCK_BYTES", 4 * 5 * 32)
    index = build_random_index(rng, n=120, d=6)
    plant_near_ties(index, rng.choice(120, size=10, replace=False), rng)
    probe = rng.standard_normal(6)
    anchors = [7, 31, 999, 64, 7]
    for k in (1, 3, 8):
        got = hard_neighbors(index, anchors, k, embed_query=lambda _id: probe)
        expected = set()
        for anchor in set(anchors):
            query = index.keys[index.rows_of(anchor)] if anchor in index.ids else probe
            expected |= {i for i, _ in naive_topk(index.keys, index.ids, query,
                                                  k, exclude={anchor})}
        assert got == expected


def test_index_cache_round_trip(tmp_path, rng):
    index = build_random_index(rng, n=12, d=6)
    path = tmp_path / "cache.rclx"
    save_index(index, str(path))
    blob = path.read_bytes()
    assert blob[:4] == b"RCLX" and blob[index_module._HEADER.size - 1] == 0
    loaded = load_index(str(path))
    assert np.array_equal(loaded.keys, index.keys)
    assert np.array_equal(loaded.ids, index.ids)
    save_index(loaded, str(tmp_path / "again.rclx"))
    assert (tmp_path / "again.rclx").read_bytes() == blob


def test_failed_cache_write_keeps_previous_file(tmp_path, rng, monkeypatch):
    path = tmp_path / "cache.rclx"
    save_index(build_random_index(rng, n=4, d=3), str(path))
    before = path.read_bytes()

    def failing(*args, **kwargs):  # the keys, after the header and the ids
        raise OSError("disk full")

    monkeypatch.setattr(np, "ascontiguousarray", failing)
    with pytest.raises(OSError, match="disk full"):
        save_index(build_random_index(rng, n=5, d=3), str(path))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.rclx"]


def test_index_cache_corruption(tmp_path, rng):
    index = build_random_index(rng, n=4, d=3)
    path = tmp_path / "cache.rclx"
    save_index(index, str(path))
    blob = path.read_bytes()
    bad = {"trunc": blob[:-5], "magic": b"XXXX" + blob[4:], "empty": b"",
           "repeated-id": rclx_bytes([0, 1, 1, 3], index.keys),
           "id-2**63": rclx_bytes([0, 1, 2**63, 3], index.keys)}
    for name, value in (("inf", np.inf), ("nan", np.nan)):
        keys = index.keys.copy()
        keys[2, 1] = value
        bad[name] = rclx_bytes(index.ids, keys)
    for name, data in bad.items():
        (tmp_path / f"{name}.rclx").write_bytes(data)
        with pytest.raises(CorruptIndexCache):
            load_index(str(tmp_path / f"{name}.rclx"))


def test_index_cache_halt_row_is_dropped(tmp_path, rng):
    # A v1 file whose flag byte is set holds one more key row, which is not
    # read: the index is the pool's keys and ids only.
    index = build_random_index(rng, n=6, d=4)
    halt = rng.standard_normal((1, 4)).astype("<f4")
    path = tmp_path / "halt.rclx"
    path.write_bytes(rclx_bytes(index.ids, index.keys, halt_flag=1, tail=halt.tobytes()))
    loaded = load_index(str(path))
    assert loaded.keys.tobytes() == index.keys.tobytes()
    assert np.array_equal(loaded.ids, index.ids)
    # Written again, the file has no flag and no halt row.
    save_index(loaded, str(tmp_path / "plain.rclx"))
    assert (tmp_path / "plain.rclx").read_bytes() == rclx_bytes(index.ids, index.keys)


def test_from_raw_keys_ignores_halt_key(rng):
    raw = rng.standard_normal((7, 5)).astype(np.float32)
    ids = rng.permutation(7) + 10
    plain = CandidateIndex.from_raw_keys(raw, ids)
    given = CandidateIndex.from_raw_keys(raw, ids, halt_key=rng.standard_normal(5))
    assert given.keys.shape == (7, 5)
    assert given.keys.tobytes() == plain.keys.tobytes()
    assert np.array_equal(given.ids, plain.ids)
