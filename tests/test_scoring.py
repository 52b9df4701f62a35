import itertools

import numpy as np
import pytest

from retroselect.scoring import (MAX_PERM_THRESHOLD, ProductInReactants, _forward_scores,
                                 best_order, cosine64, cosine_table, reaction_score)


def unit(vec):
    vec = np.asarray(vec, dtype=np.float64)
    return vec / np.linalg.norm(vec)


def cosine_score(keys):
    """Step scores against member keys: [n, d] shared by every set of the
    batch, or [m, n, d] one block per set."""
    return lambda queries: cosine_table(queries, keys)


def test_psi_stub_identities(rng):
    key = rng.standard_normal(8)
    for sign in (1.0, -1.0):
        _, total, _ = best_order(key[None], np.zeros((1, 1, 8)),
                                 cosine_score(sign * key[None, :]), 5)
        assert total[0] == pytest.approx(sign)


def test_psi_zero_convention():
    zero, ones = np.zeros((1, 4)), np.ones((1, 4))
    assert best_order(zero, ones[None], cosine_score(ones), 5)[1][0] == 0.0
    assert best_order(ones, ones[None], cosine_score(zero), 5)[1][0] == 0.0


def phi(rows, h_p, v_bias=None):
    """The forward score of one set of g rows, through the batched kernel."""
    g = np.array(rows, dtype=np.float64).reshape(1, len(rows), h_p.shape[0])
    return float(_forward_scores(g, h_p, v_bias)[0])


def test_phi_conventions(rng):
    h_p = rng.standard_normal(6)
    assert phi([], h_p) == 0.0
    assert phi([h_p], h_p) == pytest.approx(1.0)
    a, b = rng.standard_normal(6), rng.standard_normal(6)
    assert phi([a, b], h_p) == phi([b, a], h_p)


def test_phi_type_bias_shifts_query(rng):
    h_p = rng.standard_normal(6)
    g = rng.standard_normal(6)
    bias = rng.standard_normal(6)
    assert phi([g], h_p, v_bias=bias) == pytest.approx(cosine64(g + bias, h_p))


def test_incremental_query_matches_recompute(rng):
    f_p = rng.standard_normal(8)
    gs = rng.standard_normal((4, 8))
    direct = f_p - np.sum(gs, axis=0)
    for threshold in (5, 3):  # exhaustive, then greedy
        _, _, final = best_order(f_p[None], gs[None], cosine_score(gs), threshold)
        assert np.abs(final[0] - direct).max() < 1e-12


def oracle_best_order(start, g, h):
    """First maximum over itertools orders of the summed cosine64 steps."""
    best, best_total = None, -np.inf
    for perm in itertools.permutations(range(len(g))):
        query, total = start.copy(), 0.0
        for p in perm:
            total += cosine64(query, h[p])
            query = query - g[p]
        if total > best_total:
            best, best_total = perm, total
    return best, best_total


def test_best_order_matches_itertools_oracle(rng):
    for n in range(6):
        cases = []
        for _ in range(5):
            start = rng.standard_normal(6)
            g, h = rng.standard_normal((n, 6)), rng.standard_normal((n, 6))
            orders, totals, finals = best_order(start[None], g[None], cosine_score(h), 5)
            want, want_total = oracle_best_order(start, g, h)
            assert tuple(orders[0].tolist()) == want
            assert abs(totals[0] - want_total) <= 1e-12
            assert np.abs(finals[0] - (start - g.sum(axis=0))).max() < 1e-12
            cases.append((start, g, h))
        # A batch of five gives each set its result in a batch of one bit
        # for bit, exhaustive and greedy.
        start, g, h = (np.stack([case[i] for case in cases]) for i in range(3))
        for threshold in (5, max(n - 1, 0)):
            orders, totals, finals = best_order(start, g, cosine_score(h), threshold)
            for row, (one_start, one_g, one_h) in enumerate(cases):
                alone = best_order(one_start[None], one_g[None], cosine_score(one_h),
                                   threshold)
                assert np.array_equal(orders[row], alone[0][0])
                assert totals[row] == alone[1][0]
                assert np.array_equal(finals[row], alone[2][0])


def test_best_order_exact_ties_take_smallest_order(rng):
    start = rng.standard_normal(6)
    same = np.tile(rng.standard_normal(6), (4, 1))
    for threshold in (5, 3):  # exhaustive, then greedy
        orders = best_order(start[None], same[None], cosine_score(same), threshold)[0]
        assert orders.tolist() == [[0, 1, 2, 3]]
    # Rows 0/1 and 2/3 are duplicates: the best order must take each pair
    # in ascending position, whatever the winning interleaving.
    for _ in range(10):
        a, b = rng.standard_normal((2, 6))
        g = np.array([a, a, b, b])
        keys = rng.standard_normal((2, 6))
        h = keys[[0, 0, 1, 1]]
        orders, totals, _ = best_order(start[None], g[None], cosine_score(h), 5)
        positions = orders[0].tolist()
        assert positions.index(0) < positions.index(1)
        assert positions.index(2) < positions.index(3)
        assert abs(totals[0] - oracle_best_order(start, g, h)[1]) <= 1e-12
    ids = {4: a, 9: a}
    scored = reaction_score(start, start, ids, {4: keys[0], 9: keys[0]},
                            rng.standard_normal(6))
    assert scored.best_order == (4, 9)


def test_best_order_greedy_matches_loop_oracle(rng):
    start = rng.standard_normal(5)
    g, h = rng.standard_normal((7, 5)), rng.standard_normal((7, 5))
    calls = []

    def score(queries):
        calls.append(queries.shape[:2])
        return cosine_table(queries, h)

    orders, totals, finals = best_order(start[None], g[None], score, 5)
    assert calls == [(1, 1)] * 7
    query, remaining, want, want_total = start.copy(), list(range(7)), [], 0.0
    while remaining:
        pick = max(remaining, key=lambda p: (cosine64(query, h[p]), -p))
        want_total += cosine64(query, h[pick])
        query = query - g[pick]
        remaining.remove(pick)
        want.append(pick)
    assert orders[0].tolist() == want
    assert abs(totals[0] - want_total) <= 1e-12
    assert np.abs(finals[0] - query).max() < 1e-12


def test_best_order_rejects_threshold_outside_table_range():
    for threshold in (-1, MAX_PERM_THRESHOLD + 1):
        with pytest.raises(ValueError):
            best_order(np.ones((1, 3)), np.ones((1, 2, 3)), cosine_score(np.ones((2, 3))),
                       threshold)


def test_best_permutation_empty_is_halt_only(rng):
    # An empty set has no order to choose: no step terms, the query stays the
    # product query, and the selection total is the halt term alone.
    f_p, h_p, halt = (rng.standard_normal(5) for _ in range(3))
    empty = np.zeros((0, 5))
    order, steps, final = best_order(f_p[None], empty[None], cosine_score(empty), 6)
    assert order.shape == (1, 0) and steps[0] == 0.0
    np.testing.assert_array_equal(final[0], f_p)
    scored = reaction_score(f_p, h_p, {}, {}, halt)
    assert scored.best_order == ()
    assert scored.score * 2.0 == pytest.approx(cosine64(f_p, halt))


def test_reaction_score_single(rng):
    f_p, h_p, halt = (rng.standard_normal(5) for _ in range(3))
    g = {7: rng.standard_normal(5)}
    h = {7: rng.standard_normal(5)}
    scored = reaction_score(f_p, h_p, g, h, halt)
    assert scored.best_order == (7,)
    expected = cosine64(f_p, h[7]) + cosine64(f_p - g[7], halt) + cosine64(g[7], h_p)
    assert scored.score == pytest.approx(expected / 3.0)


def test_reaction_score_matches_enumeration_oracle(rng):
    for _ in range(10):
        f_p, h_p, halt = (rng.standard_normal(6) for _ in range(3))
        ids = [3, 11, 42]
        g = {i: rng.standard_normal(6) for i in ids}
        h = {i: rng.standard_normal(6) for i in ids}
        scored = reaction_score(f_p, h_p, g, h, halt)
        best = -np.inf
        for perm in itertools.permutations(ids):
            query = f_p.copy()
            value = 0.0
            for chosen in perm:
                value += cosine64(query, h[chosen])
                query = query - g[chosen]
            value += cosine64(query, halt)
            best = max(best, value)
        forward = cosine64(sum(g[i] for i in ids), h_p)
        expected = (best + forward) / (len(ids) + 2)
        assert scored.score == pytest.approx(expected, abs=1e-12)
        assert set(scored.best_order) == set(ids)


def test_greedy_path_above_threshold(rng):
    ids = list(range(7))
    f_p, h_p, halt = (rng.standard_normal(4) for _ in range(3))
    g = {i: rng.standard_normal(4) for i in ids}
    h = {i: rng.standard_normal(4) for i in ids}
    scored = reaction_score(f_p, h_p, g, h, halt, perm_threshold=5)
    assert sorted(scored.best_order) == ids
    again = reaction_score(f_p, h_p, g, h, halt, perm_threshold=5)
    assert scored == again


def test_reaction_score_empty_set(rng):
    f_p = rng.standard_normal(5)
    h_p = rng.standard_normal(5)
    halt = rng.standard_normal(5)
    scored = reaction_score(f_p, h_p, {}, {}, halt)
    assert scored.score == pytest.approx(cosine64(f_p, halt) / 2.0)
    assert scored.reactant_ids == () and scored.best_order == ()


def test_reaction_score_bounded(rng):
    for _ in range(50):
        n = int(rng.integers(0, 5))
        ids = list(range(n))
        f_p, h_p, halt = (rng.standard_normal(6) for _ in range(3))
        g = {i: rng.standard_normal(6) for i in ids}
        h = {i: rng.standard_normal(6) for i in ids}
        scored = reaction_score(f_p, h_p, g, h, halt)
        assert -1.0 <= scored.score <= 1.0


def test_reaction_score_order_invariant_bitwise(rng):
    f_p, h_p, halt = (rng.standard_normal(6) for _ in range(3))
    ids = [9, 2, 31, 17]
    g = {i: rng.standard_normal(6) for i in ids}
    h = {i: rng.standard_normal(6) for i in ids}
    baseline = None
    for perm in itertools.permutations(ids):
        g_shuffled = {i: g[i] for i in perm}
        h_shuffled = {i: h[i] for i in perm}
        scored = reaction_score(f_p, h_p, g_shuffled, h_shuffled, halt)
        if baseline is None:
            baseline = scored
        else:
            assert scored.score == baseline.score  # exact equality
            assert scored.reactant_ids == baseline.reactant_ids
            assert scored.best_order == baseline.best_order


def test_reaction_score_product_exclusion(rng):
    f_p, h_p, halt = (rng.standard_normal(4) for _ in range(3))
    g = {5: rng.standard_normal(4)}
    h = {5: rng.standard_normal(4)}
    with pytest.raises(ProductInReactants):
        reaction_score(f_p, h_p, g, h, halt, product_id=5)


def test_zero_type_bias_matches_untyped(rng):
    f_p, h_p, halt = (rng.standard_normal(6) for _ in range(3))
    ids = [1, 4]
    g = {i: rng.standard_normal(6) for i in ids}
    h = {i: rng.standard_normal(6) for i in ids}
    plain = reaction_score(f_p, h_p, g, h, halt)
    biased = reaction_score(f_p, h_p, g, h, halt,
                            u_bias=np.zeros(6), v_bias=np.zeros(6))
    assert plain.score == biased.score
