import importlib
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from retroselect import autodiff as ad

from helpers import composed_affine_batchnorm, mul, new_bn_state, relative_error


def fd_check(make_loss, params, h=1e-5, tol=1e-6, samples=6, seed=0):
    """Central finite differences against reverse-mode gradients (float64)."""
    for p in params:
        p.grad = None
    loss = make_loss()
    ad.backward(loss)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for p in params:
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        for i in rng.choice(flat.size, size=min(samples, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            up = make_loss().item()
            flat[i] = orig - h
            down = make_loss().item()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            worst = max(worst, relative_error(fd, gflat[i]))
    assert worst < tol, worst
    return worst


# --- linear ---

def test_linear_identity():
    x = ad.constant(np.array([[1.0, 2.0]]))
    w = ad.constant(np.eye(2))
    assert np.array_equal(ad.linear(x, w).data, [[1.0, 2.0]])


def test_linear_zeros():
    x = ad.constant(np.zeros((3, 4)))
    w = ad.constant(np.ones((4, 2)))
    assert np.all(ad.linear(x, w).data == 0)


def test_linear_matches_triple_loop_oracle(rng):
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 2))
    b = rng.standard_normal(2)
    out = ad.linear(ad.constant(x), ad.constant(w), ad.constant(b)).data
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            acc = b[j]
            for k in range(4):
                acc += x[i, k] * w[k, j]
            expected[i, j] = acc
    assert np.abs(out - expected).max() < 1e-6


def test_linear_shape_mismatch():
    with pytest.raises(ad.ShapeMismatch):
        ad.linear(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((4, 2))))


# --- relu ---

def test_relu_values_and_gradient():
    x = ad.parameter(np.array([-1.0, 0.0, 2.0]))
    out = ad.relu(x)
    assert out.data.tolist() == [0.0, 0.0, 2.0]
    ad.backward(ad.sum_all(out))
    # Strict x > 0 gate: subgradient at 0 is 0.
    assert x.grad.tolist() == [0.0, 0.0, 1.0]
    y = ad.parameter(np.array([-3.0, -0.5]))
    assert np.all(ad.relu(y).data == 0)


# --- batchnorm ---

def _identity_site(x, state, mode="train"):
    """Batch norm of x alone: one identity term and a zero bias."""
    width = state.width
    return ad.affine_batchnorm([(x, ad.constant(np.eye(width, dtype=x.dtype)))],
                               ad.constant(np.zeros(width, dtype=x.dtype)), state, mode)


def test_batchnorm_two_point_train():
    state = new_bn_state(1, dtype=np.float64)
    out = _identity_site(ad.constant(np.array([[1.0], [3.0]])), state)
    assert np.abs(out.data - np.array([[-1.0], [1.0]])).max() < 1e-2
    assert np.abs(state.running_mean[0] - 0.2) < 1e-12          # 0.1 * mean 2
    assert np.abs(state.running_var[0] - (0.9 + 0.1 * 2.0)) < 1e-12  # unbiased var 2


def test_batchnorm_eval_identity():
    state = new_bn_state(3, dtype=np.float64)
    x = np.random.default_rng(0).standard_normal((4, 3))
    out = _identity_site(ad.constant(x), state, "eval")
    assert np.abs(out.data - x).max() < 1e-4  # epsilon-perturbed identity


def test_batchnorm_degenerate_batch():
    state = new_bn_state(2)
    with pytest.raises(ad.DegenerateBatch):
        _identity_site(ad.constant(np.zeros((1, 2), dtype=np.float32)), state)
    one_row = ad.constant(np.zeros((1, 2)))
    with pytest.raises(ad.DegenerateBatch):
        ad.affine_batchnorm([(one_row, ad.constant(np.eye(2))),
                             (one_row, ad.constant(np.ones((2, 2))))],
                            ad.constant(np.zeros(2)), state, "train", residual=one_row)


def test_batchnorm_backward_finite_differences(rng):
    state = new_bn_state(3, dtype=np.float64)
    state.gamma.data[:] = rng.uniform(0.5, 1.5, 3)
    state.beta.data[:] = rng.standard_normal(3)
    x = ad.parameter(rng.standard_normal((4, 3)))
    weights = ad.constant(rng.standard_normal((4, 3)))

    def loss():
        return ad.sum_all(mul(_identity_site(x, state), weights))
    fd_check(loss, [x, state.gamma, state.beta])


def _random_bn_site(rng, n=6, widths=(4, 2), d=3, dtype=np.float64):
    """Inputs of one affine + batch-norm site: one (x, w) term per width, a
    bias, a residual and non-trivial running statistics, gamma and beta."""
    def normal(*shape):
        return rng.standard_normal(shape).astype(dtype)
    state = new_bn_state(d, dtype=dtype)
    state.running_mean[:] = normal(d)
    state.running_var[:] = rng.uniform(0.3, 3.0, d)
    state.gamma.data[:] = rng.uniform(-1.5, 1.5, d)
    state.beta.data[:] = normal(d)
    terms = [(ad.parameter(normal(n, k)), ad.parameter(normal(k, d))) for k in widths]
    return terms, ad.parameter(normal(d)), state, ad.parameter(normal(n, d))


def test_eval_site_records_no_tape(rng):
    # Eval mode is forward only: on trainable inputs the site's output is a
    # constant with no parents and no backward, so nothing reaches them.
    terms, b, state, residual = _random_bn_site(rng)
    params = [t for pair in terms for t in pair] + [b, state.gamma, state.beta, residual]
    for relu in (False, True):
        out = ad.affine_batchnorm(terms, b, state, "eval", residual, relu=relu)
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
        ad.backward(ad.sum_all(out))
        assert all(p.grad is None for p in params)


def test_affine_batchnorm_eval_fold_matches_unfolded(rng):
    for trial in range(5):
        terms, b, state, residual = _random_bn_site(rng, n=7, widths=(5, 3, 2)[:1 + trial % 3])
        for res in (None, residual):
            out = ad.affine_batchnorm(terms, b, state, "eval", res).data
            pre = sum(x.data @ w.data for x, w in terms) + b.data
            if res is not None:
                pre = pre + res.data
            unfolded = ((pre - state.running_mean) / np.sqrt(state.running_var + ad.BN_EPSILON)
                        * state.gamma.data + state.beta.data)
            assert np.abs(out - unfolded).max() <= 1e-12 * np.abs(unfolded).max()


def test_affine_batchnorm_train_is_the_composition(rng):
    # Outputs, running statistics and every gradient are bitwise those of
    # the linear/add/batchnorm composition, in float64 and float32.
    for dtype in (np.float64, np.float32):
        terms, b, state, residual = _random_bn_site(rng, n=9, widths=(4, 2, 5), d=7,
                                                    dtype=dtype)
        tensors = [x for pair in terms for x in pair] + [b, state.gamma, state.beta,
                                                         residual]
        weights = ad.constant(rng.standard_normal((9, 7)).astype(dtype))
        runs = []
        for site in (lambda: ad.affine_batchnorm(terms, b, state, "train", residual),
                     lambda: composed_affine_batchnorm(terms, b, state, residual)):
            before = (state.running_mean.copy(), state.running_var.copy())
            for tensor in tensors:
                tensor.grad = None
            out = site()
            ad.backward(ad.sum_all(mul(out, weights)))
            runs.append([out.data, state.running_mean.copy(), state.running_var.copy()]
                        + [tensor.grad for tensor in tensors])
            state.running_mean[:], state.running_var[:] = before
        fused, composed = runs
        assert fused[0].dtype == dtype
        assert all(np.array_equal(a, c) for a, c in zip(fused, composed))


@pytest.mark.parametrize("n_terms", [1, 2, 3])
@pytest.mark.parametrize("with_residual", [False, True], ids=["plain", "residual"])
def test_affine_batchnorm_train_gradients(n_terms, with_residual, rng):
    terms, b, state, residual = _random_bn_site(rng, n=7, widths=(4, 2, 5)[:n_terms])
    residual = residual if with_residual else None
    weights = ad.constant(rng.standard_normal((7, 3)))
    params = [t for pair in terms for t in pair] + [b, state.gamma, state.beta]
    params += [residual] if with_residual else []

    def loss():
        out = ad.affine_batchnorm(terms, b, state, "train", residual)
        return ad.sum_all(mul(mul(out, out), weights))
    fd_check(loss, params, samples=8)


def test_affine_batchnorm_train_shared_input(rng):
    # One tensor feeds two train-mode sites, as the encoder's summed bond
    # features feed every trunk layer; its gradient is the sum of both.
    n, d = 6, 4
    atoms, bonds = (ad.parameter(rng.standard_normal((n, k))) for k in (3, 2))
    w_atom, w_bond0, w_bond1, w_mid = (ad.parameter(rng.standard_normal(shape))
                                       for shape in ((3, d), (2, d), (2, d), (d, d)))
    b0, b1 = (ad.parameter(rng.standard_normal(d)) for _ in range(2))
    states = [new_bn_state(d, dtype=np.float64) for _ in range(2)]
    for state in states:
        state.gamma.data[:] = rng.uniform(0.5, 1.5, d)
        state.beta.data[:] = rng.standard_normal(d)
    weights = ad.constant(rng.standard_normal((n, d)))

    def forward(site):
        h = ad.relu(site([(atoms, w_atom), (bonds, w_bond0)], b0, states[0]))
        out = site([(h, w_mid), (bonds, w_bond1)], b1, states[1], h)
        return ad.sum_all(mul(mul(out, out), weights))

    def fused(terms, b, state, residual=None):
        return ad.affine_batchnorm(terms, b, state, "train", residual)

    params = [atoms, bonds, w_atom, w_bond0, w_bond1, w_mid, b0, b1]
    params += [t for state in states for t in (state.gamma, state.beta)]
    fd_check(lambda: forward(fused), params, samples=8)
    grads = [p.grad for p in params]
    for p in params:
        p.grad = None
    ad.backward(forward(composed_affine_batchnorm))
    assert all(np.array_equal(g, p.grad) for g, p in zip(grads, params))


def test_affine_batchnorm_train_leaves_incoming_gradient_unmodified(rng, monkeypatch):
    # Neither the incoming gradient nor any array handed to a parent is
    # written by the node's backward.
    handed = []
    accumulate = ad.Tensor._accumulate

    def recording(tensor, grad):
        handed.append((grad, grad.copy()))
        accumulate(tensor, grad)
    monkeypatch.setattr(ad.Tensor, "_accumulate", recording)
    terms, b, state, residual = _random_bn_site(rng, n=5, widths=(3, 4))
    out = ad.affine_batchnorm(terms, b, state, "train", residual)
    g = rng.standard_normal(out.shape)
    kept = g.copy()
    out._backward(g)
    assert np.array_equal(g, kept)
    assert len(handed) == 8
    assert all(np.array_equal(grad, snapshot) for grad, snapshot in handed)


def test_affine_batchnorm_gradients_both_modes(rng):
    # Train mode against finite differences; eval mode has no gradient.
    terms, b, state, residual = _random_bn_site(rng)
    weights = ad.constant(rng.standard_normal((6, 3)))
    params = [t for pair in terms for t in pair] + [b, state.gamma, state.beta, residual]

    def loss(mode):
        out = ad.affine_batchnorm(terms, b, state, mode, residual)
        return ad.sum_all(mul(ad.relu(out), weights))
    fd_check(lambda: loss("train"), params, samples=8)
    for p in params:
        p.grad = None
    ad.backward(loss("eval"))
    assert all(p.grad is None for p in params)
    with pytest.raises(ValueError):
        ad.affine_batchnorm(terms, b, state, "test")
    with pytest.raises(ad.ShapeMismatch):
        ad.affine_batchnorm([(terms[0][0], terms[1][1])], b, state, "eval")


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_affine_batchnorm_relu_is_relu_of_the_site(mode, dtype, rng):
    # The fused ReLU against ad.relu composed after the same site: output,
    # running statistics and every parent's gradient (none in eval mode)
    # are bitwise equal.
    terms, b, state, residual = _random_bn_site(rng, n=9, widths=(4, 2), d=7, dtype=dtype)
    tensors = [x for pair in terms for x in pair] + [b, state.gamma, state.beta, residual]
    weights = ad.constant(rng.standard_normal((9, 7)).astype(dtype))
    runs = []
    for site in (lambda: ad.affine_batchnorm(terms, b, state, mode, residual, relu=True),
                 lambda: ad.relu(ad.affine_batchnorm(terms, b, state, mode, residual))):
        before = (state.running_mean.copy(), state.running_var.copy())
        for tensor in tensors:
            tensor.grad = None
        out = site()
        ad.backward(ad.sum_all(mul(out, weights)))
        runs.append([out.data, state.running_mean.copy(), state.running_var.copy()]
                    + [tensor.grad for tensor in tensors])
        state.running_mean[:], state.running_var[:] = before
    fused, composed = runs
    assert fused[0].dtype == dtype and (fused[0] == 0).any() and (fused[0] > 0).any()
    assert all(np.array_equal(a, c) for a, c in zip(fused, composed))


def test_affine_batchnorm_relu_gradients(rng):
    terms, b, state, residual = _random_bn_site(rng, n=7, widths=(4, 2))
    weights = ad.constant(rng.standard_normal((7, 3)))
    params = [t for pair in terms for t in pair] + [b, state.gamma, state.beta, residual]

    def loss():
        out = ad.affine_batchnorm(terms, b, state, "train", residual, relu=True)
        return ad.sum_all(mul(out, weights))
    fd_check(loss, params, samples=8)


# --- backward releases the tape ---

def _saved(node, name):
    """The array a node's backward closure saved under ``name``."""
    cells = dict(zip(node._backward.__code__.co_freevars, node._backward.__closure__))
    return cells[name].cell_contents


def test_backward_frees_saved_buffers_as_it_runs(rng):
    # Two chained train sites: by the time the sweep reaches the first, the
    # second's normalized buffer is gone. Leaves keep their gradients.
    terms, b, state, _ = _random_bn_site(rng, n=6, widths=(4,), d=3)
    w2 = ad.parameter(rng.standard_normal((3, 3)))
    state2 = new_bn_state(3, dtype=np.float64)
    first = ad.affine_batchnorm(terms, b, state, "train", relu=True)
    second = ad.affine_batchnorm([(first, w2)], b, state2, "train", relu=True)
    x_hat = weakref.ref(_saved(second, "x_hat"))
    alive_at_first = []
    run_first = first._backward

    def probe(g):
        alive_at_first.append(x_hat() is not None)
        run_first(g)
    first._backward = probe
    loss = ad.sum_all(second)
    assert x_hat() is not None
    ad.backward(loss)
    assert alive_at_first == [False]
    assert x_hat() is None
    assert first._backward is None and second._backward is None
    for leaf in (terms[0][0], terms[0][1], w2, b, state.gamma, state2.beta):
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape


def test_second_backward_through_a_released_graph_raises(rng):
    terms, b, state, residual = _random_bn_site(rng)
    params = [t for pair in terms for t in pair] + [b, state.gamma, state.beta, residual]
    site = ad.affine_batchnorm(terms, b, state, "train", residual, relu=True)
    loss = ad.sum_all(site)
    ad.backward(loss)
    grads = [p.grad.copy() for p in params]
    # The same loss again, and a new loss built on the released site: each
    # would add nothing to the parameters, so each raises before any sum.
    for again in (loss, ad.sum_all(ad.scale(site, 2.0))):
        with pytest.raises(ad.TapeReleased):
            ad.backward(again)
        assert all(np.array_equal(g, p.grad) for g, p in zip(grads, params))


def test_backward_frees_swept_nodes_before_the_sweep_ends(rng):
    # An early forward node's output is freed as soon as the sweep has passed
    # it and its consumer, not when the graph is dropped: a probe on the
    # first op of the forward, which the sweep reaches last, finds it gone.
    terms, b, state, _ = _random_bn_site(rng, n=6, widths=(4,), d=3)
    x, w = terms[0]
    start = ad.scale(x, 1.0)
    first = ad.affine_batchnorm([(start, w)], b, state, "train", relu=True)
    w2 = ad.parameter(rng.standard_normal((3, 3)))
    second = ad.affine_batchnorm([(first, w2)], b, new_bn_state(3, np.float64),
                                 "train", relu=True)
    output = weakref.ref(first.data)
    alive_at_start = []
    run_start = start._backward

    def probe(g):
        alive_at_start.append(output() is not None)
        run_start(g)
    start._backward = probe
    loss = ad.sum_all(second)
    del first
    ad.backward(loss)
    assert alive_at_start == [False]


def test_backward_releases_intermediates_and_keeps_leaf_gradients(rng):
    terms, b, state, residual = _random_bn_site(rng)
    leaves = [t for pair in terms for t in pair] + [b, state.gamma, state.beta, residual]
    site = ad.affine_batchnorm(terms, b, state, "train", residual, relu=True)
    scaled = ad.scale(site, 2.0)
    loss = ad.sum_all(scaled)
    ad.backward(loss)
    for node in (site, scaled, loss):
        assert node.grad is None and node._parents == () and node._backward is None
        assert node.data is not None
    for leaf in leaves:
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape


def _adjacency(rng, n):
    """A random directed adjacency with repeated edges, as a SparseMatrix."""
    rows, cols = rng.integers(0, n, size=(2, 3 * n))
    return ad.SparseMatrix(rows, cols, (n, n))


def _rebuilt_cases(rng, dtype):
    """(fused forward, forward from the nodes it replaces, leaves, running
    statistics) for each rebuilt site input and for ``sparse_matmul_sum``."""
    n, d = 7, 5
    terms, b, state, _ = _random_bn_site(rng, n=n, widths=(d, 2), d=4, dtype=dtype)
    (h, w1), (bonds, w2) = terms
    adjacency = _adjacency(rng, n)
    pool = ad.SparseMatrix(rng.integers(0, 3, size=n), np.arange(n), (3, n))
    other = ad.parameter(rng.standard_normal((n, d)).astype(dtype))
    w_res = ad.parameter(rng.standard_normal((d, 4)).astype(dtype))
    stats = [state.running_mean, state.running_var]

    def site(x):
        # h also feeds the residual, so it has two consumers, as in the trunk.
        return ad.affine_batchnorm([(x, w1), (bonds, w2)], b, state, "train",
                                   ad.linear(h, w_res), relu=True)
    site_leaves = [h, w1, bonds, w2, w_res, b, state.gamma, state.beta]
    return {
        "sparse_product": (lambda: site(ad.SparseProductInput(adjacency, h)),
                           lambda: site(ad.sparse_matmul(adjacency, h)), site_leaves, stats),
        "relu": (lambda: site(ad.ReluInput(h)), lambda: site(ad.relu(h)), site_leaves, stats),
        "sparse_matmul_sum": (lambda: ad.sparse_matmul_sum(pool, h, other),
                              lambda: ad.sparse_matmul(pool, ad.add(h, other)), [h, other], []),
    }


REBUILT = ["sparse_product", "relu", "sparse_matmul_sum"]


@pytest.mark.parametrize("case", REBUILT)
def test_rebuilt_inputs_are_bitwise_the_nodes_they_replace(case, rng):
    # float32 outputs, running statistics and every leaf gradient equal
    # those of the stored nodes the rebuilt input or fused op replaces.
    fused, stored, leaves, stats = _rebuilt_cases(rng, np.float32)[case]
    weights = ad.constant(rng.standard_normal(fused().shape).astype(np.float32))
    before = [s.copy() for s in stats]
    runs = []
    for forward in (fused, stored):
        for s, saved in zip(stats, before):
            s[:] = saved
        for leaf in leaves:
            leaf.grad = None
        out = forward()
        ad.backward(ad.sum_all(mul(out, weights)))
        runs.append([out.data] + [s.copy() for s in stats] + [leaf.grad for leaf in leaves])
    assert runs[0][0].dtype == np.float32 and (runs[0][0] != 0).any()
    assert all(np.array_equal(a, c) for a, c in zip(*runs))


@pytest.mark.parametrize("case", REBUILT)
def test_rebuilt_inputs_gradients(case, rng):
    fused, _, leaves, _ = _rebuilt_cases(rng, np.float64)[case]
    weights = ad.constant(rng.standard_normal(fused().shape))
    fd_check(lambda: ad.sum_all(mul(fused(), weights)), leaves, samples=8)


def test_rebuilt_inputs_in_eval_mode_match_stored(rng):
    terms, b, state, _ = _random_bn_site(rng, n=7, widths=(5,), d=4)
    h, w = terms[0]
    adjacency = _adjacency(rng, 7)
    for rebuilt, stored in ((ad.SparseProductInput(adjacency, h),
                             ad.sparse_matmul(adjacency, h)),
                            (ad.ReluInput(h), ad.relu(h))):
        got = ad.affine_batchnorm([(rebuilt, w)], b, state, "eval", relu=True)
        want = ad.affine_batchnorm([(stored, w)], b, state, "eval", relu=True)
        assert not got.requires_grad and np.array_equal(got.data, want.data)
    with pytest.raises(ad.ShapeMismatch):
        ad.SparseProductInput(ad.SparseMatrix([0], [0], (7, 6)), h)
    with pytest.raises(ad.ShapeMismatch):
        ad.sparse_matmul_sum(adjacency, h, ad.constant(np.zeros((7, 4))))


# --- sparse_matmul (segment sums, gathers, adjacency products) ---

def _segments(ids, n_segments):
    """out[ids[j]] += x[j]: the segment-sum matrix."""
    return ad.SparseMatrix(ids, np.arange(len(ids)), (n_segments, len(ids)))


def _gather(ids, n_rows):
    """out[j] = x[ids[j]]: the row-gather matrix."""
    return ad.SparseMatrix(np.arange(len(ids)), ids, (len(ids), n_rows))


def test_segment_sum_merges_rows():
    x = ad.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = ad.sparse_matmul(_segments([0, 0], 1), x)
    assert out.data.tolist() == [[4.0, 6.0]]


def test_segment_sum_identity_and_empty():
    x = ad.constant(np.arange(6.0).reshape(3, 2))
    assert np.array_equal(ad.sparse_matmul(_segments([0, 1, 2], 3), x).data, x.data)
    out = ad.sparse_matmul(_segments([0, 0, 3], 4), x)
    assert np.all(out.data[1] == 0) and np.all(out.data[2] == 0)
    none = ad.sparse_matmul(_segments([], 3), ad.constant(np.zeros((0, 2))))
    assert none.shape == (3, 2) and np.all(none.data == 0)


def test_segment_sum_matches_loop_oracle(rng):
    x = rng.standard_normal((40, 5))
    ids = rng.integers(0, 7, size=40)
    out = ad.sparse_matmul(_segments(ids, 7), ad.constant(x)).data
    expected = np.zeros((7, 5))
    for row, seg in zip(x, ids):
        expected[seg] += row
    assert np.abs(out - expected).max() < 1e-12
    gathered = ad.sparse_matmul(_gather(ids, 40), ad.constant(x)).data
    assert np.array_equal(gathered, np.stack([x[i] for i in ids]))
    # General entries: signed values, duplicates adding up, float32 kept.
    rows, cols = rng.integers(0, 9, size=60), rng.integers(0, 40, size=60)
    values = rng.choice([-1.0, 1.0, 2.5], size=60)
    out = ad.sparse_matmul(ad.SparseMatrix(rows, cols, (9, 40), values),
                           ad.constant(x)).data
    expected = np.zeros((9, 5))
    for r, c, v in zip(rows, cols, values):
        expected[r] += v * x[c]
    assert np.abs(out - expected).max() < 1e-12
    single = ad.sparse_matmul(_segments(ids, 7), ad.constant(x.astype(np.float32)))
    assert single.dtype == np.float32


def test_csr_equals_scipy_coo_construction(rng):
    # Signed unit entries with many duplicates (some cancelling to explicit
    # zeros), empty rows and columns: the sorted build equals scipy's COO
    # path array for array, in both dtypes and both orientations.
    for trial in range(40):
        n_rows, n_cols = rng.integers(1, 12, size=2)
        n = rng.integers(0, 60)
        rows, cols = rng.integers(0, n_rows, n), rng.integers(0, n_cols, n)
        values = rng.choice([-1.0, 1.0], size=n)
        mat = ad.SparseMatrix(rows, cols, (n_rows, n_cols), values)
        x = rng.standard_normal((n_cols, 3))
        for dtype in (np.float32, np.float64):
            for transpose in (False, True):
                got = mat.csr(dtype, transpose)
                entries = (cols, rows) if transpose else (rows, cols)
                shape = (n_cols, n_rows) if transpose else (n_rows, n_cols)
                want = sp.csr_matrix((values.astype(dtype), entries), shape=shape)
                assert got.shape == want.shape and got.dtype == want.dtype
                for field in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(got, field), getattr(want, field))
            got = ad.sparse_matmul(mat, ad.constant(x.astype(dtype))).data
            want = sp.csr_matrix((values.astype(dtype), (rows, cols)),
                                 shape=(n_rows, n_cols)) @ x.astype(dtype)
            assert np.array_equal(got, want)


def test_scatter_rejects_out_of_range_ids():
    with pytest.raises(ad.ShapeMismatch):
        _segments([0, 3], 3)
    with pytest.raises(ad.ShapeMismatch):
        ad.SparseMatrix([0, -1], [0, 0], (2, 2))
    with pytest.raises(ad.ShapeMismatch):
        ad.SparseMatrix([0], [0, 1], (2, 2))
    with pytest.raises(ad.ShapeMismatch):
        ad.sparse_matmul(_gather([0, 1], 3), ad.constant(np.zeros((4, 2))))


def test_gather_and_segment_gradients(rng):
    x = ad.parameter(rng.standard_normal((6, 3)))
    weights = ad.constant(rng.standard_normal((5, 3)))

    def loss():
        return ad.sum_all(mul(ad.sparse_matmul(_gather([0, 0, 2, 5, 1], 6), x), weights))
    fd_check(loss, [x])

    seg_weights = ad.constant(rng.standard_normal((3, 3)))

    def loss2():
        return ad.sum_all(mul(ad.sparse_matmul(_segments([0, 1, 1, 2, 0, 2], 3), x),
                                 seg_weights))
    fd_check(loss2, [x])

    # A square, directed, asymmetric adjacency with a repeated edge and
    # signed entries: the backward must use the transpose.
    adjacency = ad.SparseMatrix([1, 2, 2, 0, 4, 4, 5], [0, 1, 1, 3, 5, 2, 4], (6, 6),
                                [1.0, 1.0, 1.0, -1.0, 2.0, 1.0, 0.5])
    adj_weights = ad.constant(rng.standard_normal((6, 3)))

    def loss3():
        return ad.sum_all(mul(ad.relu(ad.sparse_matmul(adjacency, x)), adj_weights))
    fd_check(loss3, [x])


# --- cosine_matrix ---

def test_cosine_conventions():
    a = np.array([1.0, 2.0])
    queries = ad.constant(np.stack([a, -a, [1.0, 0.0], [0.0, 0.0]]))
    keys = ad.constant(np.stack([a, [0.0, 1.0], [0.0, 0.0]]))
    out = ad.cosine_matrix(queries, keys).data
    assert out[0, 0] == pytest.approx(1.0)      # parallel
    assert out[1, 0] == pytest.approx(-1.0)     # anti-parallel
    assert out[2, 1] == 0.0                     # orthogonal
    assert np.all(out[:, 2] == 0.0)             # zero-norm key
    assert np.all(out[3] == 0.0)                # zero-norm query


def test_cosine_gradients(rng):
    queries = ad.parameter(rng.standard_normal((3, 5)))
    keys = ad.parameter(rng.standard_normal((4, 5)))
    weights = ad.constant(rng.standard_normal((3, 4)))
    fd_check(lambda: ad.sum_all(mul(ad.cosine_matrix(queries, keys), weights)),
             [queries, keys])


def test_cosine_matrix_matches_loop_oracle(rng):
    q = rng.standard_normal((3, 4))
    q[1] = 0.0
    keys = rng.standard_normal((6, 4))
    keys[2] = 0.0
    halt = rng.standard_normal(4)
    out = ad.cosine_matrix(ad.constant(q), ad.constant(keys), ad.constant(halt)).data
    stacked = list(keys) + [halt]
    for i in range(3):
        for j in range(7):
            na, nb = np.linalg.norm(q[i]), np.linalg.norm(stacked[j])
            want = 0.0 if min(na, nb) < 1e-12 else q[i] @ stacked[j] / (na * nb)
            assert abs(out[i, j] - want) < 1e-12
    assert out.shape == (3, 7)


def test_cosine_matrix_gradients_with_zero_norm_rows(rng):
    queries = ad.parameter(rng.standard_normal((3, 4)))
    keys = ad.parameter(rng.standard_normal((5, 4)))
    zero_key = ad.parameter(np.zeros(4))
    weights = ad.constant(rng.standard_normal((3, 6)))

    def loss():
        return ad.sum_all(mul(ad.cosine_matrix(queries, keys, zero_key), weights))
    fd_check(loss, [queries, keys])
    assert np.all(zero_key.grad == 0.0)

    queries.data[0] = 0.0
    queries.grad = None
    ad.backward(loss())
    assert np.all(queries.grad[0] == 0.0) and np.all(queries.grad[1:] != 0.0)


def test_cosine_matrix_stacked_keys_gradients(rng):
    queries = ad.parameter(rng.standard_normal((2, 3)))
    block = ad.parameter(rng.standard_normal((3, 3)))
    extra = ad.parameter(rng.standard_normal(3))
    weights = ad.constant(rng.standard_normal((2, 4)))

    def loss():
        return ad.sum_all(mul(ad.cosine_matrix(queries, block, extra), weights))
    fd_check(loss, [queries, block, extra])
    assert extra.grad.shape == (3,)
    with pytest.raises(ad.ShapeMismatch):
        ad.cosine_matrix(queries, ad.constant(np.zeros((2, 4))))


# --- log_softmax_pick ---

def test_log_softmax_pick_values():
    single = ad.constant(np.array([[3.7]]))
    assert ad.log_softmax_pick(single, [0]).data[0] == pytest.approx(0.0)
    uniform = ad.constant(np.zeros((2, 4)))
    out = ad.log_softmax_pick(uniform, [2, 0]).data
    assert np.allclose(out, np.log(0.25))
    live = np.array([[True, False, True, False], [True, True, True, True]])
    masked = ad.log_softmax_pick(uniform, [2, 0], live).data
    assert masked[0] == pytest.approx(np.log(0.5)) and masked[1] == pytest.approx(np.log(0.25))


def test_log_softmax_pick_against_direct_sum(rng):
    scores = rng.standard_normal((3, 10))
    live = rng.random((3, 10)) < 0.6
    targets = np.array([3, 0, 9])
    live[np.arange(3), targets] = True
    out = ad.log_softmax_pick(ad.constant(scores), targets, live).data
    for i, t in enumerate(targets):
        direct = scores[i, t] - np.log(np.exp(scores[i][live[i]]).sum())
        assert abs(out[i] - direct) < 1e-12


def test_log_softmax_pick_extreme_scores_stable():
    scores = ad.constant(np.array([[1000.0, 0.0, -1000.0], [5000.0, -5000.0, 0.0]]))
    live = np.array([[True, True, True], [False, True, True]])
    value = ad.log_softmax_pick(scores, [0, 2], live).data
    assert np.all(np.isfinite(value))
    assert value[0] == pytest.approx(0.0, abs=1e-6) and value[1] == pytest.approx(0.0, abs=1e-6)


def test_log_softmax_pick_gradients(rng):
    scores = ad.parameter(rng.standard_normal((3, 7)))
    live = np.ones((3, 7), dtype=bool)
    live[0, [1, 5]] = False
    live[2, 6] = False
    targets = [4, 0, 2]
    weights = ad.constant(rng.standard_normal(3))
    fd_check(lambda: ad.sum_all(mul(ad.log_softmax_pick(scores, targets, live),
                                       weights)), [scores], samples=21)
    assert np.all(scores.grad[~live] == 0.0)


def test_log_softmax_pick_rejects_dead_target():
    with pytest.raises(ad.ShapeMismatch):
        ad.log_softmax_pick(ad.constant(np.zeros((1, 3))), [1],
                            np.array([[True, False, True]]))
    with pytest.raises(ad.ShapeMismatch):
        ad.log_softmax_pick(ad.constant(np.zeros((2, 3))), [0, 3])


def test_masked_cosine_pick_gradients(rng):
    """The contrastive loss shape: queries against keys plus a halt row,
    with masked columns, through the scaled pick."""
    queries = ad.parameter(rng.standard_normal((4, 5)))
    keys = ad.parameter(rng.standard_normal((6, 5)))
    halt = ad.parameter(rng.standard_normal(5))
    live = np.ones((4, 7), dtype=bool)
    live[0, 2] = live[1, 6] = live[3, [0, 1, 6]] = False
    targets = [1, 3, 6, 4]

    def loss():
        scores = ad.scale(ad.cosine_matrix(queries, keys, halt), 1 / 0.3)
        return ad.sum_all(ad.log_softmax_pick(scores, targets, live))
    fd_check(loss, [queries, keys, halt], samples=12)


# --- backward ---

def test_backward_square():
    x = ad.parameter(np.array([3.0]))
    loss = ad.sum_all(mul(x, x))
    ad.backward(loss)
    assert x.grad.tolist() == [6.0]


def test_backward_unreachable_parameter_zero():
    x = ad.parameter(np.array([3.0]))
    unused = ad.parameter(np.array([1.0, 2.0]))
    ad.backward(ad.sum_all(mul(x, x)))
    assert unused.grad is None  # collected as zeros by ParamStore.gradients


def test_backward_shared_subexpression():
    x = ad.parameter(np.array([2.0]))
    y = mul(x, x)            # x^2
    loss = ad.sum_all(ad.add(y, y))  # 2 x^2 -> d/dx = 4x
    ad.backward(loss)
    assert x.grad.tolist() == [8.0]


def test_backward_shares_first_gradient_without_mutating_it():
    # add hands one array to both parents; a's second gradient must not be
    # added into that shared array, or b would see it too.
    a = ad.parameter(np.array([1.0, 2.0]))
    b = ad.parameter(np.array([3.0, 4.0]))
    ad.backward(ad.sum_all(ad.add(ad.add(a, b), a)))
    assert a.grad.tolist() == [2.0, 2.0]
    assert b.grad.tolist() == [1.0, 1.0]


def test_backward_requires_scalar():
    x = ad.parameter(np.ones(3))
    with pytest.raises(ad.ShapeMismatch):
        ad.backward(ad.relu(x))


# --- clip and sgd ---

def test_clip_noop_below_threshold():
    grads = {"a": np.array([1.0, 0.0])}
    ad.clip_global_norm(grads, 5.0)
    assert grads["a"].tolist() == [1.0, 0.0]


def test_clip_scales_above_threshold():
    grads = {"a": np.array([6.0, 8.0])}  # norm 10
    assert ad.clip_global_norm(grads, 5.0) == 10.0
    assert np.allclose(grads["a"], [3.0, 4.0])


def test_clip_property_random(rng):
    for _ in range(20):
        grads = {f"p{i}": rng.standard_normal(rng.integers(1, 6))
                 for i in range(3)}
        before = ad.global_norm(grads)
        clip = float(rng.uniform(0.1, 3.0))
        assert ad.clip_global_norm(grads, clip) == before  # the norm before clipping
        after = ad.global_norm(grads)
        assert after <= min(before, clip) + 1e-9


class _OneParam:
    def __init__(self, value, decay=True):
        self.tensor = ad.parameter(np.asarray(value, dtype=np.float64))
        self.decay = decay

    def named_parameters(self):
        yield "p", self.tensor, self.decay


def test_sgd_plain_step():
    store = _OneParam([1.0, 2.0])
    cfg = ad.SgdConfig(learning_rate=0.1, momentum=0.0, weight_decay=0.0)
    ad.sgd_step(store, {"p": np.array([1.0, -1.0])}, cfg)
    assert np.allclose(store.tensor.data, [0.9, 2.1])


def test_sgd_zero_everything_is_noop():
    store = _OneParam([1.0, 2.0])
    cfg = ad.SgdConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
    ad.sgd_step(store, {"p": np.zeros(2)}, cfg)
    assert store.tensor.data.tolist() == [1.0, 2.0]


def test_sgd_momentum_matches_hand_recurrence():
    store = _OneParam([1.0])
    cfg = ad.SgdConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.01)
    p = 1.0
    v = 0.0
    for grad in (0.5, -0.2):
        ad.sgd_step(store, {"p": np.array([grad])}, cfg)
        v = 0.9 * v + grad + 0.01 * p
        p = p - 0.1 * v
        assert store.tensor.data[0] == pytest.approx(p, rel=1e-12)


def test_sgd_no_decay_flag():
    store = _OneParam([1.0], decay=False)
    cfg = ad.SgdConfig(learning_rate=0.1, momentum=0.0, weight_decay=10.0)
    ad.sgd_step(store, {"p": np.zeros(1)}, cfg)
    assert store.tensor.data[0] == 1.0


# --- diagnostics ---

def test_non_finite_trips_numerics_error():
    big = ad.constant(np.array([[1e38]], dtype=np.float32))
    with np.errstate(over="ignore"), pytest.raises(ad.NumericsError):
        mul(ad.scale(big, 1e10), ad.scale(big, 1e10))


def test_blas_runs_one_thread(monkeypatch):
    # tests/conftest.py pins the pool before numpy loads; the timed
    # acceptance criteria assume it. The benchmark asks the loaded library.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    threads = importlib.import_module("run").blas_threads()
    if threads is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    assert threads == 1


def test_determinism_bitwise(rng):
    x = rng.standard_normal((8, 5)).astype(np.float32)
    w = rng.standard_normal((5, 5)).astype(np.float32)
    first = ad.linear(ad.constant(x), ad.constant(w)).data
    second = ad.linear(ad.constant(x.copy()), ad.constant(w.copy())).data
    assert np.array_equal(first, second)
