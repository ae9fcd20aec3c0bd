import math

import numpy as np
import pytest

from blkp import ndiff
from blkp.ndiff import Adam, Mlp, Segments, Tensor

from _gradcheck import parameters
from _unfused import (ACTIVATE, Node, UnfusedAdam, add, add_bias, affine_const,
                      argmax_first_match, bce_sum, concat_cols, factor_leaky_relu, linear, matmul,
                      mlp_on_pairs, mul_const, pair_linear, segment_pna, take_rows, tsum,
                      unfused_bce_mean, where_relu)


def finite_diff(fn, arrays, h=1e-5):
    """Central finite differences of a scalar function of the arrays, changed in place."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        it = np.nditer(a, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = a[idx]
            a[idx] = orig + h
            up = fn()
            a[idx] = orig - h
            down = fn()
            a[idx] = orig
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def make_mlp(widths, activations, rng):
    """An MLP on its own, with its own weight and gradient buffers."""
    size = Mlp.size(widths)
    return Mlp(widths, activations, rng, np.zeros(size), np.zeros(size))


def reduce_segments(t, seg, name):
    """One aggregator of `segment_pna` at scaler 1: each segment's mean, max or min."""
    return segment_pna(t, seg, (name,), (1.0,))


def mean_bce(predictions, labels):
    """Mean binary cross-entropy of one label per prediction, and its gradient."""
    return ndiff.bce_mean(np.asarray(predictions, dtype=np.float64), labels, 1)


def activate(name, values):
    """The activation `name` of each value, through a 1 x 1 identity layer."""
    mlp = make_mlp([1, 1], [name], np.random.default_rng(0))
    mlp.layers[0][0][:] = 1.0
    return mlp.run(np.asarray(values, dtype=np.float64)[:, None])[0].ravel()


def test_pointwise_examples():
    assert activate("sigmoid", [0.0])[0] == 0.5
    # exp(cap) is the largest finite exp: past it the sigmoid saturates
    # without an overflow warning, and up to it keeps the formula's bits
    cap = float(np.log(np.finfo(np.float64).max))
    low = activate("sigmoid", [-1e4, -np.nextafter(cap, np.inf), -cap, 1e4])
    assert low.tolist() == [1.0 / (1.0 + np.exp(cap))] * 3 + [1.0]
    assert activate("leaky_relu", [-2.0])[0] == pytest.approx(-0.02)
    assert activate("relu", [-3.0, 2.0]).tolist() == [0.0, 2.0]
    assert activate("identity", [-3.0, 2.0]).tolist() == [-3.0, 2.0]
    nan_in = activate("relu", [np.nan, -1.0, 2.0])  # NaN propagates
    assert np.isnan(nan_in[0]) and nan_in[1:].tolist() == [0.0, 2.0]


def test_group_reductions():
    t = Node([[1.0, 2.0], [3.0, 4.0]])
    one = Segments([2])
    assert reduce_segments(t, one, "mean").data.tolist() == [[2.0, 3.0]]
    assert reduce_segments(t, one, "max").data.tolist() == [[3.0, 4.0]]
    assert reduce_segments(t, one, "min").data.tolist() == [[1.0, 2.0]]


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        Tensor(np.ones((2, 2, 2)))
    with pytest.raises(ValueError):  # two segments of 2 rows do not cover 5 rows
        reduce_segments(Node(np.ones((5, 2))), Segments([2, 2]), "mean")
    with pytest.raises(ValueError):
        Segments([2, 0, 3])


def test_backward_requires_scalar():
    t = Tensor([[1.0, 2.0]])
    with pytest.raises(ValueError):
        t.backward()
    with pytest.raises(ValueError, match="reverse pass"):  # a scalar with no reverse pass
        Tensor([3.0]).backward()


def test_simple_product_gradient():
    w = Node([[3.0]])
    x = Node([[2.0]])
    loss = tsum(matmul(x, w))
    loss.backward()
    assert w.grad[0, 0] == 2.0
    assert x.grad[0, 0] == 3.0


def test_sigmoid_gradient_at_zero():
    mlp = make_mlp([1, 1], ["sigmoid"], np.random.default_rng(0))
    mlp.layers[0][0][:] = 0.0
    out, acts = mlp.run(np.array([[1.0]]))
    mlp.grad(np.ones_like(out), acts)  # the gradient of the output's sum
    assert mlp.grads[0][0][0, 0] == pytest.approx(0.25)


def test_repeated_subgraph_accumulates():
    w = Node([2.0])
    # loss = w + w -> gradient 2
    loss = tsum(add(w, w))
    loss.backward()
    assert w.grad[0] == 2.0


def test_bce_examples():
    eps = ndiff.BCE_EPS
    near_perfect = mean_bce([1.0 - eps], [1.0])[0]
    assert near_perfect <= 1e-6
    half = mean_bce([0.5], [1.0])[0]
    assert half == pytest.approx(math.log(2), abs=1e-12)
    sym = mean_bce([0.5, 0.5], [1.0, 0.0])[0]
    assert sym == pytest.approx(math.log(2), abs=1e-12)


def test_bce_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(50):
        h = rng.uniform(0.01, 0.99, 6)
        y = rng.integers(0, 2, 6).astype(float)
        assert mean_bce(h, y)[0] >= 0.0


def test_bce_length_mismatch():
    with pytest.raises(ValueError):
        ndiff.bce_mean(np.array([0.5, 0.5]), [1.0], 1)


@pytest.mark.parametrize("k", [1, 2, 7])
def test_bce_sum_stack_equals_loop(k):
    rng = np.random.default_rng(k)
    h = rng.uniform(0.0, 1.0, (5, 1))
    h[0, 0] = 1.0  # clamped at 1 - eps
    stack = rng.integers(0, 2, (k, 5)).astype(float)
    looped = Node(h)
    total, stacked_grad = ndiff.bce_mean(h, stack.sum(axis=0), k)
    parts = [bce_sum(looped, y, 1) for y in stack]
    ref = parts[0]
    for p in parts[1:]:
        ref = add(ref, p)
    ref = affine_const(ref, 1.0 / stack.size)
    ref.backward()
    assert total == pytest.approx(float(ref.data), rel=1e-12)
    assert np.allclose(stacked_grad, looped.grad, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("seed", range(5))
def test_mlp_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    mlp = make_mlp([4, 8, 3], ["relu", "sigmoid"], rng)
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 2, (6, 3)).astype(float)

    def loss_value():
        return mean_bce(mlp.run(x)[0], y)[0]

    out, acts = mlp.run(x)
    mlp.grad(mean_bce(out, y)[1], acts)
    params = parameters([mlp])
    fd = finite_diff(loss_value, [a for a, _ in params])
    for (_, grad), g in zip(params, fd):
        denom = np.maximum(np.abs(g), 1e-6)
        assert np.max(np.abs(grad - g) / denom) < 1e-4


def test_pair_expansion_gradients():
    rng = np.random.default_rng(3)
    x = Node(rng.normal(size=(3, 2)))
    y = Node(rng.normal(size=(4, 2)))
    # every (x row, y row) pair, x-major
    x_rows, y_rows = np.repeat(np.arange(3), 4), np.tile(np.arange(4), 3)

    def expand():
        return concat_cols([take_rows(x, x_rows), take_rows(y, y_rows)])

    weights = rng.normal(size=(12, 4))
    loss = tsum(mul_const(expand(), weights))

    def loss_value():
        return float(tsum(mul_const(expand(), weights)).data)

    loss.backward()
    for p, g in zip([x, y], finite_diff(loss_value, [x.data, y.data])):
        assert np.allclose(p.grad, g, rtol=1e-6, atol=1e-8)


def test_group_reduction_gradients():
    rng = np.random.default_rng(4)
    t = Node(rng.normal(size=(6, 3)))
    two = Segments([3, 3])
    weights = rng.normal(size=(2, 3))
    for name in ndiff.AGGREGATORS:
        t.grad = None
        loss = tsum(mul_const(reduce_segments(t, two, name), weights))

        def loss_value():
            return float(tsum(mul_const(reduce_segments(t, two, name),
                                                    weights)).data)

        loss.backward()
        fd = finite_diff(loss_value, [t.data])[0]
        assert np.allclose(t.grad, fd, rtol=1e-5, atol=1e-7), name


def test_take_rows_gradient_finite_differences():
    # rows picked out of order, some twice, one never
    rng = np.random.default_rng(5)
    t = Node(rng.normal(size=(5, 3)))
    rows = np.array([3, 0, 3, 1, 0, 3, 4])
    weights = rng.normal(size=(len(rows), 3))

    def loss_of():
        return tsum(mul_const(take_rows(t, rows), weights))

    out = take_rows(t, rows)
    assert np.array_equal(out.data, t.data[rows])
    loss_of().backward()
    fd = finite_diff(lambda: float(loss_of().data), [t.data])[0]
    assert np.allclose(t.grad, fd, rtol=1e-6, atol=1e-8)
    assert np.array_equal(t.grad[2], np.zeros(3))


def test_segment_reductions_unequal_segments():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(7, 3))
    seg = Segments([1, 4, 2])
    parts = np.split(x, [1, 5])
    expected = {"mean": [p.mean(axis=0) for p in parts],
                "max": [p.max(axis=0) for p in parts],
                "min": [p.min(axis=0) for p in parts]}
    t = Node(x)
    weights = rng.normal(size=(3, 3))
    for name in ndiff.AGGREGATORS:
        out = reduce_segments(t, seg, name)
        assert np.allclose(out.data, expected[name], rtol=1e-15, atol=0.0), name
        t.grad = None
        tsum(mul_const(out, weights)).backward()

        def loss_value():
            return float(tsum(mul_const(reduce_segments(t, seg, name),
                                                    weights)).data)

        fd = finite_diff(loss_value, [t.data])[0]
        assert np.allclose(t.grad, fd, rtol=1e-5, atol=1e-7), name


@pytest.mark.parametrize("op", ["max", "min"])
def test_segment_extreme_ties_go_to_first_row(op):
    # rows 1 and 3 tie for the extreme of segment [1, 4) in column 0;
    # rows 4 and 5 tie in both columns of segment [4, 6)
    x = np.array([[9.0, 0.0], [5.0, 1.0], [2.0, 7.0], [5.0, 3.0], [4.0, 4.0], [4.0, 4.0]])
    if op == "min":
        x = -x
    t = Node(x)
    seg = Segments([1, 3, 2])
    out = reduce_segments(t, seg, op)
    tsum(mul_const(out, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])).backward()
    expected = np.zeros((6, 2))
    expected[0] = [1.0, 2.0]
    expected[1, 0] = 3.0
    expected[2, 1] = 4.0
    expected[4] = [5.0, 6.0]
    assert np.array_equal(t.grad, expected)


def test_bce_counts_equals_bce_sum_per_stack():
    rng = np.random.default_rng(8)
    h = rng.uniform(0.05, 0.95, (5, 1))
    first = rng.integers(0, 2, (3, 2)).astype(float)   # 3 labels of rows 0-1
    second = rng.integers(0, 2, (1, 3)).astype(float)  # 1 label of rows 2-4
    total, pooled_grad = ndiff.bce_mean(h, np.concatenate([first.sum(axis=0),
                                                            second.sum(axis=0)]),
                                        [3, 3, 1, 1, 1])
    apart = Node(h)
    ref = bce_sum(take_rows(apart, [2, 3, 4]), second[0], 1)
    for y in first:  # one term per label
        ref = add(ref, bce_sum(take_rows(apart, [0, 1]), y, 1))
    ref = affine_const(ref, 1.0 / (first.size + second.size))
    ref.backward()
    assert total == pytest.approx(float(ref.data), rel=1e-12)
    assert np.allclose(pooled_grad, apart.grad, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("totals", ["scalar", "per_row"])
def test_bce_mean_bit_equals_unfused_chain(totals):
    # the fused loss and its gradient against the clamp/log/scale/sum chain,
    # with predictions at and beyond the clamp bounds
    rng = np.random.default_rng(13)
    eps = ndiff.BCE_EPS
    h = rng.uniform(0.0, 1.0, (40, 1))
    h[:6, 0] = [0.0, eps / 2, eps, 1.0 - eps, 1.0 - eps / 2, 1.0]
    k = rng.integers(1, 9, 40) if totals == "per_row" else 3
    positives = rng.integers(0, np.asarray(k) + 1, 40).astype(float)
    chained = Node(h)
    loss, grad = ndiff.bce_mean(h, positives, k)
    ref = unfused_bce_mean(chained, positives, k)
    assert np.array_equal(loss, ref.data)
    ref.backward()
    assert np.array_equal(grad, chained.grad)
    assert np.array_equal(grad[[0, 1, 4, 5]], np.zeros((4, 1)))


def test_adam_zero_gradient_no_decay():
    flat = np.array([1.0, -2.0])
    opt = Adam(flat, np.zeros(2), weight_decay=0.0)
    opt.step()
    assert np.array_equal(flat, [1.0, -2.0])


def test_adam_descends_quadratic():
    w, grad = np.array([1.0]), np.zeros(1)
    opt = Adam(w, grad, lr=0.002, weight_decay=0.0)
    grad[0] = 2.0 * w[0]
    opt.step()
    assert w[0] < 1.0


def test_adam_converges_to_minimum():
    # expectations frozen from running the scalar recurrence itself
    w, grad = np.array([1.0]), np.zeros(1)
    opt = Adam(w, grad, lr=0.002, weight_decay=0.0)
    for _ in range(2000):
        grad[0] = 2.0 * (w[0] - 3.0)
        opt.step()
    assert w[0] == pytest.approx(2.9586753787333384, abs=1e-12)
    for _ in range(1000):
        grad[0] = 2.0 * (w[0] - 3.0)
        opt.step()
    assert abs(w[0] - 3.0) < 1e-2


def test_adam_flat_step_bit_equals_per_parameter_loop():
    from blkp.pnanet import ModelParams, PnaConfig
    params = ModelParams(PnaConfig(), seed=4)
    pairs = parameters(params.mlps.values())
    opt = Adam(params.flat, params.grad, weight_decay=1e-2)
    grads = [np.zeros_like(g) for _, g in pairs]
    ref = UnfusedAdam([a.copy() for a, _ in pairs], grads, weight_decay=1e-2)
    rng = np.random.default_rng(14)
    for step in range(5):
        for (_, g), ref_g in zip(pairs, grads):
            # some gradients are zero, as where a parameter got none
            g[...] = ref_g[...] = 0.0 if rng.random() < 0.2 else rng.normal(size=g.shape)
        opt.step()
        ref.step()
        for (a, _), ref_a in zip(pairs, ref.params):
            assert np.array_equal(a, ref_a), step


def test_forward_determinism():
    rng = np.random.default_rng(9)
    mlp = make_mlp([3, 16, 1], ["relu", "sigmoid"], np.random.default_rng(1))
    x = rng.normal(size=(5, 3))
    a = mlp.run(x)[0]
    b = mlp.run(x)[0]
    assert np.array_equal(a, b)


def test_first_gradient_is_copied_not_aliased():
    # p's first gradient is a column view of the concat's gradient, which
    # `add` also hands to q; p's second gradient must not reach q or the concat
    p, q, r = (Node(np.full((2, 2), v)) for v in (1.0, 2.0, 3.0))
    cat = concat_cols([add(p, q), r])
    weights = np.arange(8.0).reshape(2, 4)
    loss = add(tsum(mul_const(cat, weights)),
                     tsum(mul_const(p, [[10.0, 20.0], [30.0, 40.0]])))
    loss.backward()
    assert np.array_equal(cat.grad, weights)
    assert np.array_equal(q.grad, weights[:, :2])
    assert np.array_equal(r.grad, weights[:, 2:])
    assert np.array_equal(p.grad, weights[:, :2] + [[10.0, 20.0], [30.0, 40.0]])


# a ragged union of three graphs: own sizes 1, 2, 3 against other sizes
# 4, 1, 2, so the own nodes' message segments have 4, 1, 1, 2, 2, 2 rows
# and the graphs include one with n1 = 1 and one with n2 = 1
RAGGED_OWN, RAGGED_OTHER = [1, 2, 3], [4, 1, 2]


def _check_fused_op(fused, reference, tensors, weights, tol):
    """Check a fused op against its reference and against finite differences.

    Outputs and the gradients of sum(weights * output) must agree with
    the reference's within tol.
    """
    from _gradcheck import check_params

    def loss_of(build):
        return tsum(mul_const(build(), weights))

    results = []
    for build in (fused, reference):
        for t in tensors:
            t.grad = None
        loss_of(build).backward()
        results.append([build().data] + [t.grad for t in tensors])
    for got, ref in zip(*results):
        assert np.allclose(got, ref, rtol=tol, atol=tol)
    for t in tensors:
        t.grad = None
    loss_of(fused).backward()
    check_params(lambda: float(loss_of(fused).data), [(t.data, t.grad) for t in tensors],
                 np.random.default_rng(0), per_param=10 ** 6)


@pytest.mark.parametrize("act", sorted(ndiff.ACTIVATIONS))
def test_linear_matches_matmul_add_and_finite_differences(act):
    rng = np.random.default_rng(10)
    x, w, b = (Node(rng.normal(size=s)) for s in ((5, 3), (3, 4), (4,)))
    weights = rng.normal(size=(5, 4))
    _check_fused_op(lambda: linear(x, w, b, act),
                    lambda: ACTIVATE[act](add_bias(matmul(x, w), b)), [x, w, b], weights,
                    tol=0.0)


@pytest.mark.parametrize("act", sorted(ndiff.ACTIVATIONS))
@pytest.mark.parametrize("own_sizes, other_sizes", [(RAGGED_OWN, RAGGED_OTHER),
                                                    (RAGGED_OTHER, RAGGED_OWN)])
def test_pair_linear_matches_gathered_pairs(own_sizes, other_sizes, act):
    from blkp.graphrep import own_major_pairs
    rng = np.random.default_rng(11)
    pairs = own_major_pairs(np.array(own_sizes), np.array(other_sizes))
    other_rows, seg = pairs[:2]
    own_rows = np.repeat(np.arange(len(seg.counts)), seg.counts)
    own = Node(rng.normal(size=(sum(own_sizes), 3)))
    other = Node(rng.normal(size=(sum(other_sizes), 2)))
    w, b = Node(rng.normal(size=(5, 4))), Node(rng.normal(size=4))
    weights = rng.normal(size=(seg.rows, 4))

    def fused():
        return pair_linear(own, other, pairs, w, b, act)

    def reference():
        gathered = concat_cols([take_rows(own, own_rows),
                                      take_rows(other, other_rows)])
        return ACTIVATE[act](add_bias(matmul(gathered, w), b))

    _check_fused_op(fused, reference, [own, other, w, b], weights, tol=1e-12)


@pytest.mark.parametrize("aggregators, scalers", [
    (("mean", "max", "min"), (1.0, 0.7, 1.0 / 0.7)),
    (("min", "mean"), (2.5, 0.3)),
    (("max",), (1.0,)),
])
def test_segment_pna_matches_per_aggregator_ops(aggregators, scalers):
    from _gradcheck import check_params
    rng = np.random.default_rng(12)
    t = Node(rng.normal(size=(7, 3)))
    seg = Segments([1, 4, 2])
    weights = rng.normal(size=(3, 3 * len(aggregators) * len(scalers)))

    # each segment's rows reduced by plain numpy, scaler-major
    reducers = {"mean": np.mean, "max": np.max, "min": np.min}
    expected = []
    for lo, n in zip(seg.starts, seg.counts):
        rows = t.data[lo:lo + n]
        base = np.concatenate([reducers[a](rows, axis=0) for a in aggregators])
        expected.append(np.concatenate([s * base for s in scalers]))

    def loss_of():
        return tsum(mul_const(segment_pna(t, seg, aggregators, scalers),
                                          weights))

    assert np.allclose(segment_pna(t, seg, aggregators, scalers).data, expected,
                       rtol=1e-12, atol=1e-12)
    loss_of().backward()
    check_params(lambda: float(loss_of().data), [(t.data, t.grad)], np.random.default_rng(0),
                 per_param=10 ** 6)


def test_segment_pna_ties_go_to_first_row():
    # the data of test_segment_extreme_ties_go_to_first_row: max and min
    # pick the same rows in the 1-row segment and in the all-tied segment
    x = np.array([[9.0, 0.0], [5.0, 1.0], [2.0, 7.0], [5.0, 3.0], [4.0, 4.0], [4.0, 4.0]])
    t = Node(x)
    out = segment_pna(t, Segments([1, 3, 2]), ("max", "min"), (1.0, 2.0))
    weights = np.arange(24.0).reshape(3, 8)
    tsum(mul_const(out, weights)).backward()
    g_max = weights[:, 0:2] + 2.0 * weights[:, 4:6]
    g_min = weights[:, 2:4] + 2.0 * weights[:, 6:8]
    expected = np.zeros((6, 2))
    expected[0] = g_max[0] + g_min[0]
    expected[1] = [g_max[1, 0], g_min[1, 1]]  # max of column 0 ties rows 1 and 3
    expected[2] = [g_min[1, 0], g_max[1, 1]]
    expected[4] = g_max[2] + g_min[2]
    assert np.array_equal(t.grad, expected)


def _pool_bits(x, counts):
    """`ndiff.pool`'s output and gradient, the reference's, and the gradient g they take."""
    seg = Segments(counts)
    out = np.empty((len(counts), len(ndiff.AGGREGATORS) * len(ndiff.SCALERS) * x.shape[1]))
    saved = ndiff.pool(x, seg, out)
    g = np.random.default_rng(15).normal(size=out.shape)
    grad = ndiff.pool_grad(g, x, saved, seg)
    t = Node(x)
    ref = segment_pna(t, seg, ndiff.AGGREGATORS, ndiff.SCALERS)
    tsum(mul_const(ref, g)).backward()
    return (out, grad), (ref.data, t.grad), g


@pytest.mark.parametrize("counts", [[1, 4, 2], [3, 12, 6, 6], [5], [1, 1, 1]])
def test_pool_bit_equals_reduceat_reference(counts):
    x = np.random.default_rng(16).normal(size=(sum(counts), 5))
    (out, grad), (ref_out, ref_grad), _ = _pool_bits(x, counts)
    assert np.array_equal(out, ref_out) and np.array_equal(grad, ref_grad)


def test_pool_ties_bit_equal_reference():
    # column 0 of the first segment ties on its first row; the 4-row segment
    # ties between rows 1 and 3; the last segment is all one row
    x = np.array([[3.0, 1.0], [3.0, 2.0], [5.0, 1.0], [2.0, 7.0], [5.0, 3.0], [2.0, 7.0],
                  [4.0, 4.0], [4.0, 4.0], [4.0, 4.0]])
    for counts in ([2, 4, 3], [1, 1, 4, 3]):
        for sign in (1.0, -1.0):
            (out, grad), (ref_out, ref_grad), _ = _pool_bits(sign * x, counts)
            assert np.array_equal(out, ref_out) and np.array_equal(grad, ref_grad)


def test_pool_keeps_the_sign_of_a_zero_extreme():
    # a short segment is padded in the block: the padding must not turn
    # max(-0.0, +0.0) = +0.0 of the reference into -0.0, nor min likewise
    x = np.array([[-0.0, 0.0], [0.0, -0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    (out, grad), (ref_out, ref_grad), _ = _pool_bits(x, [2, 3])
    assert np.array_equal(np.signbit(out), np.signbit(ref_out))
    assert np.array_equal(out, ref_out) and np.array_equal(grad, ref_grad)


def test_pool_nan_row_sends_extreme_gradients_to_first_row():
    x = np.random.default_rng(17).normal(size=(7, 3))
    x[3, 1] = np.nan  # row 2 of the segment [1, 5)
    (out, grad), (ref_out, ref_grad), g = _pool_bits(x, [1, 4, 2])
    # column 1 of the mean, max and min, at each of the 3 scalers
    nan_columns = np.arange(1, 27, 3)
    assert np.isnan(out[1, nan_columns]).all() and not np.isnan(np.delete(out[1], nan_columns)).any()
    assert np.array_equal(out, ref_out, equal_nan=True) and np.array_equal(grad, ref_grad)
    g_mean, g_max, g_min = (np.asarray(ndiff.SCALERS) @ g.reshape(3, 3, 9))[1, 1::3]
    assert grad[1, 1] == g_mean / 4 + g_max + g_min  # the segment's first row takes both
    assert (grad[2:5, 1] == g_mean / 4).all()


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


SPECIAL_VALUES = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310,
                  2.2250738585072014e-308, -2.2250738585072014e-308, 1.5, -2.5, 1e300, -1e300]


@pytest.mark.parametrize("act, reference", [("relu", where_relu),
                                            ("leaky_relu", factor_leaky_relu)])
def test_activation_bit_equals_where_reference(act, reference):
    # every length from 1 to 80 at start offsets 0-3 runs numpy's vector
    # loops and their scalar tails on unaligned data too
    rng = np.random.default_rng(19)
    base = rng.choice(np.array(SPECIAL_VALUES + list(rng.normal(size=16))), size=83)
    forward = ndiff.ACTIVATIONS[act][0]
    for start in range(4):
        for length in range(1, 81):
            z = base[start:start + length]
            assert np.array_equal(_bits(forward(z)), _bits(reference(z))), (start, length)
    for z in (np.zeros((100, 16)), np.full((900, 16), -0.0), rng.normal(size=(900, 16))):
        assert np.array_equal(_bits(forward(z)), _bits(reference(z)))


def test_relu_of_negative_zero_is_positive_zero():
    relu = ndiff.ACTIVATIONS["relu"][0]
    for length in (1, 2, 3, 4, 7, 8, 16, 17, 80):
        out = relu(np.full(length, -0.0))
        assert (out == 0.0).all() and not np.signbit(out).any()
    assert not np.signbit(activate("relu", [-0.0])).any()


def _block(x, counts):
    seg = Segments(counts)
    block = x.take(seg.block_rows, axis=0)
    return seg, block, np.maximum.reduce(block, axis=0), np.minimum.reduce(block, axis=0)


@pytest.mark.parametrize("counts", [[3, 1, 4], [5, 5], [1, 1, 1], [2, 7, 3, 1]])
def test_first_match_equals_argmax_reference(counts):
    # values from a few levels, so most columns tie; the rows of the last
    # segment all equal; short segments are padded with their last row
    rng = np.random.default_rng(20)
    x = rng.integers(-2, 3, size=(sum(counts), 6)).astype(np.float64)
    x[sum(counts) - counts[-1]:] = x[-1]
    x[0, 0] = x[1, 0] = 9.0  # a tie at the first segment's first row
    x[counts[0] - 1, 1] = np.nan  # NaN extremes, from a segment's last row
    x[-1, 2] = -np.nan
    seg, block, hi, lo = _block(x, counts)
    for extreme in (hi, lo):
        want = argmax_first_match(block, extreme)
        assert np.array_equal(ndiff._first_match(block, extreme, seg), want)
    assert np.isnan(hi[0, 1]) and ndiff._first_match(block, hi, seg)[0, 1] == 0


def test_first_match_past_255_rows():
    # a rank dtype of 8 bits would wrap on a segment of 300 rows
    counts = [300, 2, 257]
    x = np.random.default_rng(21).normal(size=(sum(counts), 5))
    for column, row in enumerate([0, 44, 255, 256, 299]):
        x[row, column] = 10.0  # the max of segment 0 at its row 0, 44, ..., 299
        x[302 + row % 257, column] = -10.0  # the min of segment 2
    x[[255, 256], 2] = 10.0  # tied at rows 255 and 256: the first wins
    seg, block, hi, lo = _block(x, counts)
    assert np.array_equal(ndiff._first_match(block, hi, seg)[0], [0, 44, 255, 256, 299])
    assert np.array_equal(ndiff._first_match(block, lo, seg)[2], [0, 44, 255, 256, 42])
    for extreme in (hi, lo):
        assert np.array_equal(ndiff._first_match(block, extreme, seg),
                              argmax_first_match(block, extreme))
    (out, grad), (ref_out, ref_grad), _ = _pool_bits(x, counts)
    assert np.array_equal(out, ref_out) and np.array_equal(grad, ref_grad)


@pytest.mark.parametrize("own_sizes, other_sizes", [(RAGGED_OWN, RAGGED_OTHER),
                                                    (RAGGED_OTHER, RAGGED_OWN)])
def test_pair_mlp_gradient_bit_equals_sorted_reference(own_sizes, other_sizes):
    from blkp.graphrep import own_major_pairs
    rng = np.random.default_rng(18)
    pairs = own_major_pairs(np.array(own_sizes), np.array(other_sizes))
    mlp = make_mlp([5, 4, 3], ["relu", "identity"], rng)
    own = Node(rng.normal(size=(sum(own_sizes), 3)))
    other = Node(rng.normal(size=(sum(other_sizes), 2)))
    weights = rng.normal(size=(pairs[1].rows, 3))
    out, acts = mlp.run((own.data, other.data), pairs)
    fused = [g.copy() for g in mlp.grad(weights, acts, pairs)]
    fused += [g.copy() for _, g in parameters([mlp])]
    for _, g in parameters([mlp]):
        g[...] = 0.0
    ref = mlp_on_pairs(mlp, own, other, pairs)
    tsum(mul_const(ref, weights)).backward()
    assert np.array_equal(out, ref.data)
    for got, want in zip(fused, [own.grad, other.grad] + [g for _, g in parameters([mlp])]):
        assert np.array_equal(got, want)
