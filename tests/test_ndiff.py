import math

import numpy as np
import pytest

from blkp import ndiff
from blkp.ndiff import Adam, Mlp, Segments, Tensor

from _unfused import matmul, take_rows


def finite_diff(fn, params, h=1e-5):
    """Central finite differences of a scalar function of Tensor params."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        it = np.nditer(p.data, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p.data[idx]
            p.data[idx] = orig + h
            up = fn()
            p.data[idx] = orig - h
            down = fn()
            p.data[idx] = orig
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def reduce_segments(t, seg, name):
    """One aggregator of `segment_pna` at scaler 1: each segment's mean, max or min."""
    return ndiff.segment_pna(t, seg, (name,), (1.0,))


def mean_bce(predictions, labels):
    """Mean binary cross-entropy of one label per prediction."""
    labels = np.asarray(labels, dtype=np.float64)
    return ndiff.affine_const(ndiff.bce_counts(predictions, labels, 1), 1.0 / labels.size)


def test_pointwise_examples():
    assert ndiff.sigmoid(Tensor([0.0])).data[0] == 0.5
    assert ndiff.leaky_relu(Tensor([-2.0])).data[0] == pytest.approx(-0.02)
    assert ndiff.relu(Tensor([-3.0, 2.0])).data.tolist() == [0.0, 2.0]
    nan_in = ndiff.relu(Tensor([np.nan, -1.0, 2.0])).data  # NaN propagates
    assert np.isnan(nan_in[0]) and nan_in[1:].tolist() == [0.0, 2.0]


def test_group_reductions():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    one = Segments([2])
    assert reduce_segments(t, one, "mean").data.tolist() == [[2.0, 3.0]]
    assert reduce_segments(t, one, "max").data.tolist() == [[3.0, 4.0]]
    assert reduce_segments(t, one, "min").data.tolist() == [[1.0, 2.0]]


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        Tensor(np.ones((2, 2, 2)))
    with pytest.raises(ValueError):  # two segments of 2 rows do not cover 5 rows
        reduce_segments(Tensor(np.ones((5, 2))), Segments([2, 2]), "mean")
    with pytest.raises(ValueError):
        Segments([2, 0, 3])


def test_backward_requires_scalar():
    t = Tensor([[1.0, 2.0]])
    with pytest.raises(ValueError):
        t.backward()


def test_simple_product_gradient():
    w = Tensor([[3.0]])
    x = Tensor([[2.0]])
    loss = ndiff.tsum(matmul(x, w))
    loss.backward()
    assert w.grad[0, 0] == 2.0
    assert x.grad[0, 0] == 3.0


def test_sigmoid_gradient_at_zero():
    w = Tensor([0.0])
    loss = ndiff.tsum(ndiff.sigmoid(w))
    loss.backward()
    assert w.grad[0] == pytest.approx(0.25)


def test_repeated_subgraph_accumulates():
    w = Tensor([2.0])
    # loss = w + w -> gradient 2
    loss = ndiff.tsum(ndiff.add(w, w))
    loss.backward()
    assert w.grad[0] == 2.0


def test_bce_examples():
    eps = ndiff.BCE_EPS
    near_perfect = float(mean_bce(Tensor([1.0 - eps]), [1.0]).data)
    assert near_perfect <= 1e-6
    half = float(mean_bce(Tensor([0.5]), [1.0]).data)
    assert half == pytest.approx(math.log(2), abs=1e-12)
    sym = float(mean_bce(Tensor([0.5, 0.5]), [1.0, 0.0]).data)
    assert sym == pytest.approx(math.log(2), abs=1e-12)


def test_bce_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(50):
        h = Tensor(rng.uniform(0.01, 0.99, 6))
        y = rng.integers(0, 2, 6).astype(float)
        assert float(mean_bce(h, y).data) >= 0.0


def test_bce_length_mismatch():
    with pytest.raises(ValueError):
        ndiff.bce_counts(Tensor([0.5, 0.5]), [1.0], 1)


@pytest.mark.parametrize("k", [1, 2, 7])
def test_bce_sum_stack_equals_loop(k):
    rng = np.random.default_rng(k)
    h = rng.uniform(0.0, 1.0, (5, 1))
    h[0, 0] = 1.0  # clamped at 1 - eps
    stack = rng.integers(0, 2, (k, 5)).astype(float)
    stacked, looped = Tensor(h), Tensor(h)
    total = ndiff.bce_counts(stacked, stack.sum(axis=0), k)
    total.backward()
    parts = [ndiff.bce_counts(looped, y, 1) for y in stack]
    ref = parts[0]
    for p in parts[1:]:
        ref = ndiff.add(ref, p)
    ref.backward()
    assert float(total.data) == pytest.approx(float(ref.data), rel=1e-12)
    assert np.allclose(stacked.grad, looped.grad, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("seed", range(5))
def test_mlp_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    mlp = Mlp([4, 8, 3], ["relu", "identity"], rng)
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 2, (6, 3)).astype(float)

    def loss_value():
        out = ndiff.sigmoid(mlp(Tensor(x)))
        return float(mean_bce(out, y).data)

    out = ndiff.sigmoid(mlp(Tensor(x)))
    loss = mean_bce(out, y)
    loss.backward()
    params = list(mlp.parameters())
    fd = finite_diff(loss_value, params)
    for p, g in zip(params, fd):
        denom = np.maximum(np.abs(g), 1e-6)
        assert np.max(np.abs(p.grad - g) / denom) < 1e-4


def test_pair_expansion_gradients():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(3, 2)))
    y = Tensor(rng.normal(size=(4, 2)))
    # every (x row, y row) pair, x-major
    x_rows, y_rows = np.repeat(np.arange(3), 4), np.tile(np.arange(4), 3)

    def expand():
        return ndiff.concat_cols([take_rows(x, x_rows), take_rows(y, y_rows)])

    weights = rng.normal(size=(12, 4))
    loss = ndiff.tsum(ndiff.mul_const(expand(), weights))

    def loss_value():
        return float(ndiff.tsum(ndiff.mul_const(expand(), weights)).data)

    loss.backward()
    for p, g in zip([x, y], finite_diff(loss_value, [x, y])):
        assert np.allclose(p.grad, g, rtol=1e-6, atol=1e-8)


def test_group_reduction_gradients():
    rng = np.random.default_rng(4)
    t = Tensor(rng.normal(size=(6, 3)))
    two = Segments([3, 3])
    weights = rng.normal(size=(2, 3))
    for name in ndiff.AGGREGATORS:
        t.grad = None
        loss = ndiff.tsum(ndiff.mul_const(reduce_segments(t, two, name), weights))

        def loss_value():
            return float(ndiff.tsum(ndiff.mul_const(reduce_segments(t, two, name),
                                                    weights)).data)

        loss.backward()
        fd = finite_diff(loss_value, [t])[0]
        assert np.allclose(t.grad, fd, rtol=1e-5, atol=1e-7), name


def test_take_rows_gradient_finite_differences():
    # rows picked out of order, some twice, one never
    rng = np.random.default_rng(5)
    t = Tensor(rng.normal(size=(5, 3)))
    rows = np.array([3, 0, 3, 1, 0, 3, 4])
    weights = rng.normal(size=(len(rows), 3))

    def loss_of():
        return ndiff.tsum(ndiff.mul_const(take_rows(t, rows), weights))

    out = take_rows(t, rows)
    assert np.array_equal(out.data, t.data[rows])
    loss_of().backward()
    fd = finite_diff(lambda: float(loss_of().data), [t])[0]
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
    t = Tensor(x)
    weights = rng.normal(size=(3, 3))
    for name in ndiff.AGGREGATORS:
        out = reduce_segments(t, seg, name)
        assert np.allclose(out.data, expected[name], rtol=1e-15, atol=0.0), name
        t.grad = None
        ndiff.tsum(ndiff.mul_const(out, weights)).backward()

        def loss_value():
            return float(ndiff.tsum(ndiff.mul_const(reduce_segments(t, seg, name),
                                                    weights)).data)

        fd = finite_diff(loss_value, [t])[0]
        assert np.allclose(t.grad, fd, rtol=1e-5, atol=1e-7), name


@pytest.mark.parametrize("op", ["max", "min"])
def test_segment_extreme_ties_go_to_first_row(op):
    # rows 1 and 3 tie for the extreme of segment [1, 4) in column 0;
    # rows 4 and 5 tie in both columns of segment [4, 6)
    x = np.array([[9.0, 0.0], [5.0, 1.0], [2.0, 7.0], [5.0, 3.0], [4.0, 4.0], [4.0, 4.0]])
    if op == "min":
        x = -x
    t = Tensor(x)
    seg = Segments([1, 3, 2])
    out = reduce_segments(t, seg, op)
    ndiff.tsum(ndiff.mul_const(out, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])).backward()
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
    pooled = Tensor(h)
    total = ndiff.bce_counts(pooled, np.concatenate([first.sum(axis=0), second.sum(axis=0)]),
                             [3, 3, 1, 1, 1])
    total.backward()
    apart = Tensor(h)
    ref = ndiff.bce_counts(take_rows(apart, [2, 3, 4]), second[0], 1)
    for y in first:  # one term per label
        ref = ndiff.add(ref, ndiff.bce_counts(take_rows(apart, [0, 1]), y, 1))
    ref.backward()
    assert float(total.data) == pytest.approx(float(ref.data), rel=1e-12)
    assert np.allclose(pooled.grad, apart.grad, rtol=1e-12, atol=0.0)


def test_adam_zero_gradient_no_decay():
    p = Tensor([1.0, -2.0])
    opt = Adam([p], weight_decay=0.0)
    p.grad = np.zeros(2)
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)


def test_adam_descends_quadratic():
    w = Tensor([1.0])
    opt = Adam([w], lr=0.002, weight_decay=0.0)
    w.grad = np.array([2.0 * w.data[0]])
    opt.step()
    assert w.data[0] < 1.0


def test_adam_converges_to_minimum():
    # expectations frozen from running the scalar recurrence itself
    w = Tensor([1.0])
    opt = Adam([w], lr=0.002, weight_decay=0.0)
    for _ in range(2000):
        w.grad = np.array([2.0 * (w.data[0] - 3.0)])
        opt.step()
    assert w.data[0] == pytest.approx(2.9586753787333384, abs=1e-12)
    for _ in range(1000):
        w.grad = np.array([2.0 * (w.data[0] - 3.0)])
        opt.step()
    assert abs(w.data[0] - 3.0) < 1e-2


def test_forward_determinism():
    rng = np.random.default_rng(9)
    mlp = Mlp([3, 16, 1], ["relu", "sigmoid"], np.random.default_rng(1))
    x = rng.normal(size=(5, 3))
    a = mlp(Tensor(x)).data
    b = mlp(Tensor(x)).data
    assert np.array_equal(a, b)


def test_first_gradient_is_copied_not_aliased():
    # p's first gradient is a column view of the concat's gradient, which
    # `add` also hands to q; p's second gradient must not reach q or the concat
    p, q, r = (Tensor(np.full((2, 2), v)) for v in (1.0, 2.0, 3.0))
    cat = ndiff.concat_cols([ndiff.add(p, q), r])
    weights = np.arange(8.0).reshape(2, 4)
    loss = ndiff.add(ndiff.tsum(ndiff.mul_const(cat, weights)),
                     ndiff.tsum(ndiff.mul_const(p, [[10.0, 20.0], [30.0, 40.0]])))
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
        return ndiff.tsum(ndiff.mul_const(build(), weights))

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
    check_params(lambda: float(loss_of(fused).data), tensors, np.random.default_rng(0),
                 per_param=10 ** 6)


def test_linear_matches_matmul_add_and_finite_differences():
    rng = np.random.default_rng(10)
    x, w, b = (Tensor(rng.normal(size=s)) for s in ((5, 3), (3, 4), (4,)))
    weights = rng.normal(size=(5, 4))
    _check_fused_op(lambda: ndiff.linear(x, w, b),
                    lambda: ndiff.add(matmul(x, w), b), [x, w, b], weights, tol=0.0)


@pytest.mark.parametrize("own_sizes, other_sizes", [(RAGGED_OWN, RAGGED_OTHER),
                                                    (RAGGED_OTHER, RAGGED_OWN)])
def test_pair_linear_matches_gathered_pairs(own_sizes, other_sizes):
    from blkp.graphrep import own_major_pairs
    rng = np.random.default_rng(11)
    pairs = own_major_pairs(np.array(own_sizes), np.array(other_sizes))
    other_rows, seg = pairs
    own_rows = np.repeat(np.arange(len(seg.counts)), seg.counts)
    own = Tensor(rng.normal(size=(sum(own_sizes), 3)))
    other = Tensor(rng.normal(size=(sum(other_sizes), 2)))
    w, b = Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=4))
    weights = rng.normal(size=(seg.rows, 4))

    def fused():
        return ndiff.pair_linear(own, other, pairs, w, b)

    def reference():
        gathered = ndiff.concat_cols([take_rows(own, own_rows),
                                      take_rows(other, other_rows)])
        return ndiff.add(matmul(gathered, w), b)

    _check_fused_op(fused, reference, [own, other, w, b], weights, tol=1e-12)


@pytest.mark.parametrize("aggregators, scalers", [
    (("mean", "max", "min"), (1.0, 0.7, 1.0 / 0.7)),
    (("min", "mean"), (2.5, 0.3)),
    (("max",), (1.0,)),
])
def test_segment_pna_matches_per_aggregator_ops(aggregators, scalers):
    from _gradcheck import check_params
    rng = np.random.default_rng(12)
    t = Tensor(rng.normal(size=(7, 3)))
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
        return ndiff.tsum(ndiff.mul_const(ndiff.segment_pna(t, seg, aggregators, scalers),
                                          weights))

    assert np.allclose(ndiff.segment_pna(t, seg, aggregators, scalers).data, expected,
                       rtol=1e-12, atol=1e-12)
    loss_of().backward()
    check_params(lambda: float(loss_of().data), [t], np.random.default_rng(0),
                 per_param=10 ** 6)


def test_segment_pna_ties_go_to_first_row():
    # the data of test_segment_extreme_ties_go_to_first_row: max and min
    # pick the same rows in the 1-row segment and in the all-tied segment
    x = np.array([[9.0, 0.0], [5.0, 1.0], [2.0, 7.0], [5.0, 3.0], [4.0, 4.0], [4.0, 4.0]])
    t = Tensor(x)
    out = ndiff.segment_pna(t, Segments([1, 3, 2]), ("max", "min"), (1.0, 2.0))
    weights = np.arange(24.0).reshape(3, 8)
    ndiff.tsum(ndiff.mul_const(out, weights)).backward()
    g_max = weights[:, 0:2] + 2.0 * weights[:, 4:6]
    g_min = weights[:, 2:4] + 2.0 * weights[:, 6:8]
    expected = np.zeros((6, 2))
    expected[0] = g_max[0] + g_min[0]
    expected[1] = [g_max[1, 0], g_min[1, 1]]  # max of column 0 ties rows 1 and 3
    expected[2] = [g_min[1, 0], g_max[1, 1]]
    expected[4] = g_max[2] + g_min[2]
    assert np.array_equal(t.grad, expected)
