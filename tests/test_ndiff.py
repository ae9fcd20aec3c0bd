import math

import numpy as np
import pytest

from blkp import ndiff
from blkp.ndiff import Adam, Mlp, Tensor


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


def test_pointwise_examples():
    assert ndiff.sigmoid(Tensor([0.0])).data[0] == 0.5
    assert ndiff.leaky_relu(Tensor([-2.0]), 0.01).data[0] == pytest.approx(-0.02)
    assert ndiff.relu(Tensor([-3.0, 2.0])).data.tolist() == [0.0, 2.0]
    nan_in = ndiff.relu(Tensor([np.nan, -1.0, 2.0])).data  # NaN propagates
    assert np.isnan(nan_in[0]) and nan_in[1:].tolist() == [0.0, 2.0]


def test_group_reductions():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert ndiff.group_mean(t, 1).data.tolist() == [[2.0, 3.0]]
    assert ndiff.group_max(t, 1).data.tolist() == [[3.0, 4.0]]
    assert ndiff.group_min(t, 1).data.tolist() == [[1.0, 2.0]]


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        ndiff.mul(Tensor([[1.0]]), Tensor([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        ndiff.group_mean(Tensor(np.ones((5, 2))), 2)


def test_backward_requires_scalar():
    t = Tensor([[1.0, 2.0]])
    with pytest.raises(ValueError):
        t.backward()


def test_simple_product_gradient():
    w = Tensor([[3.0]])
    x = Tensor([[2.0]])
    loss = ndiff.tsum(ndiff.matmul(x, w))
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
    near_perfect = float(ndiff.bce_loss(Tensor([1.0 - eps]), [1.0]).data)
    assert near_perfect <= 1e-6
    half = float(ndiff.bce_loss(Tensor([0.5]), [1.0]).data)
    assert half == pytest.approx(math.log(2), abs=1e-12)
    sym = float(ndiff.bce_loss(Tensor([0.5, 0.5]), [1.0, 0.0]).data)
    assert sym == pytest.approx(math.log(2), abs=1e-12)


def test_bce_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(50):
        h = Tensor(rng.uniform(0.01, 0.99, 6))
        y = rng.integers(0, 2, 6).astype(float)
        assert float(ndiff.bce_loss(h, y).data) >= 0.0


def test_bce_length_mismatch():
    with pytest.raises(ValueError):
        ndiff.bce_loss(Tensor([0.5, 0.5]), [1.0])


@pytest.mark.parametrize("k", [1, 2, 7])
def test_bce_sum_stack_equals_loop(k):
    rng = np.random.default_rng(k)
    h = rng.uniform(0.0, 1.0, (5, 1))
    h[0, 0] = 1.0  # clamped at 1 - eps
    stack = rng.integers(0, 2, (k, 5)).astype(float)
    stacked, looped = Tensor(h), Tensor(h)
    total = ndiff.bce_sum(stacked, stack)
    total.backward()
    parts = [ndiff.bce_sum(looped, y) for y in stack]
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
        return float(ndiff.bce_loss(out, y).data)

    out = ndiff.sigmoid(mlp(Tensor(x)))
    loss = ndiff.bce_loss(out, y)
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
    pairs = ndiff.concat_cols([ndiff.repeat_rows(x, 4), ndiff.tile_rows(y, 3)])
    loss = ndiff.tsum(ndiff.mul(pairs, pairs))

    def loss_value():
        p = ndiff.concat_cols([ndiff.repeat_rows(x, 4), ndiff.tile_rows(y, 3)])
        return float(ndiff.tsum(ndiff.mul(p, p)).data)

    loss.backward()
    for p, g in zip([x, y], finite_diff(loss_value, [x, y])):
        assert np.allclose(p.grad, g, rtol=1e-6, atol=1e-8)


def test_group_reduction_gradients():
    rng = np.random.default_rng(4)
    t = Tensor(rng.normal(size=(6, 3)))
    for name, op in ndiff.GROUP_REDUCERS.items():
        t.zero_grad()
        loss = ndiff.tsum(ndiff.mul(op(t, 2), op(t, 2)))

        def loss_value():
            return float(ndiff.tsum(ndiff.mul(op(t, 2), op(t, 2))).data)

        loss.backward()
        fd = finite_diff(loss_value, [t])[0]
        assert np.allclose(t.grad, fd, rtol=1e-5, atol=1e-7), name


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
