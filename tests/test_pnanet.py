import io

import numpy as np
import pytest

from blkp import ndiff
from blkp.graphrep import build_graph
from blkp.instance import BlkpInstance, GenConfig, generate
from blkp.pnanet import (CheckpointError, ModelParams, PnaConfig, decode,
                         encode, forward, forward_tensor, load_checkpoint,
                         _aggregate_groups, message_pass, save_checkpoint)


def permute_followers(inst, perm):
    return BlkpInstance(inst.n1, inst.n2, inst.a1, inst.d1, inst.a2[perm],
                        inst.d2[perm], inst.c[perm], inst.b)


def permute_leaders(inst, perm):
    return BlkpInstance(inst.n1, inst.n2, inst.a1[perm], inst.d1[perm],
                        inst.a2, inst.d2, inst.c, inst.b)


def aggregate(msgs, cfg):
    """One group of messages pooled into one row, as the network pools them."""
    return _aggregate_groups(ndiff.Tensor(np.asarray(msgs, dtype=np.float64)), 1, cfg).data[0]


def test_aggregate_default_layout():
    cfg = PnaConfig(msg_dim=2)
    out = aggregate([[1.0, 2.0], [3.0, 4.0]], cfg)
    base = np.array([2.0, 3.0, 3.0, 4.0, 1.0, 2.0])  # mean, max, min
    expected = np.concatenate([base, 0.7 * base, base / 0.7])
    assert np.allclose(out, expected)


def test_aggregate_single_message_unit_scalers():
    cfg = PnaConfig(msg_dim=1, scalers=(1.0, 1.0, 1.0))
    out = aggregate([[5.0]], cfg)
    assert np.allclose(out, np.full(9, 5.0))


def test_aggregate_permutation_invariant():
    cfg = PnaConfig(msg_dim=3)
    msgs = [np.arange(3) + i for i in range(5)]
    a = aggregate(msgs, cfg)
    b = aggregate(msgs[::-1], cfg)
    assert np.allclose(a, b)


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate([], PnaConfig())


def test_encode_shapes_and_symmetry():
    cfg = PnaConfig()
    params = ModelParams(cfg, seed=0)
    inst = BlkpInstance(1, 1, [2], [3], [2], [5], [4], 2)
    emb = encode(build_graph(inst), params)
    assert emb.leader.data.shape == (1, cfg.embed_dim)
    assert emb.follower.data.shape == (1, cfg.embed_dim)

    # identical follower items get identical embeddings
    inst2 = BlkpInstance(2, 2, [2, 3], [3, 4], [5, 5], [6, 6], [7, 7], 10)
    emb2 = encode(build_graph(inst2), params)
    assert np.allclose(emb2.follower.data[0], emb2.follower.data[1])


def test_message_pass_zero_rounds_identity():
    params = ModelParams(PnaConfig(iterations=0), seed=1)
    inst = generate(GenConfig(3, 4, seed=5))
    emb = encode(build_graph(inst), params)
    out = message_pass(emb, params)
    assert np.array_equal(out.leader.data, emb.leader.data)


def test_message_pass_weight_sharing():
    # iterations changes neither weight shapes nor draw order: same weights
    params = ModelParams(PnaConfig(iterations=2), seed=2)
    once = ModelParams(PnaConfig(iterations=1), seed=2)
    inst = generate(GenConfig(3, 3, seed=6))
    emb = encode(build_graph(inst), params)
    two = message_pass(emb, params)
    once_twice = message_pass(message_pass(emb, once), once)
    assert np.allclose(two.leader.data, once_twice.leader.data)


def test_decode_zero_parameters_give_half():
    cfg = PnaConfig()
    params = ModelParams(cfg, seed=0)
    for w, b, _ in params.mlps["decoder"].layers:
        w.data[:] = 0.0
        b.data[:] = 0.0
    inst = generate(GenConfig(4, 4, seed=7))
    emb = message_pass(encode(build_graph(inst), params), params)
    out = decode(emb, params)
    assert np.allclose(out.data, 0.5)


def test_forward_deterministic_and_in_range():
    params = ModelParams(PnaConfig(), seed=3)
    inst = generate(GenConfig(6, 5, seed=8))
    a = forward(inst, params)
    b = forward(inst, params)
    assert np.array_equal(a, b)
    assert ((a > 0) & (a < 1)).all()


@pytest.mark.parametrize("seed", range(10))
def test_permutation_properties(seed):
    rng = np.random.default_rng(seed)
    params = ModelParams(PnaConfig(), seed=4)
    inst = generate(GenConfig(int(rng.integers(2, 8)), int(rng.integers(2, 8)),
                              seed=seed))
    base = forward(inst, params)
    fperm = rng.permutation(inst.n2)
    assert np.allclose(forward(permute_followers(inst, fperm), params),
                       base, atol=1e-9)
    lperm = rng.permutation(inst.n1)
    assert np.allclose(forward(permute_leaders(inst, lperm), params),
                       base[lperm], atol=1e-9)


def test_size_generalization():
    params = ModelParams(PnaConfig(), seed=5)
    for n in (1, 3, 17):
        inst = generate(GenConfig(n, n + 1, seed=n))
        out = forward(inst, params)
        assert out.shape == (n,)
        assert np.isfinite(out).all()


def test_end_to_end_gradient_finite_differences():
    rng = np.random.default_rng(0)
    params = ModelParams(PnaConfig(), seed=6)
    inst = generate(GenConfig(4, 4, seed=9))
    graph = build_graph(inst)
    labels = rng.integers(0, 2, 4).astype(float)

    loss = ndiff.bce_loss(forward_tensor(graph, params), labels)
    loss.backward()

    def loss_value():
        return float(ndiff.bce_loss(forward_tensor(graph, params), labels).data)

    from _gradcheck import check_params
    checked = check_params(loss_value, params.parameters(), rng, per_param=2)
    assert checked >= 30


def test_checkpoint_round_trip():
    params = ModelParams(PnaConfig(), seed=7)
    inst = generate(GenConfig(5, 5, seed=10))
    from blkp.graphrep import DEFAULT_NORM
    buf = io.StringIO()
    save_checkpoint(params, DEFAULT_NORM, {"note": "test"}, buf)
    buf.seek(0)
    loaded, norm, meta = load_checkpoint(buf)
    assert meta["note"] == "test"
    assert np.array_equal(forward(inst, params), forward(inst, loaded, norm=norm))


def test_checkpoint_truncated_rejected(tmp_path):
    params = ModelParams(PnaConfig(), seed=8)
    from blkp.graphrep import DEFAULT_NORM
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, DEFAULT_NORM, {}, path)
    path.write_text(path.read_text()[:100])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_dimension_mismatch(tmp_path):
    import json
    params = ModelParams(PnaConfig(), seed=9)
    from blkp.graphrep import DEFAULT_NORM
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, DEFAULT_NORM, {}, path)
    doc = json.loads(path.read_text())
    doc["config"]["embed_dim"] = 32
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    import json
    params = ModelParams(PnaConfig(), seed=9)
    from blkp.graphrep import DEFAULT_NORM
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, DEFAULT_NORM, {}, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_non_finite_weight_rejected(tmp_path):
    import json
    params = ModelParams(PnaConfig(), seed=9)
    from blkp.graphrep import DEFAULT_NORM
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, DEFAULT_NORM, {}, path)
    doc = json.loads(path.read_text())
    doc["weights"]["decoder"][0]["w"][0][0] = float("nan")
    path.write_text(json.dumps(doc))  # json writes the value as NaN
    assert "NaN" in path.read_text()
    with pytest.raises(CheckpointError, match="not finite"):
        load_checkpoint(path)


def test_checkpoint_legacy_leaky_slope_ignored(tmp_path):
    import json
    params = ModelParams(PnaConfig(), seed=10)
    from blkp.graphrep import DEFAULT_NORM
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, DEFAULT_NORM, {}, path)
    doc = json.loads(path.read_text())
    doc["config"]["leaky_slope"] = 0.01  # written by older versions
    path.write_text(json.dumps(doc))
    loaded, norm, _ = load_checkpoint(path)
    inst = generate(GenConfig(5, 4, seed=11))
    assert np.array_equal(forward(inst, params), forward(inst, loaded, norm=norm))


def test_checkpoint_std_aggregator_rejected(tmp_path):
    import json
    params = ModelParams(PnaConfig(), seed=10)
    from blkp.graphrep import DEFAULT_NORM
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, DEFAULT_NORM, {}, path)
    doc = json.loads(path.read_text())
    doc["config"]["aggregators"] = ["mean", "max", "std"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="std"):
        load_checkpoint(path)


@pytest.mark.parametrize("key, value", [("embed_dim", 0), ("embed_dim", -1), ("msg_dim", 0),
                                        ("hidden", 0), ("decoder_hidden_layers", -1)])
def test_checkpoint_bad_widths_rejected(tmp_path, key, value):
    # embed_dim 0 used to escape as a ZeroDivisionError, -1 as a numpy error
    import json
    params = ModelParams(PnaConfig(), seed=10)
    from blkp.graphrep import DEFAULT_NORM
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, DEFAULT_NORM, {}, path)
    doc = json.loads(path.read_text())
    doc["config"][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=key):
        load_checkpoint(path)
