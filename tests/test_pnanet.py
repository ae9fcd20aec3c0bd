import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from blkp import graphrep, ndiff, pnanet
from blkp.graphrep import DEFAULT_NORM, build_graph, graph_union
from blkp.instance import BlkpInstance, GenConfig, generate
from blkp.ndiff import SCALERS
from blkp.pnanet import (CheckpointError, ModelParams, PnaConfig, forward, forward_tensor,
                         load_checkpoint, predict, save_checkpoint)

import _unfused


def permute_followers(inst, perm):
    return BlkpInstance(inst.n1, inst.n2, inst.a1, inst.d1, inst.a2[perm],
                        inst.d2[perm], inst.c[perm], inst.b)


def permute_leaders(inst, perm):
    return BlkpInstance(inst.n1, inst.n2, inst.a1[perm], inst.d1[perm],
                        inst.a2, inst.d2, inst.c, inst.b)


def aggregate(msgs):
    """One segment of messages pooled into one row, as the network pools them."""
    msgs = np.asarray(msgs, dtype=np.float64)
    seg = ndiff.Segments([len(msgs)])
    out = np.empty((1, len(ndiff.AGGREGATORS) * len(SCALERS) * msgs.shape[1]))
    ndiff.pool(msgs, seg, out)
    return out[0]


def test_aggregate_default_layout():
    out = aggregate([[1.0, 2.0], [3.0, 4.0]])
    base = np.array([2.0, 3.0, 3.0, 4.0, 1.0, 2.0])  # mean, max, min
    expected = np.concatenate([base, 0.7 * base, base / 0.7])
    assert np.allclose(out, expected)


def test_aggregate_single_message_is_its_mean_max_and_min():
    out = aggregate([[5.0]])
    assert np.allclose(out, np.repeat(5.0 * np.asarray(SCALERS), 3))


def test_aggregate_permutation_invariant():
    msgs = [np.arange(3) + i for i in range(5)]
    a = aggregate(msgs)
    b = aggregate(msgs[::-1])
    assert np.allclose(a, b)


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate([])


def reference_leader_embeddings(graph, params):
    """Leader embeddings of the network with every round updating both groups.

    The network written out half-round by half-round on the per-layer
    tape: the encoder round, then `iterations` rounds of the shared
    blocks, each reading the previous generation of both groups.
    """
    def half_round(own, other, pairs, block, extra=()):
        return _unfused.half_round(own, other, pairs, params, block, extra)

    lf, ff, cap_l, cap_f = _unfused.network_inputs(graph)
    leader_pairs, follower_pairs = graph.pairs
    x = half_round(lf, ff, leader_pairs, "leader_enc", (cap_l,))
    y = half_round(ff, lf, follower_pairs, "follower_enc", (cap_f,))
    for _ in range(params.cfg.iterations):
        x, y = (half_round(x, y, leader_pairs, "leader_mp"),
                half_round(y, x, follower_pairs, "follower_mp"))
    return x


def test_encode_shapes_and_symmetry():
    # one prediction per leader; identical items get identical embeddings
    # in every round, hence identical predictions
    for iterations in (0, 2):
        params = ModelParams(PnaConfig(iterations=iterations), seed=0)
        inst = BlkpInstance(1, 1, [2], [3], [2], [5], [4], 2)
        assert forward_tensor(build_graph(inst), params).data.shape == (1, 1)
        inst2 = BlkpInstance(2, 2, [3, 3], [4, 4], [5, 5], [6, 6], [7, 7], 10)
        out = forward(inst2, params)
        assert np.allclose(out[0], out[1])


def test_message_pass_zero_rounds_identity():
    # no round: the decoder reads the encoder's leader embeddings, and the
    # message-passing blocks are never run
    params = ModelParams(PnaConfig(iterations=0), seed=1)
    graph = build_graph(generate(GenConfig(3, 4, seed=5)))
    leader = reference_leader_embeddings(graph, params)
    expected = params.mlps["decoder"].run(leader.data)[0]
    for name in ("msg_leader_mp", "upd_leader_mp", "msg_follower_mp", "upd_follower_mp"):
        for w, b, _ in params.mlps[name].layers:
            w[:] = np.nan
            b[:] = np.nan
    assert np.array_equal(forward_tensor(graph, params).data, expected)


def test_message_pass_weight_sharing():
    # iterations changes neither weight shapes nor draw order: same
    # weights, run once per round; skipping the followers' last update
    # leaves the output bit-identical
    once = ModelParams(PnaConfig(iterations=1), seed=2)
    graph = build_graph(generate(GenConfig(3, 3, seed=6)))
    for iterations in (1, 2, 3):
        params = ModelParams(PnaConfig(iterations=iterations), seed=2)
        assert np.array_equal(params.flat, once.flat)
        leader = reference_leader_embeddings(graph, params)
        expected = params.mlps["decoder"].run(leader.data)[0]
        assert np.array_equal(forward_tensor(graph, params).data, expected)


def test_decode_zero_parameters_give_half():
    cfg = PnaConfig()
    params = ModelParams(cfg, seed=0)
    for w, b, _ in params.mlps["decoder"].layers:
        w[:] = 0.0
        b[:] = 0.0
    inst = generate(GenConfig(4, 4, seed=7))
    out = forward_tensor(build_graph(inst), params)
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


# ragged sizes, including a single leader and a single follower
UNION_SIZES = [(1, 4), (5, 1), (1, 1), (7, 3), (3, 9), (6, 6)]


def test_union_forward_equals_single_forwards():
    params = ModelParams(PnaConfig(), seed=12)
    insts = [generate(GenConfig(n1, n2, data_type="UC" if i % 2 else "C", seed=30 + i))
             for i, (n1, n2) in enumerate(UNION_SIZES)]
    union = graph_union(build_graph(inst) for inst in insts)
    assert (union.n1, union.n2) == (23, 24)
    out = forward_tensor(union, params).data.ravel()
    single = np.concatenate([forward(inst, params) for inst in insts])
    assert np.allclose(out, single, rtol=0.0, atol=1e-12)


def test_union_order_permutes_outputs():
    params = ModelParams(PnaConfig(), seed=13)
    graphs = [build_graph(generate(GenConfig(n1, n2, seed=40 + i)))
              for i, (n1, n2) in enumerate(UNION_SIZES)]
    order = np.random.default_rng(0).permutation(len(graphs))
    out = forward_tensor(graph_union(graphs), params).data.ravel()
    reordered = forward_tensor(graph_union(graphs[k] for k in order), params).data.ravel()
    bounds = np.cumsum([0] + [g.n1 for g in graphs])
    expected = np.concatenate([out[bounds[k]:bounds[k + 1]] for k in order])
    assert np.allclose(reordered, expected, rtol=0.0, atol=1e-12)


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

    out = forward_tensor(graph, params)
    out._backward(ndiff.bce_mean(out.data, labels, 1)[1])

    def loss_value():
        return float(ndiff.bce_mean(forward_tensor(graph, params).data, labels, 1)[0])

    from _gradcheck import check_params, parameters
    checked = check_params(loss_value, parameters(params.mlps.values()), rng, per_param=2)
    assert checked >= 30


def test_one_adam_step_moves_every_weight_array():
    # a weight array come loose from the buffer would keep its values
    params = ModelParams(PnaConfig(), seed=8)
    arrays = [a for mlp in params.mlps.values() for layer in mlp.state_arrays() for a in layer]
    before = [a.copy() for a in arrays]
    params.grad[...] = 1.0
    ndiff.Adam(params.flat, params.grad).step()
    assert all((a != b).all() for a, b in zip(arrays, before))


def test_load_checkpoint_fills_the_flat_buffer():
    params, _, _ = load_checkpoint(DESK_CHECKPOINT)
    weights = json.loads(DESK_CHECKPOINT.read_text())["weights"]
    assert np.array_equal(params.flat, np.concatenate(
        [np.ravel(layer[k]) for layers in weights.values() for layer in layers for k in "wb"]))
    arrays = [a for mlp in params.mlps.values() for layer in mlp.state_arrays() for a in layer]
    assert all(np.shares_memory(a, params.flat) for a in arrays)


def test_checkpoint_round_trip(tmp_path):
    params = ModelParams(PnaConfig(), seed=7)
    inst = generate(GenConfig(5, 5, seed=10))
    from blkp.graphrep import DEFAULT_NORM
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, DEFAULT_NORM, {"note": "test"}, path)
    loaded, norm, meta = load_checkpoint(path)
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


def test_checkpoint_not_utf8_rejected(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_bytes(b'{"format": "\xff"}')
    with pytest.raises(CheckpointError, match="corrupt checkpoint"):
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


@pytest.mark.parametrize("value", [True, 1.0, "1"])
def test_checkpoint_format_version_must_be_the_integer(tmp_path, value):
    # true and 1.0 compare equal to 1, and used to load
    path = tmp_path / "ckpt.json"
    save_checkpoint(ModelParams(PnaConfig(), seed=9), DEFAULT_NORM, {}, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="format_version"):
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
                                        ("hidden", 0), ("decoder_hidden_layers", -1),
                                        ("iterations", -1), ("iterations", 2.9),
                                        ("iterations", 2.0), ("iterations", True),
                                        ("iterations", "2"), ("iterations", None)])
def test_checkpoint_bad_widths_rejected(tmp_path, key, value):
    # embed_dim 0 used to escape as a ZeroDivisionError, -1 as a numpy error;
    # int() used to run iterations 2.9 as 2 rounds and true as 1, and to read "2"
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



@pytest.mark.parametrize("key, value", [("scalers", [1.0, 1.0, 1.0]),
                                        ("aggregators", ["max", "mean", "min"])])
def test_checkpoint_other_architecture_rejected(tmp_path, key, value):
    # the pooling layout is part of the checkpoint contract: unit scalers or
    # reordered aggregators keep every weight shape but mean other weights
    from blkp.graphrep import DEFAULT_NORM
    path = tmp_path / "ckpt.json"
    save_checkpoint(ModelParams(PnaConfig(), seed=10), DEFAULT_NORM, {}, path)
    doc = json.loads(path.read_text())
    doc["config"][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=key):
        load_checkpoint(path)


@pytest.mark.parametrize("key, value", [("version", 7), ("version", 0), ("version", True),
                                        ("version", 1.0), ("version", "1"),
                                        ("value_scale", -5.0), ("value_scale", 0.0),
                                        ("value_scale", float("nan")),
                                        ("value_scale", float("inf")),
                                        ("value_scale", True), ("value_scale", "1e3")])
def test_checkpoint_invalid_normalization_rejected(tmp_path, key, value):
    # another scheme version (true and 1.0 compare equal to 1, and used to
    # load), or a scale that flips, zeroes or blows up every input; float()
    # used to load the scale true as 1.0 and "1e3" as 1000.0
    from blkp.graphrep import DEFAULT_NORM
    path = tmp_path / "ckpt.json"
    save_checkpoint(ModelParams(PnaConfig(), seed=10), DEFAULT_NORM, {}, path)
    doc = json.loads(path.read_text())
    doc["normalization"][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=key):
        load_checkpoint(path)


@pytest.mark.parametrize("damage", ["drop_layer", "drop_mlp", "short_weight", "long_bias"])
def test_checkpoint_bad_weights_rejected(tmp_path, damage):
    path = tmp_path / "ckpt.json"
    save_checkpoint(ModelParams(PnaConfig(), seed=10), DEFAULT_NORM, {}, path)
    doc = json.loads(path.read_text())
    decoder = doc["weights"]["decoder"]
    if damage == "drop_layer":
        decoder.pop()
    elif damage == "drop_mlp":
        del doc["weights"]["decoder"]
    elif damage == "short_weight":
        decoder[0]["w"].pop()
    else:
        decoder[-1]["b"].append(0.0)
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="checkpoint weights invalid: "):
        load_checkpoint(path)


DESK_CHECKPOINT =Path(__file__).resolve().parent.parent / "perfbench" / "desk_checkpoint.json"


def test_desk_checkpoint_saves_back_unchanged(tmp_path):
    committed = json.loads(DESK_CHECKPOINT.read_text())
    del committed["config"]["leaky_slope"]  # written by older versions, ignored
    params, norm, meta = load_checkpoint(DESK_CHECKPOINT)
    path = tmp_path / "again.json"
    save_checkpoint(params, norm, meta, path)
    again = json.loads(path.read_text())
    assert list(again["config"].items()) == list(committed["config"].items())
    assert again["weights"] == committed["weights"]

def created_tensors(monkeypatch, fn, *args):
    """fn(*args), and every tensor the call created."""
    created = []
    init = ndiff.Tensor.__init__

    def recording_init(self, *a, **kw):
        init(self, *a, **kw)
        created.append(self)

    monkeypatch.setattr(ndiff.Tensor, "__init__", recording_init)
    out = fn(*args)
    monkeypatch.undo()
    return out, created


@pytest.mark.parametrize("iterations, half_rounds", [(0, 1), (2, 5)])
def test_forward_runs_only_the_half_rounds_the_decoder_reads(monkeypatch, iterations,
                                                             half_rounds):
    # the encoder's two, then both groups' per round but the last round's
    # followers; at 0 rounds the decoder reads the encoder's leaders only.
    # The inference forward keeps no record; the training forward runs the
    # same half-rounds and keeps every one
    calls = []
    half_round = pnanet._half_round

    def counted(*args, **kwargs):
        calls.append((args[4], args[6]))  # block, keep
        return half_round(*args, **kwargs)

    monkeypatch.setattr(pnanet, "_half_round", counted)
    params = ModelParams(PnaConfig(iterations=iterations), seed=14)
    inst = generate(GenConfig(10, 10, seed=15))
    forward(inst, params)
    blocks = [block for block, _ in calls]
    assert len(blocks) == half_rounds
    assert blocks[-1] == ("leader_mp" if iterations else "leader_enc")
    assert not any(keep for _, keep in calls)
    calls.clear()
    forward_tensor(build_graph(inst), params)
    assert calls == [(block, True) for block in blocks]


def test_inference_creates_no_tensor_and_batch_loss_two(monkeypatch):
    from blkp.trainer import LabeledSample, _batch_loss, evaluate_loss
    params = ModelParams(PnaConfig(), seed=24)
    inst = generate(GenConfig(10, 10, seed=25))
    values, created = created_tensors(monkeypatch, forward, inst, params)
    assert np.array_equal(values, forward_tensor(build_graph(inst), params).data.ravel())
    assert not created
    # the batch loss is a second tensor over the training forward's; the
    # validation loss, the same value, creates none
    rng = np.random.default_rng(16)
    instances = [generate(GenConfig(n, n + 1, seed=16 + n)) for n in (3, 5, 8)]
    graphs = {i: build_graph(inst) for i, inst in enumerate(instances)}
    samples = [LabeledSample(int(i), rng.integers(0, 2, instances[i].n1).astype(float))
               for i in (2, 0, 2, 1, 0)]
    loss, created = created_tensors(monkeypatch, _batch_loss, samples, graphs, params)
    assert len(created) == 2 and created[-1] is loss
    value, created = created_tensors(monkeypatch, evaluate_loss, samples, graphs, params)
    assert value == float(loss.data) and not created


def test_each_forward_reads_the_pair_index_once(monkeypatch):
    # the graph hands its one pair index over whole: one read of the cache
    # per forward, for both groups' half-rounds and the reverse pass
    calls = []
    pair_index = graphrep._pair_index

    def counted(*args):
        calls.append(args)
        return pair_index(*args)

    monkeypatch.setattr(graphrep, "_pair_index", counted)
    params = ModelParams(PnaConfig(), seed=26)
    inst = generate(GenConfig(6, 7, seed=27))
    graph = build_graph(inst)
    for fn, arg in ((forward, inst), (predict, graph), (forward_tensor, graph)):
        calls.clear()
        out = fn(arg, params)
        assert calls == [((6,), (7,))]
    _unfused.tsum(_unfused.node(out)).backward()
    assert calls == [((6,), (7,))]


def random_params(iterations, seed):
    """Parameters of the given round count with every weight and bias drawn nonzero."""
    params = ModelParams(PnaConfig(iterations=iterations), seed=seed)
    params.flat[...] = np.random.default_rng(seed).normal(scale=0.5, size=params.flat.size)
    return params


def single_and_union_graphs(seed):
    """Single graphs, n1 != n2 from 1 to 60, UC and C, then ragged unions of them."""
    rng = np.random.default_rng(seed)
    graphs = []
    for i, (n1, n2) in enumerate([(1, 60), (60, 1), (2, 3), (13, 47), (59, 60)]
                                 + [tuple(rng.choice(60, 2, replace=False) + 1)
                                    for _ in range(3)]):
        inst = generate(GenConfig(int(n1), int(n2), data_type="UC" if i % 2 else "C",
                                  seed=seed + i))
        graphs.append(build_graph(inst))
    unions = [graph_union(build_graph(generate(GenConfig(n1, n2, seed=seed + 20 + i)))
                          for i, (n1, n2) in enumerate(UNION_SIZES)),
              graph_union(graphs[k] for k in rng.permutation(len(graphs))[:4])]
    return graphs + unions


@pytest.mark.parametrize("iterations", [0, 1, 2, 3])
def test_predict_bit_equals_the_training_forward(iterations):
    params = random_params(iterations, 70 + iterations)
    for graph in single_and_union_graphs(80 + iterations):
        assert np.array_equal(predict(graph, params), forward_tensor(graph, params).data)


@pytest.mark.parametrize("chunk_pairs", [1, 25, 64])
@pytest.mark.parametrize("iterations", [0, 1, 2, 3])
def test_chunked_predict_bit_equals_the_training_forward(monkeypatch, iterations,
                                                         chunk_pairs):
    # at 1 and 25 pairs an n = 10 graph's 100 pairs run as five chunks of two
    # segments, at 64 as two; a union's chunks are cut by its longest
    # segment, and a chunk of segments of one pair each has two or more
    params = random_params(iterations, 90 + iterations)
    graphs = single_and_union_graphs(100 + iterations)
    graphs.append(build_graph(generate(GenConfig(10, 10, seed=9))))
    want = [forward_tensor(graph, params).data for graph in graphs]
    monkeypatch.setattr(pnanet, "CHUNK_PAIRS", chunk_pairs)
    assert len(pnanet._chunks(graphs[-1].pairs[0][1])) == {1: 5, 25: 5, 64: 2}[chunk_pairs]
    for graph, data in zip(graphs, want):
        assert np.array_equal(predict(graph, params), data)


def test_forward_memory_is_bounded_by_the_chunk(monkeypatch):
    # at n = 200 a half-round has 40000 pairs, 5 MB per pair array: the
    # chunked forward holds a few chunks' arrays, the unchunked one many more
    params = random_params(2, 110)
    inst = generate(GenConfig(200, 200, seed=111))
    build_graph(inst).pairs  # the union shape's pair index, cached, outside the trace

    def peak():
        tracemalloc.start()
        try:
            forward(inst, params)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    bound = 4 * 2 ** 20
    assert peak() < bound
    monkeypatch.setattr(pnanet, "CHUNK_PAIRS", 10 ** 9)
    assert peak() > bound


@pytest.mark.parametrize("iterations", [0, 1, 2, 3, 4])
def test_fused_nodes_bit_equal_per_layer_tape(iterations):
    # the forward and every parameter gradient, on a ragged union, bit for
    # bit; from 3 rounds on the tape's depth-first order alternates which
    # group's half-round comes first in a round
    rng = np.random.default_rng(20 + iterations)
    params = ModelParams(PnaConfig(iterations=iterations), seed=21)
    graph = graph_union(build_graph(generate(GenConfig(n1, n2, seed=50 + i)))
                        for i, (n1, n2) in enumerate(UNION_SIZES))
    weights = rng.normal(size=(graph.n1, 1))

    fused = forward_tensor(graph, params)
    _unfused.tsum(_unfused.mul_const(_unfused.node(fused), weights)).backward()
    fused_grad = params.grad.copy()
    params.grad[...] = 0.0

    ref = _unfused.forward_tensor(graph, params)
    _unfused.tsum(_unfused.mul_const(ref, weights)).backward()

    assert np.array_equal(fused.data, ref.data)
    assert np.array_equal(fused_grad, params.grad)


@pytest.mark.parametrize("block, leader_major, extras", [("leader_enc", True, 1),
                                                       ("follower_mp", False, 0)])
def test_half_round_node_bit_equals_six_nodes(block, leader_major, extras):
    # one half-round on random inputs: its output and the gradients of
    # own, other and the block's parameters
    rng = np.random.default_rng(22)
    params = ModelParams(PnaConfig(), seed=23)
    graph = graph_union(build_graph(generate(GenConfig(n1, n2, seed=60 + i)))
                        for i, (n1, n2) in enumerate(UNION_SIZES))
    pairs = graph.pairs[0 if leader_major else 1]
    n_own, n_other = (graph.n1, graph.n2) if leader_major else (graph.n2, graph.n1)
    msg, upd = params.mlps["msg_" + block], params.mlps["upd_" + block]
    k_own = upd.layers[0][0].shape[0] - extras - pnanet.AGGREGATED_WIDTH
    k_other = msg.layers[0][0].shape[0] - k_own
    arrays = [rng.normal(size=(n_own, k_own)), rng.normal(size=(n_other, k_other))]
    arrays += [rng.normal(size=(n_own, 1)) for _ in range(extras)]
    weights = rng.normal(size=(n_own, upd.layers[-1][0].shape[1]))

    own, other, *extra = arrays
    out, record = pnanet._half_round(own, other, pairs, params, block, *extra)
    fused = [out, *pnanet._half_round_grad(weights, record, pairs, params, block)]
    fused_grad = params.grad.copy()
    params.grad[...] = 0.0
    own, other, *extra = (_unfused.Node(a) for a in arrays)
    ref = _unfused.half_round(own, other, pairs, params, block, tuple(extra))
    _unfused.tsum(_unfused.mul_const(ref, weights)).backward()
    for got, want in zip(fused + [fused_grad], [ref.data, own.grad, other.grad, params.grad]):
        assert np.array_equal(got, want)


# sha256 of the desk checkpoint's forward on 20 fixed n = 10 instances: any
# change of the forward's arithmetic, down to the last bit, changes it
# (tests/test_trainer.py pins a training history the same way)
DESK_FORWARD_SHA256 = "6b5655076a62b20dd98b86d735424066fc6eef6f3fcca55d8aa6ce211737809e"


def test_desk_forward_bits_are_pinned():
    params, norm, _ = load_checkpoint(DESK_CHECKPOINT)
    digest = hashlib.sha256()
    for seed in range(20):
        inst = generate(GenConfig(10, 10, data_type="UC" if seed % 2 else "C", seed=seed))
        digest.update(forward(inst, params, norm).tobytes())
    assert digest.hexdigest() == DESK_FORWARD_SHA256


def test_desk_forward_on_large_values_is_finite():
    # at value_max 1e6 most of these decoder inputs used to overflow exp in
    # the sigmoid, a warning that the suite turns into a failure
    params, norm, _ = load_checkpoint(DESK_CHECKPOINT)
    for seed in range(20):
        inst = generate(GenConfig(10, 10, data_type="UC" if seed % 2 else "C",
                                  value_max=10 ** 6, seed=seed))
        values = forward(inst, params, norm)
        assert np.isfinite(values).all()
        assert ((values >= 0.0) & (values <= 1.0)).all()
