import json
from pathlib import Path

import numpy as np
import pytest

from blkp import ndiff
from blkp.graphrep import build_graph, graph_union
from blkp.instance import BlkpInstance, GenConfig, generate
from blkp.pnanet import (AGGREGATORS, SCALERS, CheckpointError, ModelParams, PnaConfig,
                         forward, forward_tensor, load_checkpoint, save_checkpoint)


def permute_followers(inst, perm):
    return BlkpInstance(inst.n1, inst.n2, inst.a1, inst.d1, inst.a2[perm],
                        inst.d2[perm], inst.c[perm], inst.b)


def permute_leaders(inst, perm):
    return BlkpInstance(inst.n1, inst.n2, inst.a1[perm], inst.d1[perm],
                        inst.a2, inst.d2, inst.c, inst.b)


def aggregate(msgs, scalers=SCALERS):
    """One segment of messages pooled into one row, as the network pools them."""
    msgs = ndiff.Tensor(np.asarray(msgs, dtype=np.float64))
    seg = ndiff.Segments([len(msgs.data)])
    return ndiff.segment_pna(msgs, seg, AGGREGATORS, scalers).data[0]


def test_aggregate_default_layout():
    out = aggregate([[1.0, 2.0], [3.0, 4.0]])
    base = np.array([2.0, 3.0, 3.0, 4.0, 1.0, 2.0])  # mean, max, min
    expected = np.concatenate([base, 0.7 * base, base / 0.7])
    assert np.allclose(out, expected)


def test_aggregate_single_message_unit_scalers():
    out = aggregate([[5.0]], scalers=(1.0, 1.0, 1.0))
    assert np.allclose(out, np.full(9, 5.0))


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

    The network written out half-round by half-round from public ops:
    the encoder round, then `iterations` rounds of the shared blocks,
    each reading the previous generation of both groups.
    """
    def half_round(own, other, pairs, block, extra=()):
        msgs = params.mlps["msg_" + block].on_pairs(own, other, pairs)
        agg = ndiff.segment_pna(msgs, pairs[1], AGGREGATORS, SCALERS)
        return params.mlps["upd_" + block](ndiff.concat_cols([own, *extra, agg]))

    lf, ff = ndiff.Tensor(graph.leader_feats), ndiff.Tensor(graph.follower_feats)
    cap_l = ndiff.Tensor(np.repeat(graph.cap_feats, graph.n1s)[:, None])
    cap_f = ndiff.Tensor(np.repeat(graph.cap_feats, graph.n2s)[:, None])
    x = half_round(lf, ff, graph.leader_pairs, "leader_enc", (cap_l,))
    y = half_round(ff, lf, graph.follower_pairs, "follower_enc", (cap_f,))
    for _ in range(params.cfg.iterations):
        x, y = (half_round(x, y, graph.leader_pairs, "leader_mp"),
                half_round(y, x, graph.follower_pairs, "follower_mp"))
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
    expected = params.mlps["decoder"](leader).data
    for name in ("msg_leader_mp", "upd_leader_mp", "msg_follower_mp", "upd_follower_mp"):
        for w, b, _ in params.mlps[name].layers:
            w.data[:] = np.nan
            b.data[:] = np.nan
    assert np.array_equal(forward_tensor(graph, params).data, expected)


def test_message_pass_weight_sharing():
    # iterations changes neither weight shapes nor draw order: same
    # weights, run once per round; skipping the followers' last update
    # leaves the output bit-identical
    once = ModelParams(PnaConfig(iterations=1), seed=2)
    graph = build_graph(generate(GenConfig(3, 3, seed=6)))
    for iterations in (1, 2, 3):
        params = ModelParams(PnaConfig(iterations=iterations), seed=2)
        for got, want in zip(params.parameters(), once.parameters()):
            assert np.array_equal(got.data, want.data)
        leader = reference_leader_embeddings(graph, params)
        expected = params.mlps["decoder"](leader).data
        assert np.array_equal(forward_tensor(graph, params).data, expected)


def test_decode_zero_parameters_give_half():
    cfg = PnaConfig()
    params = ModelParams(cfg, seed=0)
    for w, b, _ in params.mlps["decoder"].layers:
        w.data[:] = 0.0
        b.data[:] = 0.0
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

    loss = ndiff.bce_mean(forward_tensor(graph, params), labels, 1)
    loss.backward()

    def loss_value():
        return float(ndiff.bce_mean(forward_tensor(graph, params), labels, 1).data)

    from _gradcheck import check_params
    checked = check_params(loss_value, params.parameters(), rng, per_param=2)
    assert checked >= 30


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


@pytest.mark.parametrize("key, value", [("version", 7), ("version", 0),
                                        ("value_scale", -5.0), ("value_scale", 0.0),
                                        ("value_scale", float("nan")),
                                        ("value_scale", float("inf"))])
def test_checkpoint_invalid_normalization_rejected(tmp_path, key, value):
    # another scheme version, or a scale that flips, zeroes or blows up every input
    from blkp.graphrep import DEFAULT_NORM
    path = tmp_path / "ckpt.json"
    save_checkpoint(ModelParams(PnaConfig(), seed=10), DEFAULT_NORM, {}, path)
    doc = json.loads(path.read_text())
    doc["normalization"][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=key):
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

# Non-parameter tape nodes of one default-config forward: 4 input
# constants, 6 per half-round (pair_linear, linear, segment_pna,
# concat_cols, then linear, linear) over the 5 half-rounds the decoder
# reads, and 4 in the decoder. Every layer applies its activation inside
# its node; un-fusing an activation, a layer or the pooling raises the
# count.
FORWARD_TAPE_NODES = 38


def tape_nodes(out, params):
    """The tape nodes `out` is computed from, parameters excluded."""
    parameters = {id(p) for p in params.parameters()}
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen - parameters)


def test_forward_tape_stays_fused():
    params = ModelParams(PnaConfig(), seed=14)
    out = forward_tensor(build_graph(generate(GenConfig(10, 10, seed=15))), params)
    assert tape_nodes(out, params) <= FORWARD_TAPE_NODES


def test_batch_loss_is_one_node_over_the_forward():
    from blkp.trainer import LabeledSample, _batch_loss
    rng = np.random.default_rng(16)
    instances = [generate(GenConfig(n, n + 1, seed=16 + n)) for n in (3, 5, 8)]
    graphs = {i: build_graph(inst) for i, inst in enumerate(instances)}
    samples = [LabeledSample(int(i), rng.integers(0, 2, instances[i].n1).astype(float))
               for i in (2, 0, 2, 1, 0)]
    params = ModelParams(PnaConfig(), seed=17)
    forward_nodes = tape_nodes(forward_tensor(graph_union(graphs[i] for i in (2, 0, 1)),
                                              params), params)
    assert tape_nodes(_batch_loss(samples, graphs, params), params) == forward_nodes + 1


def test_forward_creates_only_reachable_tensors(monkeypatch):
    # every tensor a forward creates lies on a path to its output: no
    # half-round, constant or layer is computed that nothing reads
    created = []
    init = ndiff.Tensor.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)

    params = ModelParams(PnaConfig(), seed=14)
    graph = build_graph(generate(GenConfig(10, 10, seed=15)))
    monkeypatch.setattr(ndiff.Tensor, "__init__", recording_init)
    out = forward_tensor(graph, params)
    monkeypatch.undo()
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    unreachable = [t for t in created if id(t) not in seen]
    assert not unreachable, f"{len(unreachable)} of {len(created)} tensors unreachable"
