"""Graph network predicting the leader's solution.

Encode-process-decode over the tripartite graph. Every block is one
half-round: a message MLP over all (own, other) node pairs, multi-aggregator
pooling of each node's messages, and an update MLP. Encoding runs one
half-round per group on the raw features (the capacity node enters both
updates as an extra column and is dropped afterwards); then `iterations`
weight-shared rounds run both groups' half-rounds from the same input
generation; a per-leader-node sigmoid decoder follows. Only the leader
embeddings reach the decoder, so the last round skips the followers'
half-round. `forward_tensor` is the whole network.

The architecture is fixed: the widths, aggregators, scalers and decoder
depth are the module constants below, and the number of rounds,
`PnaConfig.iterations`, is the one setting. Every checkpoint records the
architecture, and one recorded with other values is refused.

The network runs on a disjoint union of graphs (`graphrep.graph_union`):
pairs form only within a graph, and each node's messages are pooled over
its own segment. One pass thus serves a whole batch of mixed sizes, and a
single instance is a union of one.

Each half-round is a handful of fused `ndiff` nodes. The first message
layer is affine over [own; other], so `ndiff.pair_linear` projects every
node once and expands the projections to the pairs, without forming the
pair rows. `ndiff.segment_pna` pools all messages of a node in one node,
and every other MLP layer is one `ndiff.linear`.

The multi-aggregator pooling concatenates mean/max/min of the incoming
messages and repeats the block once per intensity scaler (1, a, 1/a),
scaler-major: [mean, max, min, a*mean, a*max, a*min, (1/a)*mean,
(1/a)*max, (1/a)*min]. That order is part of the checkpoint contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graphrep import DEFAULT_NORM, NormalizationScheme, TripartiteGraph, build_graph
from .ndiff import Mlp, Tensor, concat_cols, segment_pna

CHECKPOINT_VERSION = 1

EMBED_DIM = 16
MSG_DIM = 16
HIDDEN = 16
AGGREGATORS = ("mean", "max", "min")
SCALERS = (1.0, 0.7, 1.0 / 0.7)
DECODER_HIDDEN_LAYERS = 3
AGGREGATED_WIDTH = len(AGGREGATORS) * len(SCALERS) * MSG_DIM


class CheckpointError(ValueError):
    """Checkpoint file is malformed, mismatched, or from another version."""


@dataclass(frozen=True)
class PnaConfig:
    iterations: int = 2  # message-passing rounds sharing one parameter set

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")

    def to_dict(self):
        return {
            "embed_dim": EMBED_DIM,
            "msg_dim": MSG_DIM,
            "hidden": HIDDEN,
            "aggregators": list(AGGREGATORS),
            "scalers": list(SCALERS),
            "iterations": self.iterations,
            "decoder_hidden_layers": DECODER_HIDDEN_LAYERS,
        }

    @classmethod
    def from_dict(cls, doc):
        """The config a checkpoint records; any other architecture is refused.

        Older checkpoints also carry "leaky_slope"; every one was written
        with the decoder's fixed slope 0.01, so the key is ignored.
        """
        cfg = cls(iterations=int(doc["iterations"]))
        for key, value in cfg.to_dict().items():
            if key != "iterations" and doc[key] != value:
                raise ValueError(f"{key} is {doc[key]!r}, this network's is {value!r}")
        return cfg


class ModelParams:
    """All learnable MLPs of the network, keyed by block name in checkpoint order."""

    def __init__(self, cfg: PnaConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        e, m, h, aw = EMBED_DIM, MSG_DIM, HIDDEN, AGGREGATED_WIDTH
        self.mlps = {
            # encoder messages see both endpoints' raw features (2 + 3 = 5)
            "msg_leader_enc": Mlp([5, h, m], ["relu", "identity"], rng),
            "upd_leader_enc": Mlp([3 + aw, h, e], ["relu", "identity"], rng),
            "msg_follower_enc": Mlp([5, h, m], ["relu", "identity"], rng),
            "upd_follower_enc": Mlp([4 + aw, h, e], ["relu", "identity"], rng),
            "msg_leader_mp": Mlp([2 * e, h, m], ["relu", "identity"], rng),
            "upd_leader_mp": Mlp([e + aw, h, e], ["relu", "identity"], rng),
            "msg_follower_mp": Mlp([2 * e, h, m], ["relu", "identity"], rng),
            "upd_follower_mp": Mlp([e + aw, h, e], ["relu", "identity"], rng),
            "decoder": Mlp(
                [e] + [h] * DECODER_HIDDEN_LAYERS + [1],
                ["leaky_relu"] * DECODER_HIDDEN_LAYERS + ["sigmoid"], rng),
        }

    def parameters(self):
        for mlp in self.mlps.values():
            yield from mlp.parameters()

    def snapshot(self):
        return {name: [(w.copy(), b.copy()) for w, b in mlp.state_arrays()]
                for name, mlp in self.mlps.items()}

    def restore(self, snap):
        for name, mlp in self.mlps.items():
            mlp.load_state_arrays(snap[name])


def _const(arr) -> Tensor:
    return Tensor(np.asarray(arr, dtype=np.float64))


def _half_round(own: Tensor, other: Tensor, pairs, params: ModelParams, block: str,
                extra=()) -> Tensor:
    """Update every `own` node from its messages over its graph's (own, other) pairs.

    `block` names the MLP pair `msg_<block>`/`upd_<block>`. `pairs` is
    `graphrep.own_major_pairs` of the union: each own node's messages
    form one segment.
    """
    _, seg = pairs
    msgs = params.mlps["msg_" + block].on_pairs(own, other, pairs)
    agg = segment_pna(msgs, seg, AGGREGATORS, SCALERS)
    return params.mlps["upd_" + block](concat_cols([own, *extra, agg]))


def _cap_column(graph: TripartiteGraph, counts) -> Tensor:
    """Each graph's capacity feature repeated over its `counts` nodes, as a column."""
    return _const(np.repeat(graph.cap_feats, counts)[:, None])


def forward_tensor(graph: TripartiteGraph, params: ModelParams) -> Tensor:
    """Predictions of every leader row of a graph union, in row order.

    The encoder round updates both groups from the raw features, then
    `cfg.iterations` weight-shared rounds update both from the same input
    generation. Only the leader embeddings reach the decoder, so the last
    round skips the followers' update.
    """
    rounds = params.cfg.iterations
    lf, ff = _const(graph.leader_feats), _const(graph.follower_feats)
    x = _half_round(lf, ff, graph.leader_pairs, params, "leader_enc",
                    (_cap_column(graph, graph.n1s),))
    if rounds:
        y = _half_round(ff, lf, graph.follower_pairs, params, "follower_enc",
                        (_cap_column(graph, graph.n2s),))
    for r in range(rounds):
        x_next = _half_round(x, y, graph.leader_pairs, params, "leader_mp")
        if r < rounds - 1:
            y = _half_round(y, x, graph.follower_pairs, params, "follower_mp")
        x = x_next
    return params.mlps["decoder"](x)  # (N1, 1) in (0, 1)


def forward(inst, params: ModelParams,
            norm: NormalizationScheme = DEFAULT_NORM) -> np.ndarray:
    """Full pipeline on a raw instance, a union of one; returns the n1 final values."""
    graph = build_graph(inst, norm)
    return forward_tensor(graph, params).data.ravel().copy()


def save_checkpoint(params: ModelParams, norm: NormalizationScheme,
                    metadata: dict | None, path) -> None:
    """Write weights + config as JSON; float64 values round-trip exactly."""
    doc = {
        "format": "blkp-checkpoint",
        "format_version": CHECKPOINT_VERSION,
        "config": params.cfg.to_dict(),
        "normalization": norm.to_dict(),
        "metadata": metadata or {},
        "weights": {
            name: [{"w": w.tolist(), "b": b.tolist()} for w, b in mlp.state_arrays()]
            for name, mlp in params.mlps.items()
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_checkpoint(path):
    """Returns (params, norm, metadata)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt checkpoint: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "blkp-checkpoint":
        raise CheckpointError("not a checkpoint document")
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"version mismatch: expected {CHECKPOINT_VERSION}, got {doc.get('format_version')}")
    try:
        cfg = PnaConfig.from_dict(doc["config"])
        norm = NormalizationScheme.from_dict(doc["normalization"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint: {exc}") from exc
    params = ModelParams(cfg, seed=0)
    try:
        for name, mlp in params.mlps.items():
            mlp.load_state_arrays([(layer["w"], layer["b"]) for layer in doc["weights"][name]])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint weights invalid: {exc}") from exc
    # JSON admits NaN and Infinity; a non-finite weight would silently turn
    # every prediction into NaN, and the search into an all-zeros leader
    for name, mlp in params.mlps.items():
        if not all(np.isfinite(a).all() for layer in mlp.state_arrays() for a in layer):
            raise CheckpointError(f"checkpoint weights of {name} are not finite")
    return params, norm, doc.get("metadata", {})
