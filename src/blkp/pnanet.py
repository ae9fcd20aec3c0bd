"""Graph network predicting the leader's solution.

Encode-process-decode over the tripartite graph. Every block is one
half-round: a message MLP over all (own, other) node pairs, multi-aggregator
pooling of each node's messages, and an update MLP. Encoding runs one
half-round per group on the raw features (the capacity node enters both
updates as an extra column and is dropped afterwards); then `iterations`
weight-shared rounds run both groups' half-rounds from the same input
generation; a per-leader-node sigmoid decoder follows. Only the leader
embeddings reach the decoder, so the last round skips the followers'
half-round. `forward_tensor` is the whole network; it reads its
configuration from `ModelParams.cfg`.

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
messages and repeats the block once per intensity scaler, scaler-major:
for the defaults the layout is [mean, max, min, a*mean, a*max, a*min,
(1/a)*mean, (1/a)*max, (1/a)*min]. That order is part of the checkpoint
contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import ndiff
from .graphrep import DEFAULT_NORM, NormalizationScheme, TripartiteGraph, build_graph
from .ndiff import Mlp, Tensor, concat_cols, segment_pna

CHECKPOINT_VERSION = 1

DEFAULT_ALPHA = 0.7


class CheckpointError(ValueError):
    """Checkpoint file is malformed, mismatched, or from another version."""


@dataclass(frozen=True)
class PnaConfig:
    embed_dim: int = 16
    msg_dim: int = 16
    hidden: int = 16
    aggregators: tuple = ("mean", "max", "min")
    scalers: tuple = (1.0, DEFAULT_ALPHA, 1.0 / DEFAULT_ALPHA)
    iterations: int = 2  # message-passing rounds sharing one parameter set
    decoder_hidden_layers: int = 3

    def __post_init__(self):
        if not self.aggregators or not self.scalers:
            raise ValueError("aggregators and scalers must be non-empty")
        for a in self.aggregators:
            if a not in ndiff.AGGREGATORS:
                raise ValueError(f"unknown aggregator {a!r}")
        if any(s <= 0 for s in self.scalers):
            raise ValueError("scalers must be positive")
        if min(self.embed_dim, self.msg_dim, self.hidden) < 1:
            raise ValueError("embed_dim, msg_dim and hidden must be >= 1")
        if self.iterations < 0 or self.decoder_hidden_layers < 0:
            raise ValueError("iterations and decoder_hidden_layers must be >= 0")

    @property
    def aggregated_width(self) -> int:
        return len(self.aggregators) * len(self.scalers) * self.msg_dim

    def to_dict(self):
        return {
            "embed_dim": self.embed_dim,
            "msg_dim": self.msg_dim,
            "hidden": self.hidden,
            "aggregators": list(self.aggregators),
            "scalers": list(self.scalers),
            "iterations": self.iterations,
            "decoder_hidden_layers": self.decoder_hidden_layers,
        }

    @classmethod
    def from_dict(cls, doc):
        # older checkpoints also carry "leaky_slope"; every one was written
        # with the decoder's fixed slope 0.01, so the key is ignored
        return cls(
            embed_dim=int(doc["embed_dim"]),
            msg_dim=int(doc["msg_dim"]),
            hidden=int(doc["hidden"]),
            aggregators=tuple(doc["aggregators"]),
            scalers=tuple(float(s) for s in doc["scalers"]),
            iterations=int(doc["iterations"]),
            decoder_hidden_layers=int(doc["decoder_hidden_layers"]),
        )


MLP_NAMES = (
    "msg_leader_enc", "upd_leader_enc", "msg_follower_enc", "upd_follower_enc",
    "msg_leader_mp", "upd_leader_mp", "msg_follower_mp", "upd_follower_mp",
    "decoder",
)


class ModelParams:
    """All learnable MLPs, dimensioned from a PnaConfig."""

    def __init__(self, cfg: PnaConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        e, m, h, aw = cfg.embed_dim, cfg.msg_dim, cfg.hidden, cfg.aggregated_width
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
                [e] + [h] * cfg.decoder_hidden_layers + [1],
                ["leaky_relu"] * cfg.decoder_hidden_layers + ["sigmoid"], rng),
        }

    def parameters(self):
        for name in MLP_NAMES:
            yield from self.mlps[name].parameters()

    def snapshot(self):
        return {name: [(w.copy(), b.copy()) for w, b in self.mlps[name].state_arrays()]
                for name in MLP_NAMES}

    def restore(self, snap):
        for name in MLP_NAMES:
            self.mlps[name].load_state_arrays(snap[name])


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
    agg = segment_pna(msgs, seg, params.cfg.aggregators, params.cfg.scalers)
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
            name: [{"w": w.tolist(), "b": b.tolist()}
                   for w, b in params.mlps[name].state_arrays()]
            for name in MLP_NAMES
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
        for name in MLP_NAMES:
            state = [(layer["w"], layer["b"]) for layer in doc["weights"][name]]
            params.mlps[name].load_state_arrays(state)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint weights invalid: {exc}") from exc
    # JSON admits NaN and Infinity; a non-finite weight would silently turn
    # every prediction into NaN, and the search into an all-zeros leader
    for name in MLP_NAMES:
        if not all(np.isfinite(a).all() for layer in params.mlps[name].state_arrays()
                   for a in layer):
            raise CheckpointError(f"checkpoint weights of {name} are not finite")
    return params, norm, doc.get("metadata", {})
