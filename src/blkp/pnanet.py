"""Graph network predicting the leader's solution.

Encode-process-decode over the tripartite graph. Every block is one
half-round: a message MLP over all (own, other) node pairs, multi-aggregator
pooling of each node's messages, and an update MLP. Encoding runs one
half-round per group on the raw features (the capacity node enters both
updates as an extra column and is dropped afterwards); then `iterations`
weight-shared rounds run both groups' half-rounds from the same input
generation; a per-leader-node sigmoid decoder follows. The network reads
its configuration from `ModelParams.cfg`.

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
from .ndiff import Mlp, Tensor, concat_cols, repeat_rows, tile_rows

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
            if a not in ndiff.GROUP_REDUCERS:
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


@dataclass
class NodeEmbeddings:
    leader: Tensor    # (n1, embed_dim)
    follower: Tensor  # (n2, embed_dim)


def _aggregate_groups(messages: Tensor, n_groups: int, cfg: PnaConfig) -> Tensor:
    base = concat_cols([ndiff.GROUP_REDUCERS[a](messages, n_groups)
                        for a in cfg.aggregators])
    blocks = []
    for s in cfg.scalers:
        blocks.append(base if s == 1.0 else ndiff.affine_const(base, s))
    return concat_cols(blocks)


def _const(arr) -> Tensor:
    return Tensor(np.asarray(arr, dtype=np.float64))


def _half_round(own: Tensor, other: Tensor, params: ModelParams, block: str,
                extra=()) -> Tensor:
    """Update every `own` node from its messages over all (own, other) pairs.

    `block` names the MLP pair `msg_<block>`/`upd_<block>`. Pair rows are
    own-major, so each own node's messages form one group.
    """
    n_own, n_other = own.data.shape[0], other.data.shape[0]
    pairs = concat_cols([repeat_rows(own, n_other), tile_rows(other, n_own)])
    agg = _aggregate_groups(params.mlps["msg_" + block](pairs), n_own, params.cfg)
    return params.mlps["upd_" + block](concat_cols([own, *extra, agg]))


def encode(graph: TripartiteGraph, params: ModelParams) -> NodeEmbeddings:
    """First embeddings; the capacity node is consumed here and dropped."""
    lf = _const(graph.leader_feats)
    ff = _const(graph.follower_feats)
    cap_l = _const(np.full((graph.n1, 1), graph.cap_feat))
    cap_f = _const(np.full((graph.n2, 1), graph.cap_feat))
    return NodeEmbeddings(leader=_half_round(lf, ff, params, "leader_enc", (cap_l,)),
                          follower=_half_round(ff, lf, params, "follower_enc", (cap_f,)))


def message_pass(emb: NodeEmbeddings, params: ModelParams) -> NodeEmbeddings:
    """Apply the shared message-passing block `cfg.iterations` times.

    Both groups update synchronously from the same input generation.
    """
    x, y = emb.leader, emb.follower
    for _ in range(params.cfg.iterations):
        x, y = (_half_round(x, y, params, "leader_mp"),
                _half_round(y, x, params, "follower_mp"))
    return NodeEmbeddings(leader=x, follower=y)


def decode(emb: NodeEmbeddings, params: ModelParams) -> Tensor:
    """Per-leader-node probability that the item enters the solution."""
    return params.mlps["decoder"](emb.leader)  # (n1, 1) in (0, 1)


def forward_tensor(graph: TripartiteGraph, params: ModelParams) -> Tensor:
    return decode(message_pass(encode(graph, params), params), params)


def forward(inst, params: ModelParams,
            norm: NormalizationScheme = DEFAULT_NORM) -> np.ndarray:
    """Full pipeline on a raw instance; returns the n1 final values."""
    graph = build_graph(inst, norm)
    return forward_tensor(graph, params).data.ravel().copy()


def save_checkpoint(params: ModelParams, norm: NormalizationScheme,
                    metadata: dict | None, sink) -> None:
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
    if hasattr(sink, "write"):
        json.dump(doc, sink)
    else:
        with open(sink, "w") as fh:
            json.dump(doc, fh)


def load_checkpoint(source):
    """Returns (params, norm, metadata)."""
    try:
        if hasattr(source, "read"):
            doc = json.load(source)
        else:
            with open(source) as fh:
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
