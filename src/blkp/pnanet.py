"""Graph network predicting the leader's solution.

Encode-process-decode over the tripartite graph: two group-specific
encoder blocks (message MLP + update MLP with multi-aggregator pooling),
the capacity node dropped after encoding, T weight-shared message-passing
iterations with two more blocks, and a per-leader-node sigmoid decoder.

The multi-aggregator pooling concatenates mean/max/min of the incoming
messages and repeats the block once per intensity scaler, scaler-major:
for the defaults the layout is [mean, max, min, a*mean, a*max, a*min,
(1/a)*mean, (1/a)*max, (1/a)*min]. That order is part of the checkpoint
contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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
    leaky_slope: float = 0.01

    def __post_init__(self):
        if not self.aggregators or not self.scalers:
            raise ValueError("aggregators and scalers must be non-empty")
        for a in self.aggregators:
            if a not in ndiff.GROUP_REDUCERS:
                raise ValueError(f"unknown aggregator {a!r}")
        if any(s <= 0 for s in self.scalers):
            raise ValueError("scalers must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")

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
            "leaky_slope": self.leaky_slope,
        }

    @classmethod
    def from_dict(cls, doc):
        return cls(
            embed_dim=int(doc["embed_dim"]),
            msg_dim=int(doc["msg_dim"]),
            hidden=int(doc["hidden"]),
            aggregators=tuple(doc["aggregators"]),
            scalers=tuple(float(s) for s in doc["scalers"]),
            iterations=int(doc["iterations"]),
            decoder_hidden_layers=int(doc["decoder_hidden_layers"]),
            leaky_slope=float(doc["leaky_slope"]),
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


def encode(graph: TripartiteGraph, params: ModelParams,
           cfg: PnaConfig | None = None) -> NodeEmbeddings:
    """First embeddings; the capacity node is consumed here and dropped."""
    cfg = cfg or params.cfg
    n1, n2 = graph.n1, graph.n2
    lf = _const(graph.leader_feats)
    ff = _const(graph.follower_feats)
    cap_l = _const(np.full((n1, 1), graph.cap_feat))
    cap_f = _const(np.full((n2, 1), graph.cap_feat))

    # leader side: one message per (leader, follower) pair, leader-major rows
    pair_l = concat_cols([repeat_rows(lf, n2), tile_rows(ff, n1)])
    msgs_l = params.mlps["msg_leader_enc"](pair_l)
    agg_l = _aggregate_groups(msgs_l, n1, cfg)
    x1 = params.mlps["upd_leader_enc"](concat_cols([lf, cap_l, agg_l]))

    pair_f = concat_cols([repeat_rows(ff, n1), tile_rows(lf, n2)])
    msgs_f = params.mlps["msg_follower_enc"](pair_f)
    agg_f = _aggregate_groups(msgs_f, n2, cfg)
    y1 = params.mlps["upd_follower_enc"](concat_cols([ff, cap_f, agg_f]))

    return NodeEmbeddings(leader=x1, follower=y1)


def message_pass(emb: NodeEmbeddings, params: ModelParams,
                 cfg: PnaConfig | None = None, rounds: int | None = None) -> NodeEmbeddings:
    """Apply the shared message-passing block `rounds` times.

    Both groups update synchronously from the same input generation.
    """
    cfg = cfg or params.cfg
    rounds = cfg.iterations if rounds is None else rounds
    x, y = emb.leader, emb.follower
    n1 = x.data.shape[0]
    n2 = y.data.shape[0]
    for _ in range(rounds):
        pair_l = concat_cols([repeat_rows(x, n2), tile_rows(y, n1)])
        agg_l = _aggregate_groups(params.mlps["msg_leader_mp"](pair_l), n1, cfg)
        pair_f = concat_cols([repeat_rows(y, n1), tile_rows(x, n2)])
        agg_f = _aggregate_groups(params.mlps["msg_follower_mp"](pair_f), n2, cfg)
        x_next = params.mlps["upd_leader_mp"](concat_cols([x, agg_l]))
        y_next = params.mlps["upd_follower_mp"](concat_cols([y, agg_f]))
        x, y = x_next, y_next
    return NodeEmbeddings(leader=x, follower=y)


def decode(emb: NodeEmbeddings, params: ModelParams) -> Tensor:
    """Per-leader-node probability that the item enters the solution."""
    return params.mlps["decoder"](emb.leader)  # (n1, 1) in (0, 1)


def forward_tensor(graph: TripartiteGraph, params: ModelParams,
                   cfg: PnaConfig | None = None) -> Tensor:
    cfg = cfg or params.cfg
    emb = encode(graph, params, cfg)
    emb = message_pass(emb, params, cfg)
    return decode(emb, params)


def forward(inst, params: ModelParams, cfg: PnaConfig | None = None,
            norm: NormalizationScheme = DEFAULT_NORM) -> np.ndarray:
    """Full pipeline on a raw instance; returns the n1 final values."""
    graph = build_graph(inst, norm)
    return forward_tensor(graph, params, cfg).data.ravel().copy()


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
