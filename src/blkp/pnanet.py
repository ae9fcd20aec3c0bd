"""Graph network predicting the leader's solution.

Encode-process-decode over the tripartite graph. Every block is one
half-round: a message MLP over all (own, other) node pairs, multi-aggregator
pooling of each node's messages, and an update MLP. Encoding runs one
half-round per group on the raw features (the capacity node enters both
updates as an extra column and is dropped afterwards); then `iterations`
weight-shared rounds run both groups' half-rounds from the same input
generation; a per-leader-node sigmoid decoder follows. Only the leader
embeddings reach the decoder, so the last round skips the followers'
half-round. `_rounds` runs the rounds, and two forwards share it:
`forward_tensor` for training, which keeps every half-round's record for
its reverse pass, and `predict` for inference, which keeps none
(`forward` on a raw instance, and the validation loss).

The architecture is fixed: the widths and decoder depth are the module
constants below, the aggregators and scalers are `ndiff.pool`'s
(`ndiff.AGGREGATORS`, `ndiff.SCALERS`), and the number of rounds,
`PnaConfig.iterations`, is the one setting. Every checkpoint records the
architecture, and one recorded with other values is refused.

The network runs on a disjoint union of graphs (`graphrep.graph_union`):
pairs form only within a graph, and each node's messages are pooled over
its own segment. One pass thus serves a whole batch of mixed sizes, and a
single instance is a union of one.

Everything runs on plain arrays. A half-round (`_half_round`) is the
message MLP over the pairs (`ndiff.Mlp.run` with the union's pair index,
which never forms the pair rows), the pooling (`ndiff.pool`), written
straight into the update's input [own; extra; pooled], and the update
MLP; `_half_round_grad` chains their gradient rules in reverse. It is the
one message-and-pool code path. Without a record, each MLP layer runs in
place, and a union of more than `CHUNK_PAIRS` pairs runs its messages
and their pooling over chunks of whole own segments (`_chunks`), so
inference holds a few chunks' pair arrays however large the graph; each
value is computed by the same operations as in one chunk, so every bit
is the training forward's. `forward_tensor` returns one
`ndiff.Tensor` whose reverse pass walks the decoder, then the rounds
r = R..0 (R = `iterations`, round 0 the encoder), round r's half-rounds
in forward order when R - r is odd and reversed otherwise. Each round
thus starts with the group the one after it ended with: the depth-first
order of a per-layer tape, so a group's gradients sum in that tape's
order, bit for bit. The input features get no gradient. The weights and
their gradients are two flat buffers of `ModelParams`, `flat` and
`grad`; the reverse pass adds into `grad`.

The pooling (`ndiff.pool`) concatenates mean/max/min of the incoming
messages and repeats the block once per intensity scaler (1, a, 1/a),
scaler-major: [mean, max, min, a*mean, a*max, a*min, (1/a)*mean,
(1/a)*max, (1/a)*min]. That order is part of the checkpoint contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graphrep import DEFAULT_NORM, NormalizationScheme, TripartiteGraph, build_graph
from .instance import check_int, is_int
from .ndiff import AGGREGATORS, SCALERS, Mlp, Segments, Tensor, pool, pool_grad

CHECKPOINT_VERSION = 1

EMBED_DIM = 16
MSG_DIM = 16
HIDDEN = 16
DECODER_HIDDEN_LAYERS = 3
AGGREGATED_WIDTH = len(AGGREGATORS) * len(SCALERS) * MSG_DIM
# The most pairs whose messages the inference forward forms at once, above
# which it runs in chunks of whole segments (`_chunks`): a chunk's pair
# arrays hold about 0.5 MB each, a graph of up to 64 x 64 nodes is one chunk
CHUNK_PAIRS = 4096


class CheckpointError(ValueError):
    """Checkpoint file is malformed, mismatched, or from another version."""


@dataclass(frozen=True)
class PnaConfig:
    iterations: int = 2  # message-passing rounds sharing one parameter set

    def __post_init__(self):
        # a checkpoint's 2.9, true or "2" is no round count
        check_int("iterations", self.iterations, 0)

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
        cfg = cls(iterations=doc["iterations"])
        for key, value in cfg.to_dict().items():
            if key != "iterations" and doc[key] != value:
                raise ValueError(f"{key} is {doc[key]!r}, this network's is {value!r}")
        return cfg


class ModelParams:
    """All learnable MLPs of the network, keyed by block name in checkpoint order.

    Their weights are views into one flat buffer, `flat`, and their
    gradients into another, `grad`, both in checkpoint order: each MLP
    layer by layer, weight then bias. `Mlp.grad` adds into `grad`, and
    `ndiff.Adam` steps `flat` in place.
    """

    def __init__(self, cfg: PnaConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        e, m, h, aw = EMBED_DIM, MSG_DIM, HIDDEN, AGGREGATED_WIDTH
        specs = {
            # encoder messages see both endpoints' raw features (2 + 3 = 5)
            "msg_leader_enc": ([5, h, m], ["relu", "identity"]),
            "upd_leader_enc": ([3 + aw, h, e], ["relu", "identity"]),
            "msg_follower_enc": ([5, h, m], ["relu", "identity"]),
            "upd_follower_enc": ([4 + aw, h, e], ["relu", "identity"]),
            "msg_leader_mp": ([2 * e, h, m], ["relu", "identity"]),
            "upd_leader_mp": ([e + aw, h, e], ["relu", "identity"]),
            "msg_follower_mp": ([2 * e, h, m], ["relu", "identity"]),
            "upd_follower_mp": ([e + aw, h, e], ["relu", "identity"]),
            "decoder": ([e] + [h] * DECODER_HIDDEN_LAYERS + [1],
                        ["leaky_relu"] * DECODER_HIDDEN_LAYERS + ["sigmoid"]),
        }
        size = sum(Mlp.size(widths) for widths, _ in specs.values())
        self.flat, self.grad = np.zeros(size), np.zeros(size)
        self.mlps, lo = {}, 0
        for name, (widths, activations) in specs.items():
            hi = lo + Mlp.size(widths)
            self.mlps[name] = Mlp(widths, activations, rng, self.flat[lo:hi], self.grad[lo:hi])
            lo = hi


def _chunks(seg):
    """(first own row, past its last, their Segments) of each chunk of `seg`'s whole segments.

    A union of at most `CHUNK_PAIRS` pairs is one chunk, `seg` itself.
    Above it each chunk takes as many segments as fit `CHUNK_PAIRS` rows
    at the longest segment's length, and at least two: numpy multiplies a
    one-row matrix by another routine than a taller one, with other bits.
    """
    n_own = len(seg.counts)
    if seg.rows <= CHUNK_PAIRS:
        return [(0, n_own, seg)]
    per = max(CHUNK_PAIRS // int(seg.counts.max()), 2)
    starts = list(range(0, n_own - 1, per)) or [0]  # a last single segment joins the chunk before
    return [(lo, hi, Segments(seg.counts[lo:hi]))
            for lo, hi in zip(starts, starts[1:] + [n_own])]


def _half_round(own, other, pairs, params: ModelParams, block: str, extra=None, keep=True):
    """Every `own` node's new row from its messages over its graph's (own, other) pairs.

    Returns the rows and, with `keep`, the record of activations
    `_half_round_grad` reads. `block` names the MLP pair
    `msg_<block>`/`upd_<block>`. `pairs` is `graphrep.own_major_pairs` of
    the union: each own node's messages form one segment. The update reads
    [own; extra; pooled], one array into which the pooling writes its rows.
    Without `keep` nothing is recorded, each MLP layer runs in place, and
    the messages and their pooling run over `_chunks`: only the pooled
    rows outlive a chunk.
    """
    msg, upd = params.mlps["msg_" + block], params.mlps["upd_" + block]
    other_rows, seg = pairs[:2]
    x = np.empty((len(own), upd.layers[0][0].shape[0]))
    x[:, :own.shape[1]] = own
    if extra is not None:
        x[:, own.shape[1]:-AGGREGATED_WIDTH] = extra
    pooled = x[:, -AGGREGATED_WIDTH:]
    for lo, hi, chunk in _chunks(seg) if not keep else [(0, len(own), seg)]:
        first = seg.starts[lo]
        msgs, msg_acts = msg.run((own[lo:hi], other),
                                 (other_rows[first:first + chunk.rows], chunk), keep)
        _, saved = pool(msgs, chunk, pooled[lo:hi])
    out, upd_acts = upd.run(x, keep=keep)
    return out, (msgs, msg_acts, saved, upd_acts) if keep else None


def _half_round_grad(g, record, pairs, params: ModelParams, block: str, g_own=None):
    """Add the block's parameter gradients from g at `_half_round`'s rows.

    Returns the gradients at own and at other. Own's is added onto
    `g_own`, a gradient already gathered there, own's column of the
    update before its messages' share, as the per-layer tape adds them.
    """
    msg, upd = params.mlps["msg_" + block], params.mlps["upd_" + block]
    msgs, msg_acts, saved, upd_acts = record
    g_in = upd.grad(g, upd_acts)
    g_msgs = pool_grad(g_in[:, -AGGREGATED_WIDTH:], msgs, saved, pairs[1])
    g_from_msgs, g_other = msg.grad(g_msgs, msg_acts, pairs)
    g_column = g_in[:, :g_from_msgs.shape[1]]
    if g_own is not None:
        g_column = g_own + g_column
    return g_column + g_from_msgs, g_other


def _rounds(graph: TripartiteGraph, pairs, params: ModelParams, keep):
    """The leader rows the decoder reads, and per round each half-round's (own group, block, record).

    The encoder round updates both groups from the raw features, each
    with its graph's capacity feature as an extra column, then
    `cfg.iterations` weight-shared rounds update both from the same input
    generation; the last skips the followers' update, which nothing reads.
    Leaders are group 0; `keep` is `_half_round`'s.
    """
    rounds = params.cfg.iterations
    rows = [graph.leader_feats, graph.follower_feats]
    caps = [np.repeat(graph.cap_feats, counts)[:, None] for counts in (graph.n1s, graph.n2s)]
    steps = []
    for r in range(rounds + 1):
        step, new_rows = [], list(rows)
        for own in (0, 1) if r < rounds else (0,):
            block = ("leader_", "follower_")[own] + ("mp" if r else "enc")
            new_rows[own], record = _half_round(rows[own], rows[1 - own], pairs[own], params,
                                                block, None if r else caps[own], keep)
            step.append((own, block, record))
        steps.append(step)
        rows = new_rows
    return rows[0], steps


def forward_tensor(graph: TripartiteGraph, params: ModelParams) -> Tensor:
    """Predictions of every leader row of a graph union, in row order, as a `Tensor`.

    The training forward: it keeps every half-round's record for its
    reverse pass until the `Tensor` is dropped.
    """
    rounds = params.cfg.iterations
    pairs = (graph.leader_pairs, graph.follower_pairs)
    leaders, steps = _rounds(graph, pairs, params, keep=True)
    decoder = params.mlps["decoder"]
    out, decoder_acts = decoder.run(leaders)  # (N1, 1) in (0, 1)

    def backward(g):
        grads = [decoder.grad(g, decoder_acts), None]
        for r in range(rounds, -1, -1):
            step = steps[r] if (rounds - r) % 2 else steps[r][::-1]
            new_grads = [None, None]
            for own, block, record in step:
                new_grads[own], g_other = _half_round_grad(grads[own], record, pairs[own],
                                                           params, block, new_grads[own])
                other = new_grads[1 - own]
                new_grads[1 - own] = g_other if other is None else other + g_other
            grads = new_grads

    return Tensor(out, backward)


def predict(graph: TripartiteGraph, params: ModelParams) -> np.ndarray:
    """`forward_tensor(graph, params).data`, bit for bit, keeping no record: (N1, 1)."""
    pairs = (graph.leader_pairs, graph.follower_pairs)
    leaders, _ = _rounds(graph, pairs, params, keep=False)
    return params.mlps["decoder"].run(leaders, keep=False)[0]


def forward(inst, params: ModelParams,
            norm: NormalizationScheme = DEFAULT_NORM) -> np.ndarray:
    """The n1 predictions of a raw instance, a union of one, by `predict`."""
    return predict(build_graph(inst, norm), params).ravel()


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
    """Returns (params, norm, metadata); every CheckpointError names the path."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise CheckpointError(f"{path}: corrupt checkpoint: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "blkp-checkpoint":
        raise CheckpointError(f"{path}: not a checkpoint document")
    version = doc.get("format_version")
    if not is_int(version) or version != CHECKPOINT_VERSION:  # true and 1.0 equal 1
        raise CheckpointError(f"{path}: format_version mismatch: expected {CHECKPOINT_VERSION}, "
                              f"got {version!r}")
    try:
        cfg = PnaConfig.from_dict(doc["config"])
        norm = NormalizationScheme.from_dict(doc["normalization"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint: {exc}") from exc
    params = ModelParams(cfg, seed=0)
    try:
        for name, mlp in params.mlps.items():
            mlp.load_state_arrays([(layer["w"], layer["b"]) for layer in doc["weights"][name]])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: checkpoint weights invalid: {exc}") from exc
    # JSON admits NaN and Infinity; a non-finite weight would silently turn
    # every prediction into NaN, and the search into an all-zeros leader
    for name, mlp in params.mlps.items():
        if not all(np.isfinite(a).all() for layer in mlp.state_arrays() for a in layer):
            raise CheckpointError(f"{path}: checkpoint weights of {name} are not finite")
    return params, norm, doc.get("metadata", {})
