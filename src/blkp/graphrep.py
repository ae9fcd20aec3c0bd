"""Tripartite input graph: leader nodes, follower nodes, one capacity node.

Connectivity is implicit and never materialized: every leader node is
adjacent to every follower node, the capacity node is adjacent to all item
nodes, and there are no intra-group edges or edge features. Only the
normalized node features are stored. A batch of graphs is their disjoint
union: the rows of every graph stacked, with per-graph sizes, so one
network pass serves the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ndiff import Segments


@dataclass(frozen=True)
class NormalizationScheme:
    """How raw integer data maps to network inputs.

    Profits and weights are divided by value_scale; the capacity is
    divided by the total item weight, which makes the capacity feature a
    scale-free fill ratio.
    """

    value_scale: float = 1000.0
    version: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.value_scale) and self.value_scale > 0):
            raise ValueError(f"value_scale must be a finite number > 0, got {self.value_scale!r}")

    def to_dict(self):
        return {"value_scale": self.value_scale, "version": self.version}

    @classmethod
    def from_dict(cls, doc):
        """The scheme a checkpoint records; any version but this one is refused."""
        if doc["version"] != cls.version:
            raise ValueError(f"version is {doc['version']!r}, this scheme's is {cls.version!r}")
        return cls(value_scale=float(doc["value_scale"]))


DEFAULT_NORM = NormalizationScheme()


@dataclass
class TripartiteGraph:
    """The disjoint union of K >= 1 instance graphs.

    Leader rows and follower rows of every graph are stacked in graph
    order; `n1s`/`n2s` hold the per-graph sizes and `cap_feats` the
    capacity feature of each graph. `build_graph` makes a union of one.
    """

    leader_feats: np.ndarray    # (N1, 2): weight, leader profit
    follower_feats: np.ndarray  # (N2, 3): weight, leader profit, follower profit
    cap_feats: np.ndarray       # (K,)
    n1s: np.ndarray             # (K,) leader rows per graph
    n2s: np.ndarray             # (K,) follower rows per graph
    norm: NormalizationScheme

    @property
    def n1(self) -> int:
        return self.leader_feats.shape[0]

    @property
    def n2(self) -> int:
        return self.follower_feats.shape[0]

    @cached_property
    def leader_pairs(self):
        """(follower rows, Segments) of the leader-major pairs."""
        return own_major_pairs(self.n1s, self.n2s)

    @cached_property
    def follower_pairs(self):
        """(leader rows, Segments) of the follower-major pairs."""
        return own_major_pairs(self.n2s, self.n1s)


def own_major_pairs(n_own, n_other):
    """Row indices of every (own, other) node pair within each graph of a union.

    Pairs run over the graphs in order and are own-major inside each
    graph, so the messages of one own node are consecutive, one per other
    node of its graph in row order. Returns the other row of each pair and
    the Segments of the own nodes' messages: own row i owns segment i.
    """
    per_own = np.repeat(n_other, n_own)
    seg = Segments(per_own)
    other_first = np.repeat(np.cumsum(n_other) - n_other, n_own)
    other_rows = np.arange(seg.rows) - np.repeat(seg.starts - other_first, per_own)
    return other_rows, seg


def build_graph(inst, norm: NormalizationScheme = DEFAULT_NORM) -> TripartiteGraph:
    s = norm.value_scale
    leader = np.stack([inst.a1 / s, inst.d1 / s], axis=1)
    follower = np.stack([inst.a2 / s, inst.d2 / s, inst.c / s], axis=1)
    cap = inst.b / inst.total_weight
    return TripartiteGraph(leader_feats=leader, follower_feats=follower,
                           cap_feats=np.array([cap], dtype=np.float64),
                           n1s=np.array([inst.n1]), n2s=np.array([inst.n2]), norm=norm)


def graph_union(graphs) -> TripartiteGraph:
    """The disjoint union of graphs (themselves unions) in the given order."""
    graphs = list(graphs)
    norm = graphs[0].norm
    if any(g.norm != norm for g in graphs):
        raise ValueError("graphs of a union must share one normalization scheme")
    return TripartiteGraph(
        leader_feats=np.concatenate([g.leader_feats for g in graphs]),
        follower_feats=np.concatenate([g.follower_feats for g in graphs]),
        cap_feats=np.concatenate([g.cap_feats for g in graphs]),
        n1s=np.concatenate([g.n1s for g in graphs]),
        n2s=np.concatenate([g.n2s for g in graphs]), norm=norm)
