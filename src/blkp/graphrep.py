"""Tripartite input graph: leader nodes, follower nodes, one capacity node.

Connectivity is implicit and never materialized: every leader node is
adjacent to every follower node, the capacity node is adjacent to all item
nodes, and there are no intra-group edges or edge features. A graph holds
what the network reads: its normalized node features, its per-graph sizes
and, through them, one pair index (`TripartiteGraph.pairs`). A batch of
graphs is their disjoint union: the rows of every graph stacked, with
per-graph sizes, so one network pass serves the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .instance import is_int, is_number
from .ndiff import Segments


@dataclass(frozen=True)
class NormalizationScheme:
    """How raw integer data maps to network inputs.

    Profits and weights are divided by value_scale; the capacity is
    divided by the total item weight, which makes the capacity feature a
    scale-free fill ratio.
    """

    value_scale: float = 1000.0
    version: ClassVar[int] = 1  # the one scheme this code reads

    def __post_init__(self):
        # a checkpoint's true or "1e3" is no scale
        if not (is_number(self.value_scale) and np.isfinite(self.value_scale)
                and self.value_scale > 0):
            raise ValueError(f"value_scale must be a finite number > 0, got {self.value_scale!r}")

    def to_dict(self):
        return {"value_scale": self.value_scale, "version": self.version}

    @classmethod
    def from_dict(cls, doc):
        """The scheme a checkpoint records; any version but this one is refused."""
        version = doc["version"]
        if not is_int(version) or version != cls.version:  # true and 1.0 equal 1
            raise ValueError(f"version is {version!r}, this scheme's is {cls.version!r}")
        return cls(value_scale=doc["value_scale"])


DEFAULT_NORM = NormalizationScheme()


@dataclass
class TripartiteGraph:
    """The disjoint union of K >= 1 instance graphs.

    Leader rows and follower rows of every graph are stacked in graph
    order; `n1s`/`n2s` hold the per-graph sizes and `cap_feats` the
    capacity feature of each graph. `pairs` is the union's pair index, the
    one the network reads. `build_graph` makes a union of one.
    """

    leader_feats: np.ndarray    # (N1, 2): weight, leader profit
    follower_feats: np.ndarray  # (N2, 3): weight, leader profit, follower profit
    cap_feats: np.ndarray       # (K,)
    n1s: np.ndarray             # (K,) leader rows per graph
    n2s: np.ndarray             # (K,) follower rows per graph

    @property
    def n1(self) -> int:
        return self.leader_feats.shape[0]

    @property
    def n2(self) -> int:
        return self.follower_feats.shape[0]

    @property
    def pairs(self):
        """`own_major_pairs` of the leader-major and of the follower-major pairs."""
        return _pair_index(tuple(self.n1s.tolist()), tuple(self.n2s.tolist()))


@lru_cache(maxsize=8)
def _pair_index(n1s, n2s):
    """Both directions' `own_major_pairs` of a union shape, shared by its unions.

    Solves repeat a shape, and training its validation union every epoch.
    """
    n1s, n2s = np.array(n1s), np.array(n2s)
    return own_major_pairs(n1s, n2s), own_major_pairs(n2s, n1s)


def own_major_pairs(n_own, n_other):
    """Row indices of every (own, other) node pair within each graph of a union.

    Pairs run over the graphs in order and are own-major inside each
    graph, so the messages of one own node are consecutive, one per other
    node of its graph in row order. Returns (other_rows, seg, by_other,
    other_starts):
    - the other row of each pair;
    - the Segments of the own nodes' messages: own row i owns segment i;
    - the pairs in stable other-major order, as the transposed index
      enumerates them, so other row j's pairs are consecutive;
    - where other row j's run starts in that order.
    The last two sum a gradient per other row with one `np.add.reduceat`.
    The arrays are read-only, as unions of one shape share them.
    """
    per_own = np.repeat(n_other, n_own)
    seg = Segments(per_own)
    other_first = np.repeat(np.cumsum(n_other) - n_other, n_own)
    other_rows = np.arange(seg.rows) - np.repeat(seg.starts - other_first, per_own)
    by_other = np.argsort(other_rows, kind="stable")
    per_other = np.repeat(n_own, n_other)
    other_starts = np.cumsum(per_other) - per_other
    for a in (other_rows, seg.counts, seg.starts, seg.block_rows, seg.block_rank, by_other,
              other_starts):
        a.flags.writeable = False
    return other_rows, seg, by_other, other_starts


def build_graph(inst, norm: NormalizationScheme = DEFAULT_NORM) -> TripartiteGraph:
    s = norm.value_scale
    leader = np.empty((inst.n1, 2))
    follower = np.empty((inst.n2, 3))
    for out, raw in zip((*leader.T, *follower.T), (inst.a1, inst.d1, inst.a2, inst.d2, inst.c)):
        np.divide(raw, s, out=out)
    cap = inst.b / inst.total_weight
    return TripartiteGraph(leader_feats=leader, follower_feats=follower,
                           cap_feats=np.array([cap], dtype=np.float64),
                           n1s=np.array([inst.n1]), n2s=np.array([inst.n2]))


def graph_union(graphs) -> TripartiteGraph:
    """The disjoint union of graphs (themselves unions) in the given order."""
    graphs = list(graphs)
    return TripartiteGraph(
        leader_feats=np.concatenate([g.leader_feats for g in graphs]),
        follower_feats=np.concatenate([g.follower_feats for g in graphs]),
        cap_feats=np.concatenate([g.cap_feats for g in graphs]),
        n1s=np.concatenate([g.n1s for g in graphs]),
        n2s=np.concatenate([g.n2s for g in graphs]))
