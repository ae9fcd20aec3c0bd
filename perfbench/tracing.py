"""Span and counter recording around the library's public functions.

The library has no instrumentation of its own yet, so the benchmark wraps
the functions at each layer boundary. Modules that import a name bind it
at import time, so each such binding is patched where it is looked up
(for example `blkp.search.follower_response`, not only
`blkp.knapsack.follower_response`). Spans nest through a stack: the
parent of a span is the innermost span open when it starts, and a span's
self time is its duration minus the durations of its direct children.

Spans are kept in flat lists while the run goes and written once, as a
compressed numpy archive, when it ends.
"""

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from blkp import exact, knapsack, ndiff, pnanet, search, trainer

SETUP, TIMED = 0, 1

# Per-layer metrics: name -> (unit, which direction is better). Calls,
# counts and self times are per workload operation (one labelled
# instance, one train() call, one solved instance) over the timed phase.
PER_LAYER = {
    "knapsack.follower_response.calls": ("count", "lower"),
    "knapsack.follower_response.self_s": ("s", "lower"),
    "knapsack.knapsack_max.self_s": ("s", "lower"),
    "knapsack.knapsack_max.cells": ("count", "lower"),
    "knapsack.table_mb_max": ("MiB", "lower"),
    "knapsack.share": ("ratio", "lower"),
    "exact.solve_exact.calls": ("count", "lower"),
    "exact.solve_exact.self_s": ("s", "lower"),
    "exact.setup_s": ("s", "lower"),
    "exact.nodes": ("count", "lower"),
    "exact.leaves": ("count", "lower"),
    "exact.proven_frac": ("ratio", "higher"),
    "exact.pool_mean": ("count", "higher"),
    "exact.share": ("ratio", "lower"),
    "graphrep.build_graph.calls": ("count", "lower"),
    "graphrep.build_graph.self_s": ("s", "lower"),
    "graphrep.share": ("ratio", "lower"),
    "pnanet.forward.calls": ("count", "lower"),
    "pnanet.forward.self_s": ("s", "lower"),
    "pnanet.forward_tensor.calls": ("count", "lower"),
    "pnanet.forward_tensor.self_s": ("s", "lower"),
    "pnanet.forward_tensor.calls_per_batch": ("count", "lower"),
    "pnanet.pairs": ("count", "lower"),
    "pnanet.load_checkpoint.self_s": ("s", "lower"),
    "pnanet.share": ("ratio", "lower"),
    "ndiff.tensors": ("count", "lower"),
    "ndiff.backward.self_s": ("s", "lower"),
    "ndiff.adam_step.calls": ("count", "lower"),
    "ndiff.adam_step.self_s": ("s", "lower"),
    "ndiff.share": ("ratio", "lower"),
    "trainer.epoch_s": ("s", "lower"),
    "trainer.evaluate_loss.self_s": ("s", "lower"),
    "trainer.train.self_s": ("s", "lower"),
    "trainer.val_loss_ratio": ("ratio", "lower"),
    "trainer.share": ("ratio", "lower"),
    "search.solution_search.calls": ("count", "lower"),
    "search.solution_search.self_s": ("s", "lower"),
    "search.distinct_ratio": ("ratio", "higher"),
    "search.infeasible_ratio": ("ratio", "lower"),
    "search.free_frac": ("ratio", "higher"),
    "search.share": ("ratio", "lower"),
    "quality.gap_pct_mean": ("%", "lower"),
    "trace.overhead_ms_per_op": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# Module names used for the `<module>.share` metrics, in report order.
MODULES = ("knapsack", "exact", "graphrep", "pnanet", "ndiff", "trainer", "search")


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name, self.start, self.end, self.parent, self.phase_of = [], [], [], [], []
        self.counts = {SETUP: defaultdict(float), TIMED: defaultdict(float)}
        self.phase = SETUP
        self._stack = [-1]

    def wrap(self, name, fn, observe=None):
        """Return fn recording a span named `name` on every call.

        `observe(tracer, args, result)` runs after the span closes and may
        add counts; its cost lands in the parent's self time.
        """
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)

        def traced(*args, **kwargs):
            i = len(self.start)
            self.span_name.append(nid)
            self.parent.append(self._stack[-1])
            self.phase_of.append(self.phase)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(self, args, out)
            return out
        return traced

    def tally(self):
        """Counters of the current phase."""
        return self.counts[self.phase]

    def arrays(self):
        """Per-span numpy arrays: name id, phase, parent, duration, self time."""
        sid = np.asarray(self.span_name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end, dtype=np.float64) - np.asarray(self.start, dtype=np.float64)
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return sid, np.asarray(self.phase_of, dtype=np.int64), parent, dur, dur - child

    def write(self, path):
        sid, phase, parent, dur, self_s = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=sid, phase=phase,
                            parent=parent, start=np.asarray(self.start), duration=dur,
                            self_s=self_s)


# --- what each wrapped call adds to the counters ------------------------------

def _knapsack_cells(tr, args, _out):
    n, cap = len(args[0]), int(args[2])
    t = tr.tally()
    t["knapsack.cells"] += n * (cap + 1)
    # the DP keeps an n x (cap+1) bool table plus one int64 row
    t["knapsack.table_mb_max"] = max(t["knapsack.table_mb_max"], (n + 8) * (cap + 1) / 2 ** 20)


def _exact_result(tr, _args, res):
    t = tr.tally()
    t["exact.nodes"] += res.node_count
    t["exact.proven"] += bool(res.proven_optimal)
    t["exact.pool"] += len(res.pool)


def _pairs(tr, args, _out):
    graph = args[0]
    tr.tally()["pnanet.pairs"] += graph.n1 * graph.n2


def _search_result(tr, args, res):
    inst, values, cfg = args
    values = np.asarray(values, dtype=np.float64).ravel()
    t = tr.tally()
    t["search.free"] += int(((values > cfg.theta) & (values < 1.0 - cfg.theta)).sum())
    t["search.leader_items"] += inst.n1
    t["search.samples"] += res.samples_evaluated
    t["search.infeasible"] += res.samples_infeasible
    t["search.distinct"] += res.distinct_x_count


def _train_result(tr, _args, res):
    tr.tally()["trainer.epochs"] += len(res.history)


def _count_tensor(tracer, init):
    def counted(self, *args, **kwargs):
        tracer.tally()["ndiff.tensors"] += 1
        init(self, *args, **kwargs)
    return counted


def _patch_table():
    """(owner, attribute, span name or None for count-only, observer)."""
    return [
        (knapsack, "knapsack_max", "knapsack.knapsack_max", _knapsack_cells),
        (exact, "follower_response", "knapsack.follower_response", None),
        (search, "follower_response", "knapsack.follower_response", None),
        (exact, "solve_exact", "exact.solve_exact", _exact_result),
        (pnanet, "build_graph", "graphrep.build_graph", None),
        (trainer, "build_graph", "graphrep.build_graph", None),
        (search, "forward", "pnanet.forward", None),
        (pnanet, "forward_tensor", "pnanet.forward_tensor", _pairs),
        (trainer, "forward_tensor", "pnanet.forward_tensor", _pairs),
        (pnanet, "load_checkpoint", "pnanet.load_checkpoint", None),
        (ndiff.Tensor, "backward", "ndiff.backward", None),
        (ndiff.Adam, "step", "ndiff.adam_step", None),
        (ndiff.Tensor, "__init__", None, None),
        (trainer, "train", "trainer.train", _train_result),
        (trainer, "evaluate_loss", "trainer.evaluate_loss", None),
        (search, "solution_search", "search.solution_search", _search_result),
    ]


@contextmanager
def installed(tracer, phase):
    """Patch every layer boundary to record into `tracer`, then restore."""
    saved = []
    tracer.phase = phase
    try:
        for owner, attr, name, observe in _patch_table():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            if name is None:
                setattr(owner, attr, _count_tensor(tracer, original))
            else:
                setattr(owner, attr, tracer.wrap(name, original, observe))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def per_layer_metrics(tracer, val_loss_ratio, gap_pct_mean, overhead):
    """Per-layer metrics of the timed phase, normalised per workload operation.

    `overhead` lists (traced, untraced) scaled seconds of each item that ran
    both ways.
    """
    sid, phase, parent, dur, self_s = tracer.arrays()
    timed = phase == TIMED
    ids = {name: i for i, name in enumerate(tracer.names)}

    def pick(name, which=TIMED):
        return (sid == ids.get(name, -1)) & (phase == which)

    def calls(name):
        return int(pick(name).sum())

    def self_time(name, which=TIMED):
        return float(self_s[pick(name, which)].sum())

    op_mask = pick("op")
    ops = max(int(op_mask.sum()), 1)
    op_time = float(dur[op_mask].sum()) or 1.0
    c = tracer.counts[TIMED]
    solves = calls("exact.solve_exact")
    batches = calls("ndiff.adam_step") + calls("trainer.evaluate_loss") + calls("pnanet.forward")
    leaves = int((pick("knapsack.follower_response") & (parent >= 0)
                  & np.isin(parent, np.flatnonzero(pick("exact.solve_exact")))).sum())
    epochs = c["trainer.epochs"]
    samples = c["search.samples"]

    m = {
        "knapsack.follower_response.calls": calls("knapsack.follower_response") / ops,
        "knapsack.follower_response.self_s": self_time("knapsack.follower_response") / ops,
        "knapsack.knapsack_max.self_s": self_time("knapsack.knapsack_max") / ops,
        "knapsack.knapsack_max.cells": c["knapsack.cells"] / ops,
        "knapsack.table_mb_max": c["knapsack.table_mb_max"],
        "exact.solve_exact.calls": solves / ops,
        "exact.solve_exact.self_s": self_time("exact.solve_exact") / ops,
        "exact.setup_s": self_time("exact.solve_exact", SETUP) + sum(
            self_time(n, SETUP) for n in ("knapsack.follower_response", "knapsack.knapsack_max")),
        "exact.nodes": c["exact.nodes"] / ops,
        "exact.leaves": leaves / ops,
        "exact.proven_frac": c["exact.proven"] / solves if solves else 0.0,
        "exact.pool_mean": c["exact.pool"] / solves if solves else 0.0,
        "graphrep.build_graph.calls": calls("graphrep.build_graph") / ops,
        "graphrep.build_graph.self_s": self_time("graphrep.build_graph") / ops,
        "pnanet.forward.calls": calls("pnanet.forward") / ops,
        "pnanet.forward.self_s": self_time("pnanet.forward") / ops,
        "pnanet.forward_tensor.calls": calls("pnanet.forward_tensor") / ops,
        "pnanet.forward_tensor.self_s": self_time("pnanet.forward_tensor") / ops,
        "pnanet.forward_tensor.calls_per_batch":
            calls("pnanet.forward_tensor") / batches if batches else 0.0,
        "pnanet.pairs": c["pnanet.pairs"] / ops,
        "pnanet.load_checkpoint.self_s": self_time("pnanet.load_checkpoint", SETUP),
        "ndiff.tensors": c["ndiff.tensors"] / batches if batches else 0.0,
        "ndiff.backward.self_s": self_time("ndiff.backward") / ops,
        "ndiff.adam_step.calls": calls("ndiff.adam_step") / ops,
        "ndiff.adam_step.self_s": self_time("ndiff.adam_step") / ops,
        "trainer.epoch_s": float(dur[pick("trainer.train")].sum()) / epochs if epochs else 0.0,
        "trainer.evaluate_loss.self_s": self_time("trainer.evaluate_loss") / ops,
        "trainer.train.self_s": self_time("trainer.train") / ops,
        "trainer.val_loss_ratio": val_loss_ratio,
        "search.solution_search.calls": calls("search.solution_search") / ops,
        "search.solution_search.self_s": self_time("search.solution_search") / ops,
        "search.distinct_ratio":
            c["search.distinct"] / (samples + calls("search.solution_search")) if samples else 0.0,
        "search.infeasible_ratio": c["search.infeasible"] / samples if samples else 0.0,
        "search.free_frac":
            c["search.free"] / c["search.leader_items"] if c["search.leader_items"] else 0.0,
        "quality.gap_pct_mean": gap_pct_mean,
    }
    for module in MODULES:
        mine = np.array([n.split(".")[0] == module for n in tracer.names] + [False])
        m[f"{module}.share"] = float(self_s[timed & mine[sid]].sum()) / op_time
    pairs = np.asarray(overhead, dtype=np.float64).reshape(-1, 2)
    m["trace.overhead_ms_per_op"] = 1e3 * float(np.mean(pairs[:, 0] - pairs[:, 1]))
    m["trace.overhead_frac"] = float(pairs[:, 0].sum() / pairs[:, 1].sum()) - 1.0
    return m
