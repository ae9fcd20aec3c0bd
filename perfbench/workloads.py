"""The four workloads: what each sets up, runs as one operation, and checks.

Every workload is a closed loop: one caller in one process, each call
waiting for the previous one. Instances come from the run's seed only, and
their generator seeds sit above 2^32, so none coincides with the seeds
1000..1199 the committed checkpoint was trained on.

An operation's output is checked in depth the first time its item runs;
later runs of the same item must reproduce it exactly.
"""

import hashlib
import os

import numpy as np

from blkp import exact, pnanet, search, trainer
from blkp.instance import GenConfig, generate
from blkp.knapsack import Mode, evaluate_bilevel
from blkp.pnanet import PnaConfig
from blkp.trainer import TrainConfig, build_dataset

from reference import bilevel_optimum, fractional_bound, gap_pct

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKPOINT = os.path.join(HERE, "desk_checkpoint.json")
CHECKPOINT_SHA256 = os.path.join(HERE, "desk_checkpoint.sha256")

THETA, N_SAMPLES = 0.2, 10  # the paper's desk setting (acceptance criterion 7)
BRUTE_FORCE_MAX_N = 8


def instance_seeds(seed, tag, count):
    """Generator seeds for one workload's instances, derived from the run seed."""
    state = np.random.SeedSequence([seed, tag]).generate_state(count)
    return [2 ** 32 + int(s) for s in state]


def make_instances(seed, tag, specs):
    """One instance per (n1, n2, data_type, value_max) spec."""
    return [generate(GenConfig(n1, n2, data_type=dt, value_max=vm, seed=s))
            for s, (n1, n2, dt, vm) in zip(instance_seeds(seed, tag, len(specs)), specs)]


def alternating(i):
    """Data type and tie-break mode for the i-th instance: all four pairs in turn."""
    return ("UC" if i % 2 else "C"), (Mode.OPTIMISTIC if i // 2 % 2 == 0 else Mode.PESSIMISTIC)


def assert_seeds_differ(seed, tag, first):
    other = make_instances(seed + 1, tag, [(first.n1, first.n2, first.meta["data_type"],
                                            first.meta["value_max"])])[0]
    if other == first:
        raise RuntimeError(f"seeds {seed} and {seed + 1} produced the same instance")


def search_config(mode):
    return search.SearchConfig(theta=THETA, n_samples=N_SAMPLES, mode=mode, seed=0)


def load_desk_checkpoint():
    with open(CHECKPOINT, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    with open(CHECKPOINT_SHA256) as fh:
        expected = fh.read().split()[0]
    if digest != expected:
        raise RuntimeError(f"{CHECKPOINT}: sha256 {digest} does not match the recorded {expected}")
    params, norm, _meta = pnanet.load_checkpoint(CHECKPOINT)
    return params, norm


def check_values(values, n1):
    """Failure messages for a forward output that is not n1 finite values in [0, 1]."""
    values = np.asarray(values)
    if values.shape != (n1,) or not np.isfinite(values).all():
        return [f"forward output not {n1} finite values: {values}"]
    if (values < 0).any() or (values > 1).any():
        return [f"forward output outside [0, 1]: {values}"]
    return []


def check_solution(inst, mode, x, y, value, ub, what):
    """Failure messages unless (x, y) is feasible, mode-consistent and worth `value`."""
    ev = evaluate_bilevel(inst, x, y, mode)
    if not (ev.bilevel_feasible and ev.rational_and_mode_consistent):
        return [f"{what}: not bilevel feasible and mode-consistent"]
    if ev.leader_obj != value:
        return [f"{what}: reported value {value}, evaluated {ev.leader_obj}"]
    if value > ub:
        return [f"{what}: value {value} above the fractional bound {float(ub):.1f}"]
    return []


class Setup:
    """What a workload's set-up produced, plus the reference solves it checked."""

    def __init__(self, items, **extra):
        self.items = items
        self.references = 0
        self.reference_failures = []
        self.__dict__.update(extra)

    def reference(self, inst, mode):
        """Exact optimum for a reference; an unproven one counts as a failure."""
        self.references += 1
        res = exact.solve_exact(inst, mode)
        if not res.proven_optimal:
            self.reference_failures.append(f"reference not proven optimal: {inst.meta}")
        return res


class Label:
    """Exact solve plus label collection; nearly all tree search and follower DP.

    n1 = n2 = 8 at value_max 1e3, so every instance is also checked by full
    enumeration, and one in 32 at n = 6 with value_max 3e4 (b near 1.4e5),
    where the capacity sets the DP cost. Exact run time is heavy-tailed per
    instance (coefficient of variation near 1), so the set is large to keep
    runs with different seeds comparable, and the large-b share stays
    under a tenth so that the 90th percentile does not fall on the border
    between the two groups.
    """

    tag = 1
    count = 640
    large_b_every = 32
    work_unit = "instance"

    def setup(self, seed):
        specs, modes = [], []
        for i in range(self.count):
            large = i % self.large_b_every == self.large_b_every - 1
            dt, mode = alternating(i // self.large_b_every if large else i)
            n, vm = (6, 30_000) if large else (8, 1000)
            specs.append((n, n, dt, vm))
            modes.append(mode)
        insts = make_instances(seed, self.tag, specs)
        assert_seeds_differ(seed, self.tag, insts[0])
        return Setup([(inst, mode, fractional_bound(inst)) for inst, mode in zip(insts, modes)])

    def units(self, state):
        return 1

    def run(self, state, item):
        inst, mode, _ub = item
        res = exact.solve_exact(inst, mode)
        return res, exact.collect_labels(res, k=10)

    def fingerprint(self, out):
        res, labels = out
        return res.opt_value, res.opt_x.tobytes(), tuple((x.tobytes(), v) for x, v in labels)

    def check(self, state, item, out):
        inst, mode, ub = item
        res, labels = out
        bad = [] if res.proven_optimal else ["exact result not proven optimal"]
        bad += check_solution(inst, mode, res.opt_x, res.opt_y, res.opt_value, ub, "exact")
        if inst.n1 <= BRUTE_FORCE_MAX_N and inst.n2 <= BRUTE_FORCE_MAX_N:
            brute = bilevel_optimum(inst, mode is Mode.OPTIMISTIC)
            if brute != res.opt_value:
                bad.append(f"exact value {res.opt_value} != enumerated optimum {brute}")
        values = [v for _x, v in labels]
        keys = {x.tobytes() for x, _v in labels}
        if values[0] != res.opt_value or values != sorted(values, reverse=True) \
                or len(keys) != len(labels) or len(labels) > 11:
            bad.append(f"labels not the optimum plus distinct runner-ups: {values}")
        return bad

    def quality(self, state, outputs):
        gaps = [gap_pct(ub, res.opt_value) for (_i, _m, ub), (res, _l) in zip(state.items, outputs)]
        return {"ub_gaps": gaps, "failures": []}


class Train:
    """Fixed-epoch training on exact labels; no DP in the timed part.

    Each item is its own small labelled set of mixed sizes (ragged
    batches), so items can be repeated and timed over several passes.
    """

    tag = 2
    sets = 8
    count = 12  # instances per set
    eval_count = 120
    epochs = 4
    sizes = (6, 8, 10, 12)
    work_unit = "training sample"

    def _specs(self, count):
        k = len(self.sizes)
        return [(self.sizes[i % k], self.sizes[i % k], "UC" if i // k % 2 else "C", 1000)
                for i in range(count)]

    def setup(self, seed):
        insts = make_instances(seed, self.tag, self._specs(self.sets * self.count))
        assert_seeds_differ(seed, self.tag, insts[0])
        state = Setup([])
        cfg = TrainConfig(epochs=self.epochs, early_stop_patience=self.epochs)
        for d in range(self.sets):
            chunk = insts[d * self.count:(d + 1) * self.count]
            labels = [[x.astype(float) for x, _v in
                       exact.collect_labels(state.reference(inst, Mode.OPTIMISTIC), k=10)]
                      for inst in chunk]
            train_set, val_set = build_dataset(chunk, labels, cfg)
            state.items.append((chunk, train_set, val_set))
        evals = make_instances(seed, self.tag + 100, self._specs(self.eval_count))
        state.cfg = cfg
        state.evals = [(inst, fractional_bound(inst)) for inst in evals]
        return state

    def units(self, state):
        return self.epochs * sum(len(tr) for _c, tr, _v in state.items) / len(state.items)

    def run(self, state, item):
        chunk, train_set, val_set = item
        return trainer.train(chunk, train_set, val_set, PnaConfig(), state.cfg)

    def fingerprint(self, out):
        return tuple(out.history), out.best_epoch, out.best_val_loss

    def check(self, state, _item, out):
        losses = [v for pair in out.history for v in pair] + [out.initial_val_loss]
        if len(out.history) != self.epochs or not np.isfinite(losses).all():
            return [f"training history not {self.epochs} finite epochs: {out.history}"]
        if not out.best_val_loss <= out.initial_val_loss:
            return ["best validation loss above the initial one"]
        return []

    def quality(self, state, outputs):
        """Heuristic solutions on held-out instances, each set's model on its share."""
        gaps, bad = [], []
        for j, (inst, ub) in enumerate(state.evals):
            params = outputs[j % len(outputs)].params
            values = pnanet.forward(inst, params)
            bad += check_values(values, inst.n1)
            sr = search.solution_search(inst, values, search_config(Mode.OPTIMISTIC))
            bad += check_solution(inst, Mode.OPTIMISTIC, sr.best_x, sr.best_y, sr.best_value,
                                  ub, "heuristic")
            gaps.append(gap_pct(ub, sr.best_value))
        ratios = [res.best_val_loss / res.initial_val_loss for res in outputs]
        return {"ub_gaps": gaps, "failures": bad, "attempted": len(state.evals),
                "val_loss_ratio": float(np.mean(ratios))}


class Solve:
    """solve_heuristic with the committed checkpoint on held-out instances."""

    work_unit = "instance"

    def setup(self, seed):
        params, norm = load_desk_checkpoint()
        specs, modes = [], []
        for i in range(self.count):
            dt, mode = alternating(i)
            specs.append((10, self.n2, dt, 1000))
            modes.append(mode if self.modes_alternate else Mode.OPTIMISTIC)
        insts = make_instances(seed, self.tag, specs)
        assert_seeds_differ(seed, self.tag, insts[0])
        state = Setup([], params=params, norm=norm)
        for inst, mode in zip(insts, modes):
            ref = state.reference(inst, mode).opt_value if self.exact_reference else None
            state.items.append((inst, mode, fractional_bound(inst), ref))
        return state

    def units(self, state):
        return 1

    def run(self, state, item):
        inst, mode, _ub, _ref = item
        return search.solve_heuristic(inst, state.params, search_config(mode), state.norm)

    def fingerprint(self, out):
        return out.best_value, out.best_x.tobytes()

    def check(self, state, item, out):
        inst, mode, ub, ref = item
        bad = check_values(pnanet.forward(inst, state.params, norm=state.norm), inst.n1)
        bad += check_solution(inst, mode, out.best_x, out.best_y, out.best_value, ub, "heuristic")
        if ref is not None and out.best_value > ref:
            bad.append(f"heuristic value {out.best_value} above the exact optimum {ref}")
        return bad

    def quality(self, state, outputs):
        q = {"ub_gaps": [gap_pct(ub, out.best_value)
                         for (_i, _m, ub, _r), out in zip(state.items, outputs)],
             "failures": []}
        if self.exact_reference:
            q["gaps"] = [gap_pct(ref, out.best_value)
                         for (_i, _m, _u, ref), out in zip(state.items, outputs)]
        return q


class SolveDesk(Solve):
    """The desk setting: n1 = n2 = 10, optimistic, gap against proven optima.

    The forward pass takes about 60% of the traced time, the search and its
    follower DP the rest.
    """

    tag = 3
    count = 200
    n2 = 10
    modes_alternate = False
    exact_reference = True


class SolveFollowers(Solve):
    """n1 = 10, n2 = 50: the follower DP inside the search dominates.

    value_max stays at 1e3: at 1e4 the checkpoint's fixed value_scale of
    1000 saturates the inputs, theta fixes every item and the search
    shrinks to a couple of candidates.
    """

    tag = 4
    count = 200
    n2 = 50
    modes_alternate = True
    exact_reference = False


WORKLOADS = {"label": Label, "train": Train, "solve_desk": SolveDesk,
             "solve_followers": SolveFollowers}
