"""Supervised training of the leader-solution predictor.

Labels come from the exact oracle's pool: per instance, the optimal
leader vector plus the best vectors of the next k best leader weights
(`blkp.exact.collect_labels`). The train/validation split is at
the instance level so no instance contributes to both sides. Each batch
loss is the mean binary cross-entropy over every leader-variable term in
the batch. Each batch makes one forward and one reverse pass, over the
disjoint union of the graphs of its distinct instances
(`graphrep.graph_union`); the loss, `ndiff.bce_mean`, scores every
leader row through the sum and the count of its instance's labels in
the batch, and its gradient starts the forward's reverse pass. The
validation loss is the same value from `pnanet.predict`, the forward
that keeps no record. The gradient buffer (`ModelParams.grad`) is
zeroed before each reverse pass, `ndiff.Adam` then steps the weight
buffer (`ModelParams.flat`) in place, and the best epoch's weights are
kept as a copy of that buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphrep import build_graph, graph_union
from .instance import binary_vector, check_int, is_number
from .ndiff import Adam, Tensor, bce_mean
from .pnanet import ModelParams, PnaConfig, forward_tensor, predict


class TrainingDiverged(RuntimeError):
    """Loss became non-finite."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    early_stop_patience: int = 50
    batch_size: int = 550  # in samples
    lr: float = 0.002
    weight_decay: float = 1e-6
    split: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not (is_number(self.split) and 0.0 < self.split < 1.0):  # "0.8" would not compare
            raise ValueError(f"split must be a number in (0, 1), got {self.split!r}")
        # a float would fail later, inside range(); early_stop_patience >= epochs
        # never stops early
        for name, least in (("batch_size", 1), ("epochs", 0), ("early_stop_patience", 0),
                            ("seed", 0)):
            check_int(name, getattr(self, name), least)
        for name in ("lr", "weight_decay"):  # lr 0 freezes the weights; true is no rate
            value = getattr(self, name)
            if not (is_number(value) and np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


@dataclass
class LabeledSample:
    instance_id: int
    x_label: np.ndarray


@dataclass
class TrainResult:
    params: ModelParams
    history: list = field(default_factory=list)  # (train_loss, val_loss) per epoch
    best_val_loss: float = float("inf")
    best_epoch: int = -1
    initial_val_loss: float = float("nan")
    stopped_early: bool = False


def build_dataset(instances, labels_per_instance, cfg: TrainConfig):
    """Split labeled instances into train/validation sample lists.

    `labels_per_instance[i]` is the list of leader label vectors for
    `instances[i]`. The split is by instance; samples are shuffled with
    the config seed.
    """
    if len(instances) != len(labels_per_instance):
        raise ValueError("instances and labels must align")
    for i, labels in enumerate(labels_per_instance):
        if not labels:
            raise ValueError(f"instance {i} has no labels")
        for lab in labels:
            binary_vector(lab, instances[i].n1, f"instance {i}: label")
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(instances))
    n_train = int(round(cfg.split * len(instances)))
    train_ids = order[:n_train]
    val_ids = order[n_train:]

    def expand(ids):
        samples = [LabeledSample(int(i), np.asarray(lab, dtype=np.float64))
                   for i in ids for lab in labels_per_instance[i]]
        rng.shuffle(samples)
        return samples

    return expand(train_ids), expand(val_ids)


def _batch(samples, graphs):
    """The union of the batch's distinct instances, and per leader row its label sum and count."""
    by_instance = {}
    for s in samples:
        by_instance.setdefault(s.instance_id, []).append(s.x_label)
    union = graph_union(graphs[i] for i in by_instance)
    positives = np.concatenate([np.sum(labels, axis=0) for labels in by_instance.values()])
    totals = np.concatenate([np.full(len(labels[0]), len(labels))
                             for labels in by_instance.values()])
    return union, positives, totals


def _batch_loss(samples, graphs, params):
    """Mean BCE over all leader-variable terms of the batch, as a `Tensor`.

    Its reverse pass hands the loss's gradient at the predictions to the
    forward's.
    """
    union, positives, totals = _batch(samples, graphs)
    predictions = forward_tensor(union, params)
    loss, grad = bce_mean(predictions.data, positives, totals)
    return Tensor(loss, lambda g: predictions._backward(g * grad))


def evaluate_loss(samples, graphs, params) -> float:
    """`_batch_loss`'s value, from the forward that keeps no record (`pnanet.predict`)."""
    union, positives, totals = _batch(samples, graphs)
    return float(bce_mean(predict(union, params), positives, totals)[0])


def train(instances, train_set, val_set, model_cfg: PnaConfig,
          train_cfg: TrainConfig) -> TrainResult:
    """Mini-batch training with early stopping on validation loss.

    `train_cfg.seed` seeds the initial parameters and the batch order.
    The graphs use `graphrep.DEFAULT_NORM`, the scheme that `blkp train`
    records in its checkpoint. Returns the parameters from the best-validation epoch together with
    the per-epoch loss history.
    """
    if not train_set:
        raise ValueError("training set is empty")
    graphs = {i: build_graph(inst) for i, inst in enumerate(instances)}
    params = ModelParams(model_cfg, seed=train_cfg.seed)
    opt = Adam(params.flat, params.grad, lr=train_cfg.lr, weight_decay=train_cfg.weight_decay)
    rng = np.random.default_rng(train_cfg.seed + 1)

    result = TrainResult(params=params)
    if val_set:
        result.initial_val_loss = evaluate_loss(val_set, graphs, params)
    best = params.flat.copy()  # every weight is a view into this buffer
    best_val = result.initial_val_loss if val_set else float("inf")
    best_epoch = -1
    since_improve = 0
    train_list = list(train_set)

    for epoch in range(train_cfg.epochs):
        rng.shuffle(train_list)
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, len(train_list), train_cfg.batch_size):
            batch = train_list[lo:lo + train_cfg.batch_size]
            loss = _batch_loss(batch, graphs, params)
            if not np.isfinite(loss.data):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
            params.grad[...] = 0.0
            loss.backward()
            opt.step()
            epoch_loss += float(loss.data)
            n_batches += 1
        train_loss = epoch_loss / n_batches
        if val_set:
            val_loss = evaluate_loss(val_set, graphs, params)
        else:
            val_loss = train_loss
        result.history.append((train_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best = params.flat.copy()
            since_improve = 0
        else:
            since_improve += 1
            if since_improve > train_cfg.early_stop_patience:
                break

    params.flat[...] = best
    result.stopped_early = len(result.history) < train_cfg.epochs
    result.best_val_loss = best_val
    result.best_epoch = best_epoch
    return result
