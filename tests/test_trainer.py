import numpy as np
import pytest

from blkp import ndiff
from blkp.exact import collect_labels, solve_exact
from blkp.instance import GenConfig, generate
from blkp.pnanet import ModelParams, PnaConfig, forward_tensor
from blkp.trainer import (TrainConfig, TrainingDiverged, _batch_loss,
                          build_dataset, evaluate_loss, train)
from blkp.graphrep import build_graph


def make_labeled(n_instances, n1=4, n2=4, seed=0, k=3):
    instances = [generate(GenConfig(n1, n2, seed=seed + i))
                 for i in range(n_instances)]
    labels = [[x.astype(float) for x, _ in collect_labels(solve_exact(inst), k=k)]
              for inst in instances]
    return instances, labels


def test_split_arithmetic():
    instances, _ = make_labeled(10)
    labels = [[np.zeros(4)] * 11 for _ in instances]
    cfg = TrainConfig(epochs=1, early_stop_patience=0, split=0.8, seed=1)
    train_set, val_set = build_dataset(instances, labels, cfg)
    assert len(train_set) == 88
    assert len(val_set) == 22


def test_split_instance_level_no_leakage():
    instances, labels = make_labeled(10)
    cfg = TrainConfig(epochs=1, early_stop_patience=0, seed=2)
    train_set, val_set = build_dataset(instances, labels, cfg)
    assert {s.instance_id for s in train_set}.isdisjoint(
        {s.instance_id for s in val_set})


def test_split_deterministic():
    instances, labels = make_labeled(6)
    cfg = TrainConfig(epochs=1, early_stop_patience=0, seed=3)
    a_train, a_val = build_dataset(instances, labels, cfg)
    b_train, b_val = build_dataset(instances, labels, cfg)
    assert [s.instance_id for s in a_train] == [s.instance_id for s in b_train]
    assert [s.instance_id for s in a_val] == [s.instance_id for s in b_val]


def test_single_label_instance_contributes_one_sample():
    instances, _ = make_labeled(2)
    labels = [[np.zeros(4)], [np.zeros(4), np.ones(4)]]
    cfg = TrainConfig(epochs=1, early_stop_patience=0, split=0.5, seed=0)
    train_set, val_set = build_dataset(instances, labels, cfg)
    assert len(train_set) + len(val_set) == 3


@pytest.mark.parametrize("bad", [2.0, -1.0, 0.5])
def test_non_binary_labels_rejected(bad):
    instances, labels = make_labeled(3)
    labels[1][0] = labels[1][0].copy()
    labels[1][0][0] = bad
    with pytest.raises(ValueError, match="instance 1: label must be a 0/1 vector"):
        build_dataset(instances, labels, TrainConfig(epochs=1, early_stop_patience=0))


def test_missing_labels_rejected():
    instances, labels = make_labeled(3)
    labels[1] = []
    with pytest.raises(ValueError, match="no labels"):
        build_dataset(instances, labels, TrainConfig(epochs=1,
                                                     early_stop_patience=0))


def test_overfit_single_sample():
    instances, labels = make_labeled(1, seed=5)
    labels = [labels[0][:1]]
    cfg = TrainConfig(epochs=500, early_stop_patience=500, batch_size=8, seed=4)
    from blkp.trainer import LabeledSample
    train_set = [LabeledSample(0, labels[0][0])]
    result = train(instances, train_set, [], PnaConfig(), cfg)
    final_train = min(tr for tr, _ in result.history)
    assert final_train < 0.01


def test_lr_zero_freezes_losses():
    instances, labels = make_labeled(2, seed=6)
    cfg = TrainConfig(epochs=3, early_stop_patience=3, lr=0.0,
                      weight_decay=0.0, split=0.5, seed=5)
    train_set, val_set = build_dataset(instances, labels, cfg)
    result = train(instances, train_set, val_set, PnaConfig(), cfg)
    train_losses = [tr for tr, _ in result.history]
    assert max(train_losses) - min(train_losses) < 1e-12


def test_patience_zero_stops_at_first_non_improvement():
    instances, labels = make_labeled(2, seed=7)
    cfg = TrainConfig(epochs=50, early_stop_patience=0, lr=0.0,
                      weight_decay=0.0, split=0.5, seed=6)
    train_set, val_set = build_dataset(instances, labels, cfg)
    result = train(instances, train_set, val_set, PnaConfig(), cfg)
    # lr 0 never improves on the initial validation loss
    assert result.stopped_early
    assert len(result.history) == 1


def test_best_checkpoint_matches_history_min():
    instances, labels = make_labeled(4, seed=8)
    cfg = TrainConfig(epochs=15, early_stop_patience=15, split=0.5, seed=7)
    train_set, val_set = build_dataset(instances, labels, cfg)
    result = train(instances, train_set, val_set, PnaConfig(), cfg)
    graphs = {i: build_graph(inst) for i, inst in enumerate(instances)}
    returned_val = evaluate_loss(val_set, graphs, result.params)
    best_seen = min([result.initial_val_loss] + [vl for _, vl in result.history])
    assert returned_val == pytest.approx(best_seen, rel=1e-9)
    assert returned_val <= result.initial_val_loss + 1e-12


def test_training_determinism():
    instances, labels = make_labeled(3, seed=9)
    cfg = TrainConfig(epochs=5, early_stop_patience=5, split=0.67, seed=8)
    runs = []
    for _ in range(2):
        train_set, val_set = build_dataset(instances, labels, cfg)
        result = train(instances, train_set, val_set, PnaConfig(), cfg)
        runs.append(result.history)
    assert runs[0] == runs[1]


def test_invalid_config():
    with pytest.raises(ValueError):
        TrainConfig(split=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=10, early_stop_patience=20)


def test_batch_loss_matches_per_label_reference():
    instances, labels = make_labeled(5, n1=5, n2=4, seed=10)
    cfg = TrainConfig(epochs=1, early_stop_patience=0, split=0.6, seed=9)
    train_set, _ = build_dataset(instances, labels, cfg)
    graphs = {i: build_graph(inst) for i, inst in enumerate(instances)}
    params = ModelParams(PnaConfig(), seed=11)
    assert len({s.instance_id for s in train_set}) < len(train_set)

    def grads(loss):
        for p in params.parameters():
            p.grad = None
        loss.backward()
        return [p.grad.copy() for p in params.parameters()]

    loss = _batch_loss(train_set, graphs, params)
    got = grads(loss)
    # one bce_sum per label, the sum divided by the number of terms
    preds = {i: forward_tensor(graphs[i], params)
             for i in {s.instance_id for s in train_set}}
    ref = ndiff.bce_sum(preds[train_set[0].instance_id], train_set[0].x_label)
    for s in train_set[1:]:
        ref = ndiff.add(ref, ndiff.bce_sum(preds[s.instance_id], s.x_label))
    terms = sum(s.x_label.size for s in train_set)
    ref = ndiff.affine_const(ref, 1.0 / terms)
    want = grads(ref)
    assert float(loss.data) == pytest.approx(float(ref.data), rel=1e-12)
    for g, w in zip(got, want):
        assert np.allclose(g, w, rtol=1e-12, atol=0.0)
