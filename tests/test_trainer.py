import hashlib
import json

import numpy as np
import pytest

from blkp.exact import collect_labels, solve_exact
from blkp.graphrep import DEFAULT_NORM
from blkp.instance import GenConfig, generate
from blkp.pnanet import (ModelParams, PnaConfig, forward_tensor, load_checkpoint,
                         save_checkpoint)
from blkp.trainer import (TrainConfig, TrainingDiverged, _batch_loss,
                          build_dataset, evaluate_loss, train)
from blkp.graphrep import build_graph

from _gradcheck import parameters
from _unfused import add, affine_const, bce_sum, node


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


def test_misaligned_labels_rejected():
    instances, labels = make_labeled(3)
    with pytest.raises(ValueError, match="instances and labels must align"):
        build_dataset(instances, labels[:2], TrainConfig(epochs=1, early_stop_patience=0))


def test_empty_training_set_rejected():
    instances, labels = make_labeled(2)
    cfg = TrainConfig(epochs=1, early_stop_patience=0, split=0.5)
    _, val_set = build_dataset(instances, labels, cfg)
    with pytest.raises(ValueError, match="training set is empty"):
        train(instances, [], val_set, PnaConfig(), cfg)


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


def test_stopped_early_only_when_fewer_epochs_ran():
    # lr 0 never improves on the initial validation loss: patience 2 runs
    # all 3 epochs, patience 1 stops after 2
    instances, labels = make_labeled(2, seed=7)
    for patience, ran in ((2, 3), (1, 2)):
        cfg = TrainConfig(epochs=3, early_stop_patience=patience, lr=0.0,
                          weight_decay=0.0, split=0.5, seed=6)
        train_set, val_set = build_dataset(instances, labels, cfg)
        result = train(instances, train_set, val_set, PnaConfig(), cfg)
        assert len(result.history) == ran
        assert result.stopped_early == (ran < 3)


def test_train_returns_the_best_epochs_weights():
    # the first of 6 epochs is the best: its weights come back, bit for bit
    # those of a 1-epoch run, though Adam stepped them 5 more times
    instances, labels = make_labeled(4, seed=8)
    runs = []
    for epochs in (6, 1):
        cfg = TrainConfig(epochs=epochs, early_stop_patience=epochs, split=0.5, seed=7)
        train_set, val_set = build_dataset(instances, labels, cfg)
        runs.append(train(instances, train_set, val_set, PnaConfig(), cfg))
    six, one = runs
    assert six.best_epoch == one.best_epoch == 0
    assert six.history[:1] == one.history
    initial = ModelParams(PnaConfig(), seed=7)
    for name, mlp in six.params.mlps.items():
        for (w, b), (w1, b1), (w0, _) in zip(mlp.state_arrays(),
                                             one.params.mlps[name].state_arrays(),
                                             initial.mlps[name].state_arrays()):
            assert np.array_equal(w, w1) and np.array_equal(b, b1), name
            assert not np.array_equal(w, w0), name


def concatenated(params):
    """Every weight array of the network, raveled and joined in checkpoint order."""
    return np.concatenate([a.ravel() for mlp in params.mlps.values()
                           for layer in mlp.state_arrays() for a in layer])


def test_trained_weights_are_the_flat_buffer_and_the_checkpoint(tmp_path):
    # the best epoch is the first of 6: the buffer holds its weights, not
    # the last step's, and so do the arrays and the checkpoint
    instances, labels = make_labeled(4, seed=8)
    flats = []
    for epochs in (6, 1):
        cfg = TrainConfig(epochs=epochs, early_stop_patience=epochs, split=0.5, seed=7)
        train_set, val_set = build_dataset(instances, labels, cfg)
        result = train(instances, train_set, val_set, PnaConfig(), cfg)
        flats.append(result.params.flat)
    params = result.params
    assert np.array_equal(flats[0], flats[1])
    assert np.array_equal(params.flat, concatenated(params))
    path = tmp_path / "best.json"
    save_checkpoint(params, DEFAULT_NORM, {}, path)
    written = json.loads(path.read_text())["weights"]
    assert np.array_equal(params.flat, np.concatenate(
        [np.ravel(layer[k]) for layers in written.values() for layer in layers for k in "wb"]))
    loaded = load_checkpoint(path)[0]
    assert np.array_equal(loaded.flat, params.flat)
    assert np.array_equal(loaded.flat, concatenated(loaded))


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
    for split in ("0.8", True):  # a string raised TypeError, naming no setting
        with pytest.raises(ValueError, match="split must be a number in"):
            TrainConfig(split=split)
    with pytest.raises(ValueError):
        TrainConfig(early_stop_patience=-1)
    # each used to construct, and ran as a rate of 1 or 0
    for name, value in (("lr", True), ("lr", "0.002"), ("weight_decay", False)):
        with pytest.raises(ValueError, match=f"{name} must be a finite number"):
            TrainConfig(**{name: value})
    # patience beyond the epochs just never stops early
    assert TrainConfig(epochs=10, early_stop_patience=20).early_stop_patience == 20


@pytest.mark.parametrize("name, value", [("epochs", 2.5), ("epochs", 2.0), ("batch_size", 2.5),
                                         ("batch_size", True), ("seed", 0.5), ("seed", "0"),
                                         ("early_stop_patience", 1.5)])
def test_non_integer_setting_rejected(name, value):
    # each used to construct, and a float failed later, inside range()
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        TrainConfig(**{name: value})


def test_batch_loss_matches_per_label_reference():
    instances, labels = make_labeled(5, n1=5, n2=4, seed=10)
    cfg = TrainConfig(epochs=1, early_stop_patience=0, split=0.6, seed=9)
    train_set, _ = build_dataset(instances, labels, cfg)
    graphs = {i: build_graph(inst) for i, inst in enumerate(instances)}
    params = ModelParams(PnaConfig(), seed=11)
    assert len({s.instance_id for s in train_set}) < len(train_set)

    def grads(loss):
        params.grad[...] = 0.0
        loss.backward()
        return [g.copy() for _, g in parameters(params.mlps.values())]

    loss = _batch_loss(train_set, graphs, params)
    got = grads(loss)
    # one BCE sum per label, the sum divided by the number of terms
    preds = {i: node(forward_tensor(graphs[i], params))
             for i in {s.instance_id for s in train_set}}
    ref = bce_sum(preds[train_set[0].instance_id], train_set[0].x_label, 1)
    for s in train_set[1:]:
        ref = add(ref, bce_sum(preds[s.instance_id], s.x_label, 1))
    terms = sum(s.x_label.size for s in train_set)
    ref = affine_const(ref, 1.0 / terms)
    want = grads(ref)
    assert float(loss.data) == pytest.approx(float(ref.data), rel=1e-12)
    for g, w in zip(got, want):
        assert np.allclose(g, w, rtol=1e-12, atol=0.0)


def test_batch_loss_ragged_matches_per_instance_reference():
    # one forward pass over the union against one per instance
    sizes = [(1, 3), (4, 1), (6, 5), (2, 2), (5, 7), (3, 4)]
    instances = [generate(GenConfig(n1, n2, data_type="UC" if i % 2 else "C", seed=20 + i))
                 for i, (n1, n2) in enumerate(sizes)]
    labels = [[x.astype(float) for x, _ in collect_labels(solve_exact(inst), k=4)]
              for inst in instances]
    cfg = TrainConfig(epochs=1, early_stop_patience=0, split=0.5, seed=12)
    train_set, val_set = build_dataset(instances, labels, cfg)
    graphs = {i: build_graph(inst) for i, inst in enumerate(instances)}
    params = ModelParams(PnaConfig(), seed=13)

    def grads(loss):
        params.grad[...] = 0.0
        loss.backward()
        return [g.copy() for _, g in parameters(params.mlps.values())]

    for samples in (train_set, val_set, train_set[:3] + val_set[:2]):
        loss = _batch_loss(samples, graphs, params)
        got = grads(loss)
        stacks = {}
        for s in samples:
            stacks.setdefault(s.instance_id, []).append(s.x_label)
        parts = [bce_sum(node(forward_tensor(graphs[i], params)),
                         np.sum(stack, axis=0), len(stack))
                 for i, stack in stacks.items()]
        ref = parts[0]
        for part in parts[1:]:
            ref = add(ref, part)
        ref = affine_const(ref, 1.0 / sum(s.x_label.size for s in samples))
        want = grads(ref)
        assert float(loss.data) == pytest.approx(float(ref.data), rel=1e-12)
        # the union sums in another order, so compare whole tensors: an
        # entry near zero can differ by more than 1e-12 of itself
        for g, w in zip(got, want):
            assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)


# sha256 of a 4-epoch history on ragged batches: any change of the
# forward's, the backward's or Adam's arithmetic, down to the last bit,
# changes it
HISTORY_SHA256 = "a830273510c9898d18be2eecc8a40431b53761ea592847fdcf66bf1f60d84f9f"
# sha256 of the trained weights of the same run: the losses can round a
# gradient sum reordered by an ulp away, the weights keep it
PARAMS_SHA256 = "1c1be023efeab24fa963d9fa664c19fb9bd1d701b2de45f2d628a3e390809fb2"


def test_training_history_bits_are_pinned():
    instances = [generate(GenConfig(n, n + 1, seed=30 + n)) for n in range(3, 11)]
    labels = [[x.astype(float) for x, _ in collect_labels(solve_exact(inst), k=3)]
              for inst in instances]
    cfg = TrainConfig(epochs=4, early_stop_patience=4, batch_size=8, seed=5)
    train_set, val_set = build_dataset(instances, labels, cfg)
    result = train(instances, train_set, val_set, PnaConfig(), cfg)
    assert len(result.history) == 4
    assert hashlib.sha256(np.array(result.history).tobytes()).hexdigest() == HISTORY_SHA256
    assert hashlib.sha256(result.params.flat.tobytes()).hexdigest() == PARAMS_SHA256
