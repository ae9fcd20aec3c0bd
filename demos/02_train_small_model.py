"""Train a small graph-network heuristic on exactly labeled instances.

The pipeline: generate instances, label each one with its optimal (and
near-optimal) leader selections from the exact oracle, encode every
instance as a tripartite graph, and train a permutation-equivariant
message-passing network to predict, per leader item, the probability
that it belongs to an optimal selection.

This is a scaled-down run (60 instances, 40 epochs, ~2 s) meant to
show the moving parts; the same code handles the full-size setup by
raising the counts.
"""

import time

from blkp import (GenConfig, PnaConfig, TrainConfig, build_dataset,
                  collect_labels, generate, save_checkpoint, solve_exact,
                  train)
from blkp.graphrep import DEFAULT_NORM

N_INSTANCES = 60
EPOCHS = 40


def main():
    print(f"=== 1. Generating and labeling {N_INSTANCES} instances ===")
    t0 = time.perf_counter()
    instances = [
        generate(GenConfig(10, 10, data_type="UC" if i % 2 else "C",
                           seed=2000 + i))
        for i in range(N_INSTANCES)
    ]
    labels = []
    for inst in instances:
        pool = collect_labels(solve_exact(inst), k=10)
        labels.append([x.astype(float) for x, _ in pool])
    per_inst = sum(len(ls) for ls in labels) / len(labels)
    print(f"labeled in {time.perf_counter() - t0:.1f}s, "
          f"{per_inst:.1f} labels per instance on average")

    print("\n=== 2. Train/validation split (by instance, no leakage) ===")
    cfg = TrainConfig(epochs=EPOCHS, early_stop_patience=EPOCHS,
                      batch_size=550, split=0.8, seed=0)
    train_set, val_set = build_dataset(instances, labels, cfg)
    print(f"{len(train_set)} training samples, {len(val_set)} validation samples")

    print(f"\n=== 3. Training for up to {EPOCHS} epochs ===")
    t0 = time.perf_counter()
    result = train(instances, train_set, val_set, PnaConfig(), cfg)
    print(f"done in {time.perf_counter() - t0:.1f}s")
    print(f"initial validation loss {result.initial_val_loss:.4f}")
    for epoch in range(0, len(result.history), max(1, EPOCHS // 8)):
        tr, vl = result.history[epoch]
        print(f"  epoch {epoch:>3}: train {tr:.4f}  val {vl:.4f}")
    print(f"best validation loss {result.best_val_loss:.4f} "
          f"at epoch {result.best_epoch}"
          + ("  (early stop)" if result.stopped_early else ""))

    print("\n=== 4. Saving the best checkpoint ===")
    path = "demo_model.json"
    save_checkpoint(result.params, DEFAULT_NORM,
                    {"demo": "02_train_small_model", "epochs": EPOCHS}, path)
    print(f"wrote {path} — demo 03 picks it up from here")


if __name__ == "__main__":
    main()
