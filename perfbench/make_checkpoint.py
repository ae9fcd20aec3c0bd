"""Train the fixed checkpoint that the solve workloads load.

The recipe is the desk setting of the acceptance suite (criterion 6):
200 instances with n1 = n2 = 10, correlated and uncorrelated data
alternating, instance seeds 1000..1199, labels from the exact oracle
(k = 10), 60 epochs with the default TrainConfig. The solve workloads draw
their instances from other seeds, so they are held out.

Run from the repository root (about four minutes on two cores):

    python3 perfbench/make_checkpoint.py

It writes perfbench/desk_checkpoint.json and prints its sha256, which
belongs in perfbench/desk_checkpoint.sha256.
"""

import hashlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from blkp.exact import collect_labels, solve_exact  # noqa: E402
from blkp.graphrep import DEFAULT_NORM  # noqa: E402
from blkp.instance import GenConfig, generate  # noqa: E402
from blkp.pnanet import PnaConfig, save_checkpoint  # noqa: E402
from blkp.trainer import TrainConfig, build_dataset, train  # noqa: E402

CHECKPOINT = os.path.join(HERE, "desk_checkpoint.json")
N, COUNT, SEED_BASE, EPOCHS = 10, 200, 1000, 60


def main():
    instances = [generate(GenConfig(N, N, data_type="UC" if i % 2 else "C",
                                    seed=SEED_BASE + i)) for i in range(COUNT)]
    labels = [[x.astype(float) for x, _ in collect_labels(solve_exact(inst), k=10)]
              for inst in instances]
    cfg = TrainConfig(epochs=EPOCHS, early_stop_patience=EPOCHS, batch_size=550,
                      split=0.8, seed=0)
    train_set, val_set = build_dataset(instances, labels, cfg)
    result = train(instances, train_set, val_set, PnaConfig(), cfg)
    meta = {"recipe": "desk", "instances": COUNT, "n": N, "seed_base": SEED_BASE,
            "epochs": EPOCHS, "initial_val_loss": result.initial_val_loss,
            "best_val_loss": result.best_val_loss}
    save_checkpoint(result.params, DEFAULT_NORM, meta, CHECKPOINT)
    with open(CHECKPOINT, "rb") as fh:
        print(hashlib.sha256(fh.read()).hexdigest())


if __name__ == "__main__":
    main()
