"""Train the fixed model that the cluster_test workload clusters with.

Usage, from the repository root:

    OPENBLAS_NUM_THREADS=2 python3 perfbench/make_checkpoint.py

Writes perfbench/cluster_test.gcnm and prints its sha256, which goes into
CHECKPOINT_SHA256 in bench.py. The model is the 64->256/256/128/64 mean
aggregator, trained in the paper's train regime (200, 10, 10) on a
collection drawn like the benchmark's inputs, from its own seed.
"""

import hashlib
import sys

import bench
from linkgcn import gcn, trainer

SEED = 20190327
N = 440
EPOCHS = 8


def main() -> int:
    fs = bench.make_collection(N, SEED)
    cfg = trainer.TrainConfig(aggregator="mean", hidden_dims=bench.MODEL_DIMS[1:],
                              ips=bench.TRAIN_IPS, epochs=EPOCHS, batch_size=16, seed=SEED)
    model, curve = trainer.train(fs, cfg)
    gcn.save_model(model, bench.CHECKPOINT)
    print("loss per epoch:", " ".join(f"{v:.4f}" for v in curve))
    print(f"sha256 {hashlib.sha256(bench.CHECKPOINT.read_bytes()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
