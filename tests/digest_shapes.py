"""Print the decision digest of every run of the unit tests' small configs.

Usage, from the repository root, with the ``src`` of the commit to check:

    PYTHONPATH=src:bench:tests python3 tests/digest_shapes.py CSV_DIR

It trains the unit tests' ``tiny_config`` (3 chained domains, sizes
[240, 200, 160], batch 24) in every mode with expert_counts [1, 2, 1] and
[3, 3, 2], and with expert_counts [1, 2, 1] at (expert_hidden,
tower_hidden) (16, 16) and (3, 5), at proto_loss_weight 0, at one row per
domain and batch (batch_size 3, quotas [1, 1, 1]), with the synthetic
readout options fields_per_concept 3, vocab_size 8 and feature_noise 0.1,
at split_fractions [0.6, 0.2, 0.2] with the mean overall metric, and with
vocab_size 65,537; then it writes the default and the 65,537-entry
synthetic data to CSV_DIR with ``save_csv`` and trains from
{"kind": "csv", ...} in every mode: 33 runs, one line each, bench/run.py's
``decision_digest`` of the ``train()`` result.

These are shapes the benchmark does not run. Their 4- and 8-expert gates
over 24 inputs, and their 16-wide and odd-width hidden layers, take other
OpenBLAS kernels than the benchmark's layers; the zero-weight and one-row
variants run the train step with the prototype loss weighted 0, and the
single-row backward of the dense layers and the coders; the readout and
split variants carry dataset and report options that no workload sets to
the run; the 65,537-entry variants store features as int32, where every
workload's 16-entry vocabularies store uint8, and their CSV holds cells of
up to 5 digits, where the benchmark's hold 1 or 2.

Two commits' outputs are compared by running this one script with each
commit's ``src`` first on PYTHONPATH and the same CSV_DIR, since the digest
carries the dataset's path, and diffing the two outputs.
"""

import os
import sys

# bench/run.py pins BLAS to one thread before numpy loads, so it is
# imported before anything that loads numpy.
import run
from helpers import CHAIN3, tiny_config
from ctrlab.config import load_dataset
from ctrlab.data import save_csv
from ctrlab.train import train


def main(csv_dir: str) -> None:
    synth = {"kind": "synth", "affinity": CHAIN3, "noise": [0.0] * 3,
             "sizes": [240, 200, 160]}
    readout = dict(synth, fields_per_concept=3, vocab_size=8,
                   feature_noise=0.1)
    for changes in ({"expert_counts": [1, 2, 1]},
                    {"expert_counts": [3, 3, 2]},
                    {"expert_hidden": 16, "tower_hidden": 16},
                    {"expert_hidden": 3, "tower_hidden": 5},
                    {"proto_loss_weight": 0.0},
                    {"batch_size": 3, "quotas": [1, 1, 1]},
                    {"dataset": readout},
                    {"split_fractions": [0.6, 0.2, 0.2],
                     "overall_metric": "mean"},
                    {"dataset": dict(synth, vocab_size=65_537)}):
        for mode in ("sdsp", "full-share", "fixed-subset"):
            result = train(tiny_config(mode).replace(**changes))
            print(mode, changes, run.decision_digest(result))
    for vocab_size in (16, 65_537):
        dataset = load_dataset(tiny_config("sdsp").replace(
            dataset=dict(synth, vocab_size=vocab_size)))
        csv = {"kind": "csv",
               "path": os.path.join(csv_dir, f"vocab{vocab_size}.csv"),
               "schema": os.path.join(csv_dir,
                                      f"vocab{vocab_size}.schema.json")}
        save_csv(dataset, csv["path"])
        dataset.schema.save(csv["schema"])
        for mode in ("sdsp", "full-share", "fixed-subset"):
            result = train(tiny_config(mode).replace(dataset=csv))
            print(mode, "csv", vocab_size, run.decision_digest(result))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} CSV_DIR")
    main(sys.argv[1])
