"""End-to-end out-of-distribution detection under label noise.

Generates a 4-class synthetic dataset with 40% of the training labels
flipped, trains the full method (forward-corrected loss + per-batch
low-rank/sparse split of the latents) and a plain cross-entropy baseline,
then scores a held-out ID test set against two kinds of OOD data with the
kNN distance score.  Ends by walking through the actual decision rule at
95% TPR.

Run:  python3 demos/03_train_and_detect.py [--seed N]
"""

import argparse
import tempfile
from pathlib import Path

from noodle.cli import evaluate, generate_dataset_files
from noodle.datagen import load_features_csv, load_ood_csv
from noodle.scoring import select_threshold
from noodle.trainer import TrainConfig, train

GEN = dict(
    classes=4,
    per_class=150,
    dim=16,
    separation=6.0,
    spread=1.0,
    noise_rate=0.4,
    val_per_class=20,
    test_per_class=100,
    ood_size=400,
    ood_modes=("far_cluster", "uniform_shell"),
)
KNN_K = 20


def run_method(data_dir, loss_kind, lam, seed):
    config = TrainConfig(
        loss_kind=loss_kind,
        lam=lam,
        seed=seed,
        t_diag_init=0.65,
        epochs=60,
        widths=(64, 32, 16),
    )
    result = train(load_features_csv(data_dir / "train.csv"), config)
    ood_sets = [(mode, load_ood_csv(data_dir / f"ood_{mode}.csv")) for mode in GEN["ood_modes"]]
    test = load_features_csv(data_dir / "test_id.csv")
    return evaluate(result.params, result.store, test, ood_sets, "knn", KNN_K, 0.95, seed,
                    config.config_hash())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as td:
        data_dir = Path(td)
        print(f"generating dataset (seed {args.seed}, {GEN['noise_rate']:.0%} label noise)...")
        generate_dataset_files(data_dir, args.seed, **GEN)

        print("training both methods...")
        results = {
            "noodle (cm + sparsity)": run_method(data_dir, "cm", 0.001, args.seed),
            "ce baseline": run_method(data_dir, "ce", 0.0, args.seed),
        }

        print()
        print(f"{'method':24s} {'ood set':15s} {'fpr95':>7s} {'auroc':>7s} {'id acc':>7s}")
        for name, reports in results.items():
            for r in reports:
                print(f"{name:24s} {r.dataset:15s} {r.fpr95:7.4f} {r.auroc:7.4f} "
                      f"{r.id_accuracy:7.4f}")

        # The decision rule, spelled out on the stronger method.
        reports = results["noodle (cm + sparsity)"]
        id_scores = reports[0].id_scores
        tau = select_threshold(id_scores, 0.95)
        print()
        print(f"threshold at 95% TPR: tau = {tau:.4f} (rule: ID iff score >= tau)")
        print(f"  ID test scores  kept: {(id_scores >= tau).mean():6.1%}   "
              f"range [{id_scores.min():.3f}, {id_scores.max():.3f}]")
        for r in reports:
            print(f"  {r.dataset:15s} kept: {(r.ood_scores >= tau).mean():6.1%}   "
                  f"range [{r.ood_scores.min():.3f}, {r.ood_scores.max():.3f}]")
        print()
        print("a kept OOD fraction is exactly the false positive rate the")
        print("fpr95 column reports; lower is better")


if __name__ == "__main__":
    main()
