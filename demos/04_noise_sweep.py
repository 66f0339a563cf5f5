"""Detection quality as a function of the label-noise rate.

Runs the corrected method and the cross-entropy baseline across a sweep of
noise rates on the same synthetic protocol and prints one table.  The point
of the exercise: both methods are comparable on clean labels, and the gap
opens as the noise rate grows.

Run:  python3 demos/04_noise_sweep.py [--seed N] [--rates 0.0,0.2,0.4]
"""

import argparse
import tempfile
import warnings
from pathlib import Path

import numpy as np

from noodle.cli import evaluate, generate_dataset_files
from noodle.datagen import load_features_csv, load_ood_csv
from noodle.trainer import TrainConfig, train

GEN = dict(
    classes=4,
    per_class=150,
    dim=16,
    separation=6.0,
    spread=1.0,
    val_per_class=20,
    test_per_class=100,
    ood_size=400,
    ood_modes=("far_cluster", "uniform_shell"),
)
KNN_K = 20
METHODS = {"noodle": ("cm", 0.001), "ce": ("ce", 0.0)}


def run_method(data_dir, loss_kind, lam, seed):
    config = TrainConfig(
        loss_kind=loss_kind,
        lam=lam,
        seed=seed,
        t_diag_init=0.65,
        epochs=60,
        widths=(64, 32, 16),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = train(load_features_csv(data_dir / "train.csv"), config)
    ood_sets = [(mode, load_ood_csv(data_dir / f"ood_{mode}.csv")) for mode in GEN["ood_modes"]]
    test = load_features_csv(data_dir / "test_id.csv")
    reports = evaluate(result.params, result.store, test, ood_sets, "knn", KNN_K, 0.95, seed,
                       config.config_hash())
    return [np.mean([getattr(r, m) for r in reports]) for m in ("fpr95", "auroc", "id_accuracy")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rates", default="0.0,0.2,0.4", help="comma-separated noise rates")
    args = parser.parse_args()
    rates = [float(r) for r in args.rates.split(",")]

    print(f"{'noise':>6s}  {'method':8s} {'fpr95':>7s} {'auroc':>7s} {'id acc':>7s}")
    with tempfile.TemporaryDirectory() as td:
        for rate in rates:
            data_dir = Path(td) / f"rate{rate}"
            generate_dataset_files(data_dir, args.seed, noise_rate=rate, **GEN)
            for name, (loss_kind, lam) in METHODS.items():
                fpr, au, acc = run_method(data_dir, loss_kind, lam, args.seed)
                print(f"{rate:6.2f}  {name:8s} {fpr:7.4f} {au:7.4f} {acc:7.4f}")
    print()
    print("fpr95/auroc are means over the two OOD sets (far cluster and")
    print("uniform shell); id acc is top-1 accuracy on clean test labels")


if __name__ == "__main__":
    main()
