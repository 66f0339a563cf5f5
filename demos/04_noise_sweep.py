"""Detection quality as a function of the label-noise rate.

Runs the corrected method and the cross-entropy baseline across a sweep of
noise rates on the same synthetic protocol and prints one table.  The point
of the exercise: both methods are comparable on clean labels, and the gap
opens as the noise rate grows.  Each rate is one experiment spec, run by the
same runner as ``noodle experiment``.

Run:  python3 demos/04_noise_sweep.py [--seed N] [--rates 0.0,0.2,0.4]
"""

import argparse
import tempfile
import warnings
from pathlib import Path

from noodle.cli import run_experiment

GEN = dict(
    classes=4,
    per_class=150,
    dim=16,
    separation=6.0,
    spread=1.0,
    val_per_class=20,
    test_per_class=100,
    ood_size=400,
    ood_modes=["far_cluster", "uniform_shell"],
)
TRAIN = {"t_diag_init": 0.65, "epochs": 60, "widths": [64, 32, 16]}
METHODS = [
    {"name": "noodle", "loss_kind": "cm", "lambda": 0.001, "k": 20},
    {"name": "ce", "loss_kind": "ce", "lambda": 0.0, "k": 20},
]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rates", default="0.0,0.2,0.4", help="comma-separated noise rates")
    args = parser.parse_args()
    rates = [float(r) for r in args.rates.split(",")]

    print(f"{'noise':>6s}  {'method':8s} {'fpr95':>7s} {'auroc':>7s} {'id acc':>7s}")
    with tempfile.TemporaryDirectory() as td:
        for rate in rates:
            spec = {"dataset": GEN, "noise": {"rate": rate}, "train": TRAIN,
                    "methods": METHODS, "seeds": [args.seed]}
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                comparison = run_experiment(spec, "noise_sweep", Path(td) / f"rate{rate}", 1)
            for row in comparison["rows"]:
                print(f"{rate:6.2f}  {row['method']:8s} {row['fpr95_mean']:7.4f} "
                      f"{row['auroc_mean']:7.4f} {row['id_acc_mean']:7.4f}")
    print()
    print("fpr95/auroc are means over the two OOD sets (far cluster and")
    print("uniform shell); id acc is top-1 accuracy on clean test labels")


if __name__ == "__main__":
    main()
