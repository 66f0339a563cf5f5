"""Symmetric label noise, and what forward loss correction does about it.

Three acts:
  1. inject 40% symmetric noise into 20k labels and look at the realized
     confusion matrix;
  2. inspect the transition matrix parameterization used to model that noise;
  3. train the same small network once with plain cross-entropy and once with
     the corrected loss on a noisy mixture, and compare accuracy on the
     *clean* labels, plus how close the learned transition matrix lands to
     the true flip matrix.

Run:  python3 demos/02_label_noise_and_correction.py
"""

import numpy as np

from noodle.datagen import NoiseSpec, inject_symmetric_noise, make_gaussian_mixture
from noodle.losses import init_near_identity
from noodle.model import forward
from noodle.trainer import TrainConfig, train

K = 5
RATE = 0.4


def print_matrix(label, m):
    print(label)
    for row in m:
        print("   " + " ".join(f"{v:.3f}" for v in row))


def main():
    rng = np.random.default_rng(0)

    # Act 1: what 40% symmetric noise actually looks like.
    labels = rng.integers(0, K, size=20_000)
    noisy = inject_symmetric_noise(labels, NoiseSpec("symmetric", RATE), K, rng)
    print(f"requested flip rate {RATE}, realized {np.mean(noisy != labels):.4f}")
    empirical = np.zeros((K, K))
    for y, z in zip(labels, noisy):
        empirical[y, z] += 1
    empirical /= empirical.sum(axis=1, keepdims=True)
    print_matrix("empirical row-normalized confusion matrix:", empirical)
    true_t = np.full((K, K), RATE / (K - 1))
    np.fill_diagonal(true_t, 1 - RATE)
    print()

    # Act 2: the model's parameterization of the same object.
    print_matrix(
        "transition matrix initialized at diagonal mass 0.65:",
        init_near_identity(K, 0.65).realized(),
    )
    print("(rows stay on the simplex under any gradient update; the diagonal")
    print(" mass is a config knob, t_diag_init)")
    print()

    # Act 3: corrected vs plain training on a noisy mixture.
    data = make_gaussian_mixture(K, 120, 12, 6.0, 1.0, np.random.default_rng(1))
    data.noisy_labels = inject_symmetric_noise(
        data.clean_labels, NoiseSpec("symmetric", RATE), K, np.random.default_rng(2)
    )
    base = TrainConfig(epochs=60, widths=(48, 24, 12), t_diag_init=0.65, seed=0)
    for kind, lam in (("ce", 0.0), ("cm", 0.001)):
        config = TrainConfig.from_dict({**base.to_dict(), "loss_kind": kind, "lambda": lam})
        result = train(data, config)
        probs = forward(result.params, data.features).probs
        clean_acc = float((probs.argmax(axis=0) == data.clean_labels).mean())
        noisy_acc = float((probs.argmax(axis=0) == data.noisy_labels).mean())
        print(f"{kind}: accuracy vs clean labels {clean_acc:.3f}, vs noisy labels {noisy_acc:.3f}")
        if kind == "cm":
            learned = result.transition.realized()
            print_matrix("learned transition matrix:", learned)
            print(f"max entry error vs the true flip matrix: "
                  f"{np.abs(learned - true_t).max():.3f}")
    print()
    print("plain CE chases the corrupted labels toward memorization; the")
    print("corrected loss explains them through T and keeps fitting the truth")


if __name__ == "__main__":
    main()
