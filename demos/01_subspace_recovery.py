"""How well does randomized power iteration recover a dominant subspace?

Builds a 16x64 matrix with a controlled spectral gap, runs the iteration at
increasing sweep counts, and compares the recovered basis against the exact
SVD, measured by the largest principal angle.  Then repeats the exercise on a
matrix with no gap at all to show where the method (correctly) struggles.

Run:  python3 demos/01_subspace_recovery.py
"""

import numpy as np

from noodle.linalg import approx_topk_singular_vectors

RANK = 4


def gapped_matrix(rows, cols, k, gap, rng):
    """Random matrix whose top-k singular values sit a factor `gap` above the rest."""
    tail = np.sort(rng.uniform(0.05, 1.0, size=rows - k))[::-1]
    head = np.sort(rng.uniform(gap * tail[0], 3 * gap * tail[0], size=k))[::-1]
    spectrum = np.concatenate([head, tail])
    u = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, rows)))[0]
    return u * spectrum @ v.T


def largest_principal_angle(a, b):
    overlap = np.linalg.svd(a.T @ b, compute_uv=False)
    return float(np.arccos(np.clip(overlap.min(), -1.0, 1.0)))


def exact_basis(h, k):
    return np.linalg.svd(h, full_matrices=False)[0][:, :k]


def main():
    rng = np.random.default_rng(0)
    h = gapped_matrix(16, 64, RANK, gap=2.0, rng=rng)
    s = np.linalg.svd(h, compute_uv=False)
    print(f"matrix 16x64, target rank {RANK}")
    print(f"spectral gap: s[{RANK - 1}]={s[RANK - 1]:.3f} vs s[{RANK}]={s[RANK]:.3f} "
          f"(ratio {s[RANK - 1] / s[RANK]:.2f})")
    print()

    truth = exact_basis(h, RANK)
    print("sweeps  largest principal angle vs exact SVD")
    for n_iter in (1, 2, 5, 10, 20):
        basis = approx_topk_singular_vectors(h, RANK, n_iter, np.random.default_rng(1))
        angle = largest_principal_angle(truth, basis)
        print(f"{n_iter:6d}  {angle:.3e} rad")
    print()

    # No gap: a flat spectrum gives the iteration nothing to latch onto.
    u = np.linalg.qr(rng.standard_normal((16, 16)))[0]
    v = np.linalg.qr(rng.standard_normal((64, 16)))[0]
    flat = u * rng.uniform(0.9, 1.0, size=16) @ v.T
    truth_flat = exact_basis(flat, RANK)
    basis_flat = approx_topk_singular_vectors(flat, RANK, 20, np.random.default_rng(1))
    print(f"same run on a near-flat spectrum: angle "
          f"{largest_principal_angle(truth_flat, basis_flat):.3e} rad "
          f"(with no gap the top-{RANK} subspace is barely defined)")
    print()

    # Projecting out the recovered basis leaves only tail energy behind.
    q = approx_topk_singular_vectors(h, RANK, 20, np.random.default_rng(2))
    optimal = float(np.sqrt((s[RANK:] ** 2).sum()))
    print(f"residual after projecting out the recovered subspace: "
          f"{np.linalg.norm(h - q @ (q.T @ h)):.6f}")
    print(f"optimal rank-{RANK} residual from the SVD:            {optimal:.6f}")


if __name__ == "__main__":
    main()
