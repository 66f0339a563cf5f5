"""Dense linear algebra kernels for the feature decomposition.

Everything here operates on float64 ``numpy`` arrays in the features-first
orientation: a batch of latent vectors is a ``(dim, n_samples)`` matrix whose
columns are samples.  The only nontrivial kernel is
:func:`approx_topk_singular_vectors`, a randomized power iteration that
recovers an orthonormal basis for the dominant left singular subspace without
forming a full SVD.  Its thin QR calls LAPACK through
``numpy.linalg.lapack_lite``, so the package needs NumPy alone.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.linalg.lapack_lite import dgeqrf, dorgqr

# Columns whose QR pivot falls below this magnitude are treated as numerically
# dependent and replaced with fresh random directions.
DEFICIENT_PIVOT_TOL = 1e-12


@lru_cache(maxsize=64)
def _qr_plan(d: int, k: int) -> int:
    """Workspace length for a ``(d, k)`` :func:`qr_thin`: the larger of the
    optimal workspaces that ``dgeqrf`` and ``dorgqr`` report.

    The workspace picks LAPACK's block size, and above 128 columns the
    blocking changes the rounding.  A workspace no shorter than each
    routine's optimum gives each the block size ``np.linalg.qr`` runs it
    with, which keeps :func:`qr_thin` bit-identical to it on every shape.
    """
    packed, tau, work = np.empty((k, d)), np.empty(k), np.empty(1)
    info = dgeqrf(d, k, packed, d, tau, work, -1, 0)["info"]
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeqrf workspace query failed with info={info}")
    geqrf_work = work[0]
    info = dorgqr(d, k, k, packed, d, tau, work, -1, 0)["info"]
    if info != 0:
        raise np.linalg.LinAlgError(f"dorgqr workspace query failed with info={info}")
    return int(max(geqrf_work, work[0]))


def qr_thin(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal factor of a thin QR factorization, and its pivots.

    Parameters
    ----------
    a : (d, k) ndarray with ``k <= d``.  It is never written to.

    Returns
    -------
    q : (d, k) C-ordered ndarray with orthonormal columns.
    pivots : (k,) ndarray ``|diag R|``; ``R`` itself is never formed.  A
        pivot near zero flags a column that depends on the ones before it.

    Raises
    ------
    ValueError
        If ``a`` is not 2-D or has more columns than rows.
    numpy.linalg.LinAlgError
        If LAPACK reports an error.

    Notes
    -----
    The factorization is LAPACK's Householder QR (``dgeqrf`` then
    ``dorgqr``) with the optimal workspace, from NumPy's own LAPACK: the
    same library and calls ``np.linalg.qr(a, mode="reduced")`` makes, so
    the result equals that one, sign-normalized to ``diag R >= 0``, bit for
    bit.  For rank-deficient input the columns of ``q`` spanning the null
    directions are an arbitrary orthonormal completion; callers that need
    reproducible bases in that regime must repair them (see
    :func:`approx_topk_singular_vectors`).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"qr_thin expects a 2-D array, got {a.ndim}-D")
    d, k = a.shape
    if k > d:
        raise ValueError(f"qr_thin needs at least as many rows as columns, got {a.shape}")
    if k == 0:
        return np.empty((d, 0)), np.empty(0)
    lwork = _qr_plan(d, k)
    # lapack_lite takes C-contiguous arrays and checks no size, so every
    # buffer is sized here.  The C-ordered (k, d) copy of a.T is LAPACK's
    # column-major (d, k) a, factored in place.
    packed, tau, work = a.T.copy(), np.empty(k), np.empty(lwork)
    info = dgeqrf(d, k, packed, d, tau, work, lwork, 0)["info"]
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeqrf failed with info={info}")
    # Read R's diagonal before dorgqr overwrites it.  diag < |diag| holds
    # exactly where diag < 0 (not at -0.0 or NaN) and, unlike a comparison
    # with the scalar 0.0, costs no scalar conversion on this hot path.
    diagonal = packed.diagonal()
    pivots = np.abs(diagonal)
    flip = np.less(diagonal, pivots)[:, None]
    info = dorgqr(d, k, k, packed, d, tau, work, lwork, 0)["info"]
    if info != 0:
        raise np.linalg.LinAlgError(f"dorgqr failed with info={info}")
    # Row j of packed is column j of Q.
    np.negative(packed, out=packed, where=flip)
    return packed.T.copy(), pivots


def _fill_deficient_columns(q: np.ndarray, deficient: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Replace flagged columns of ``q`` with random directions orthonormal to the rest."""
    q = q.copy()
    d = q.shape[0]
    for j in np.flatnonzero(deficient):
        others = np.delete(q, j, axis=1)
        while True:
            v = rng.standard_normal(d)
            # Re-orthogonalize twice; a single pass can leave O(eps*kappa) residue.
            for _ in range(2):
                v -= others @ (others.T @ v)
            norm = np.linalg.norm(v)
            if norm > 1e-6:
                break
        q[:, j] = v / norm
    return q


def _orthonormalize(a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal basis of ``a``'s columns, with numerically dependent
    columns replaced by random directions orthonormal to the rest."""
    q, pivots = qr_thin(a)
    deficient = pivots < DEFICIENT_PIVOT_TOL
    # np.count_nonzero tests this tiny array in one C call, without the
    # Python-level wrapper of ndarray.any.
    if np.count_nonzero(deficient):
        q = _fill_deficient_columns(q, deficient, rng)
    return q


def approx_topk_singular_vectors(
    h: np.ndarray, k: int, n_iter: int, rng: np.random.Generator
) -> np.ndarray:
    """Approximate the top-k left singular subspace of ``h`` by power iteration.

    Starting from a random orthonormal ``(d, k)`` block ``Q``, repeats

        ``Z = h @ (h.T @ Q)``;  ``Q, _ = qr_thin(Z)``

    ``n_iter`` times.  The iteration never forms ``h @ h.T``, so the cost per
    sweep is ``O(d * n * k)``.  Convergence to the dominant subspace is
    geometric in the singular value gap ``(sigma_{k+1} / sigma_k) ** 2``.

    Parameters
    ----------
    h : (d, n) ndarray
        Feature matrix, one sample per column.
    k : int
        Subspace dimension, ``1 <= k <= min(d, n)``.
    n_iter : int
        Number of power sweeps, at least 1.
    rng : numpy Generator
        Source for the starting block and for any rank-deficiency repairs;
        fixing it makes the output deterministic.

    Returns
    -------
    (d, k) ndarray with orthonormal columns.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got {h.ndim}-D")
    d, n = h.shape
    if not 1 <= k <= min(d, n):
        raise ValueError(f"rank k={k} outside [1, min{h.shape}]")
    if n_iter < 1:
        raise ValueError(f"n_iter must be >= 1, got {n_iter}")

    q = _orthonormalize(rng.standard_normal((d, k)), rng)
    for _ in range(n_iter):
        z = h @ (h.T @ q)
        if np.count_nonzero(z) == 0:
            # h is numerically zero; any orthonormal basis is a valid answer.
            break
        q = _orthonormalize(z, rng)
    return q

