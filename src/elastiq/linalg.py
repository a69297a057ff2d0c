"""Dense factorization kernels.

Thin SVD and spectral norms from LAPACK (``np.linalg.svd`` and
``np.linalg.norm(w, 2)``), Tucker-2 fitting for conv kernels (HOSVD init +
alternating updates) and CP fitting for matrices (alternating least
squares). The SVD has a fixed sign convention and every spectral norm
carries one relative slack that makes it an upper bound, so certificates
built on these norms never rest on an estimate approaching from below.
Everything is float64 and deterministic at a fixed BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# LAPACK computes the largest singular value to a relative rounding error of
# about max(m, n) * eps, below this slack for any dimension under 4e7, so
# spectral_norm is an upper bound by contract. It is the only norm slack:
# every operator norm entering a certificate is a spectral_norm or a sum
# of them.
_NORM_SLACK = 1e-8

__all__ = [
    "SvdFactors",
    "Tucker2Factors",
    "CpFactors",
    "svd_full",
    "spectral_norm",
    "tucker2_fit",
    "cp_fit",
]


def _as_matrix(w, name="w"):
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {w.shape}")
    if w.shape[0] == 0 or w.shape[1] == 0:
        raise ValueError(f"{name} must be non-empty, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{name} contains non-finite entries")
    return w


def _as_tensor4(w, name="w"):
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 4:
        raise ValueError(f"{name} must be 4-D (c_out, c_in, h, w), got shape {w.shape}")
    if min(w.shape) == 0:
        raise ValueError(f"{name} must be non-empty, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{name} contains non-finite entries")
    return w


@dataclass
class SvdFactors:
    """Full-rank SVD of a weight matrix: w = u @ diag(sigma) @ v.T.

    u is (m, r), sigma is (r,) non-negative descending, v is (n, r),
    with r = min(m, n). Columns of u and v are orthonormal.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def rank_cap(self):
        return self.sigma.shape[0]


@dataclass
class Tucker2Factors:
    """Channel-mode Tucker decomposition of a conv kernel.

    kernel ~= einsum('rshw,or,is->oihw', core, u_out, u_in)
    u_out is (c_out, r_out), u_in is (c_in, r_in), both orthonormal columns;
    core is (r_out, r_in, h, w).
    """

    u_out: np.ndarray
    core: np.ndarray
    u_in: np.ndarray


@dataclass
class CpFactors:
    """Rank-r CP form of a matrix: w ~= a1 @ diag(weights) @ a2.T.

    Factor columns are unit-norm; weights are non-negative and sorted
    descending (stable tie-break on column index).
    """

    weights: np.ndarray
    a1: np.ndarray
    a2: np.ndarray


def svd_full(w):
    """Thin SVD of a matrix by LAPACK, with a fixed sign convention.

    Parameters
    ----------
    w : (m, n) array
        Finite, non-empty weight matrix.

    Returns
    -------
    SvdFactors
        Orthonormal u (m, r) and v (n, r), sigma (r,) descending,
        r = min(m, n), with w ~= u @ diag(sigma) @ v.T to close to
        machine precision. Each singular pair is fixed only up to a joint
        sign flip, so the largest-magnitude entry of every u column is
        made positive (the first such entry on ties) and v follows.
    """
    w = _as_matrix(w)
    u, sigma, vt = np.linalg.svd(w, full_matrices=False)
    pivots = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    signs = np.where(pivots < 0.0, -1.0, 1.0)
    return SvdFactors(u=np.ascontiguousarray(u * signs), sigma=sigma,
                      v=np.ascontiguousarray(vt.T * signs))


def spectral_norm(w):
    """Upper bound on the largest singular value of a matrix.

    LAPACK's value inflated by _NORM_SLACK; 0.0 for the zero matrix.
    """
    w = _as_matrix(w)
    return float(np.linalg.norm(w, 2) * (1.0 + _NORM_SLACK))


def _top_left_singulars(mat, r):
    """Leading r left singular vectors of mat."""
    return svd_full(mat).u[:, :r]


def tucker2_fit(w4, r_out, r_in, sweeps=3):
    """Fit a channel-mode Tucker decomposition to a conv kernel.

    HOSVD initialization (leading singular vectors of the two channel-mode
    unfoldings) followed by `sweeps` rounds of alternating updates, each of
    which cannot increase the Frobenius fitting error. The spatial modes
    (h, w) are kept intact.

    Parameters
    ----------
    w4 : (c_out, c_in, h, w) array
    r_out, r_in : int
        Channel ranks, 1 <= r_out <= min(c_out, r_in*h*w) and
        1 <= r_in <= min(c_in, r_out*h*w).
    sweeps : int
        Alternating refinement rounds after initialization.
    """
    w4 = _as_tensor4(w4)
    c_out, c_in, kh, kw = w4.shape
    # a channel unfolding has rank at most the other channel rank times
    # the spatial size, so no more singular vectors than that exist
    if not (1 <= r_out <= min(c_out, r_in * kh * kw)
            and 1 <= r_in <= min(c_in, r_out * kh * kw)):
        raise ValueError(
            f"ranks ({r_out}, {r_in}) out of range for kernel {w4.shape}"
        )
    if sweeps < 0:
        raise ValueError("sweeps must be >= 0")
    unfold_out = w4.reshape(c_out, -1)
    unfold_in = np.transpose(w4, (1, 0, 2, 3)).reshape(c_in, -1)
    u_out = _top_left_singulars(unfold_out, r_out)
    u_in = _top_left_singulars(unfold_in, r_in)
    for _ in range(sweeps):
        contracted = np.einsum("oihw,is->oshw", w4, u_in)
        u_out = _top_left_singulars(contracted.reshape(c_out, -1), r_out)
        contracted = np.einsum("oihw,or->rihw", w4, u_out)
        u_in = _top_left_singulars(
            np.transpose(contracted, (1, 0, 2, 3)).reshape(c_in, -1), r_in
        )
    core = np.einsum("oihw,or,is->rshw", w4, u_out, u_in)
    return Tucker2Factors(u_out=u_out, core=core, u_in=u_in)


def cp_fit(w, r, sweeps=5):
    """Rank-r CP fit of a matrix by alternating least squares.

    Initialized from the leading r singular triplets, then refined; the
    Frobenius error is non-increasing over sweeps. Returned factor columns
    are unit-norm with the magnitudes absorbed into `weights`, sorted
    descending with a stable tie-break on column index.
    """
    w = _as_matrix(w)
    d1, d2 = w.shape
    if not (1 <= r <= min(d1, d2)):
        raise ValueError(f"rank {r} out of range for matrix {w.shape}")
    if sweeps < 0:
        raise ValueError("sweeps must be >= 0")
    f = svd_full(w)
    a = f.u[:, :r] * f.sigma[:r]
    b = f.v[:, :r]
    for _ in range(sweeps):
        # fixed b: minimize ||w - a b^T||_F over a
        a = np.linalg.lstsq(b, w.T, rcond=None)[0].T
        b = np.linalg.lstsq(a, w, rcond=None)[0].T
    na = np.linalg.norm(a, axis=0)
    nb = np.linalg.norm(b, axis=0)
    weights = na * nb
    a1 = np.array(a)
    a2 = np.array(b)
    for j in range(r):
        if na[j] > 0:
            a1[:, j] /= na[j]
        else:
            a1[:, j] = 0.0
            a1[min(j, d1 - 1), j] = 1.0
        if nb[j] > 0:
            a2[:, j] /= nb[j]
        else:
            a2[:, j] = 0.0
            a2[min(j, d2 - 1), j] = 1.0
    order = np.argsort(-weights, kind="stable")
    return CpFactors(weights=weights[order], a1=a1[:, order], a2=a2[:, order])
