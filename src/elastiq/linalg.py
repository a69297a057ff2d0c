"""Dense factorization kernels.

Thin SVD and spectral norms from LAPACK (``np.linalg.svd`` and
``np.linalg.norm(w, 2)``) and Tucker-2 fitting for conv kernels (HOSVD
init + alternating updates). Both return the one factor triple
``Factors(u, core, v)``: the output-side factor, the core (the spectrum
of an SVD, the 4-axis core of a Tucker-2 fit) and the input-side factor.
The SVD has a fixed sign convention and every spectral norm carries one
relative slack that makes it an upper bound, so certificates built on
these norms never rest on an estimate approaching from below.
Everything is float64 and deterministic at a fixed BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# LAPACK computes the largest singular value to a relative rounding error of
# about max(m, n) * eps, below this slack for any dimension under 4e7, so
# spectral_norm is an upper bound by contract. It is the only norm slack:
# every operator norm entering a certificate is a spectral_norm, a sum of
# LAPACK norms (network.weight_gain's conv taps) or elastic.residual_norm's
# singular-value shortcut, each inflated by the same factor.
_NORM_SLACK = 1e-8

__all__ = [
    "Factors",
    "svd_full",
    "spectral_norm",
    "tucker2_fit",
]


@dataclass
class Factors:
    """A factorized weight: output-side u, core, input-side v.

    SVD of an (m, n) matrix: u is (m, r), core is the (r,) non-negative
    descending spectrum, v is (n, r), r = min(m, n), and
    w = u @ diag(core) @ v.T.
    Tucker-2 of a (c_out, c_in, h, w) kernel: u is (c_out, r_out), v is
    (c_in, r_in), core is (r_out, r_in, h, w), and
    kernel ~= einsum('rshw,or,is->oihw', core, u, v).
    Columns of u and v are orthonormal.
    """

    u: np.ndarray
    core: np.ndarray
    v: np.ndarray


def svd_full(w):
    """Thin SVD of a matrix by LAPACK, with a fixed sign convention.

    Parameters
    ----------
    w : (m, n) array
        Finite, non-empty weight matrix.

    Returns
    -------
    Factors
        Orthonormal u (m, r) and v (n, r), core (r,) descending,
        r = min(m, n), with w ~= u @ diag(core) @ v.T to close to
        machine precision. Each singular pair is fixed only up to a joint
        sign flip, so the largest-magnitude entry of every u column is
        made positive (the first such entry on ties) and v follows.
    """
    u, sigma, vt = np.linalg.svd(w, full_matrices=False)
    pivots = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    signs = np.where(pivots < 0.0, -1.0, 1.0)
    return Factors(u=np.ascontiguousarray(u * signs), core=sigma,
                   v=np.ascontiguousarray(vt.T * signs))


def spectral_norm(w):
    """Upper bound on the largest singular value of a matrix.

    LAPACK's value inflated by _NORM_SLACK; 0.0 for the zero matrix.
    """
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
        Finite, non-empty float64 kernel.
    r_out, r_in : int
        Channel ranks, which the caller keeps to 1 <= r_out <=
        min(c_out, r_in*h*w) and 1 <= r_in <= min(c_in, r_out*h*w): a
        channel unfolding has rank at most the other channel rank times
        the spatial size, so no more singular vectors than that exist.
    sweeps : int
        Alternating refinement rounds after initialization, >= 0.
    """
    c_out, c_in, kh, kw = w4.shape
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
    return Factors(u=u_out, core=core, v=u_in)
