"""Elastic factorized layers.

A layer stores one factor triple ``linalg.Factors(u, core, v)`` (a
truncated SVD for dense layers, a channel Tucker-2 fit for conv kernels)
and can then be evaluated without refitting at any operating point
(k, q): a rank k from 1 to the stored rank k_max, and q either None
(float factors) or one bit width that quantizes all three factor slices.
This module is the one place that knows what a layer at rank k stores
(_rank_slices) and runs: served_flops counts both forward paths, the
staged factor slices and the rebuilt weight, and runs_staged picks the
cheaper one for network.forward and the cost model alike. The bit map
ties a width to rank.

ElasticLayer trusts its caller: manifest decoding checks every layer rule,
and decompose and train build their own layers.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from . import quant

DENSE_SVD = "dense_svd"
CONV_TUCKER2 = "conv_tucker2"


@dataclass(frozen=True)
class ElasticLayer:
    """Immutable factorized layer snapshot.

    kind selects the factor form; k_max, the stored rank, is the largest
    rank the planner can pick for the layer (for a conv layer, the larger
    of its two channel ranks); bias vectors ride along as float64.
    """

    kind: str
    factors: linalg.Factors
    bias: np.ndarray | None = None
    # a field set once, not a property: every served layer reads it
    k_max: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "k_max",
                           int(max(self.factors.core.shape[:2])))
        if self.bias is not None:
            object.__setattr__(self, "bias",
                               np.asarray(self.bias, dtype=np.float64))

    @property
    def out_features(self):
        return int(self.factors.u.shape[0])

    @property
    def in_features(self):
        return int(self.factors.v.shape[0])


def from_dense(w, bias=None):
    """Factorize a dense weight matrix into an elastic SVD layer."""
    return ElasticLayer(DENSE_SVD, linalg.svd_full(w), bias)


def from_conv(w4, bias=None):
    """Factorize a conv kernel (c_out, c_in, h, w) into a Tucker-2 layer.

    Each channel rank is clamped to the rank of its unfolding, so a layer
    such as a 1x1 bottleneck stores no more components than exist.
    """
    w4 = np.asarray(w4, dtype=np.float64)
    c_out, c_in, kh, kw = (int(d) for d in w4.shape)
    f = linalg.tucker2_fit(w4, min(c_out, c_in * kh * kw),
                           min(c_in, c_out * kh * kw))
    return ElasticLayer(CONV_TUCKER2, f, bias)


def _check_k(layer, k):
    k = int(k)
    if not 1 <= k <= layer.k_max:
        raise ValueError(f"k={k} outside [1, {layer.k_max}]")
    return k


def conv_rank_schedule(layer, k):
    """Map the shared rank index k to (r_out, r_in) channel ranks.

    Proportional: r_out = ceil(k * c_out / k_max), likewise for r_in, each
    clamped to the stored factor rank. Monotone in k, and k = k_max always
    reaches the full stored ranks.
    """
    k = _check_k(layer, k)
    f = layer.factors
    c_out, c_in = f.u.shape[0], f.v.shape[0]
    r_o = min(f.core.shape[0], -(-k * c_out // layer.k_max))
    r_i = min(f.core.shape[1], -(-k * c_in // layer.k_max))
    return int(r_o), int(r_i)


def _round_trip(t, bits):
    return t if bits is None else quant.round_trip(t, int(bits))


def _rank_slices(layer, k):
    """Unquantized rank-k (u, core, v) factor slices; conv layers take the
    channel ranks of conv_rank_schedule."""
    f = layer.factors
    if layer.kind == CONV_TUCKER2:
        r_o, r_i = conv_rank_schedule(layer, k)
        return f.u[:, :r_o], f.core[:r_o, :r_i], f.v[:, :r_i]
    k = _check_k(layer, k)
    return f.u[:, :k], f.core[:k], f.v[:, :k]


def _served_slices(layer, k, q=None):
    """Rank-k (u, core, v) factor slices as served: each one through the
    quantizer round trip at width q, unchanged where q is None."""
    u, core, v = _rank_slices(layer, k)
    return _round_trip(u, q), _round_trip(core, q), _round_trip(v, q)


def served_flops(layer, k):
    """FLOPs per output position (a dense row or a conv pixel) of the two
    forward paths of a layer at rank k, as (staged, rebuilt).

    One multiply-add is 2 FLOPs and a diagonal scaling 1 per element.
    Dense (m x n): staged ((x @ v) * core) @ u.T costs k (2m + 2n + 1)
    against 2mn for the rebuilt matvec. Conv: a 1x1 reduce with v, the
    spatial conv with the (r_o, r_i, kh, kw) core and a 1x1 expand with u
    cost 2 (c_i r_i + r_o r_i kh kw + c_o r_o) against 2 c_o c_i kh kw.
    Computed from shapes alone, without slicing a factor.
    """
    f = layer.factors
    m, n = f.u.shape[0], f.v.shape[0]
    if layer.kind == DENSE_SVD:
        k = _check_k(layer, k)
        return k * (2 * m + 2 * n + 1), 2 * m * n
    r_o, r_i = conv_rank_schedule(layer, k)
    taps = f.core.shape[2] * f.core.shape[3]
    return 2 * (n * r_i + r_o * r_i * taps + m * r_o), 2 * m * n * taps


def runs_staged(layer, k):
    """True when network.forward runs the layer at rank k staged through
    its factor slices, because served_flops counts fewer FLOPs there than
    through the rebuilt weight; otherwise the rebuilt weight runs. A dense
    rank near min(m, n) never wins, so the full profile keeps the rebuilt
    weight."""
    staged, rebuilt = served_flops(layer, k)
    return staged < rebuilt


def effective_weight(layer, k, q=None):
    """Reconstruction at rank k, optionally through quantized factors.

    q is None (exact) or one width applied to each rank-k factor slice;
    k = k_max with q None reproduces the full weight.
    A conv kernel is rebuilt with two matrix products.
    """
    u, core, v = _served_slices(layer, k, q)
    if layer.kind != CONV_TUCKER2:
        return (u * core) @ v.T
    r_o, r_i, kh, kw = core.shape
    # (c_o, r_i, kh*kw) contracted with v over r_i -> (c_o, c_i, kh*kw)
    t = (u @ core.reshape(r_o, -1)).reshape(u.shape[0], r_i, kh * kw)
    return np.matmul(v, t).reshape(u.shape[0], v.shape[0], kh, kw)


def _spectrum_trustworthy(layer, tol=1e-10):
    """True when the stored factors form a genuine SVD: orthonormal factor
    columns and a non-negative, non-increasing spectrum. Gradient updates
    break this between re-orthogonalizations, at which point core entries
    stop being the residual's singular values."""
    f = layer.factors
    s = f.core
    if s.size and (float(s.min()) < 0.0 or np.any(s[1:] > s[:-1])):
        return False
    for a in (f.u, f.v):
        gram = a.T @ a
        if not np.allclose(gram, np.eye(a.shape[1]), rtol=0.0, atol=tol):
            return False
    return True


def residual_norm(layer, k, q=None):
    """Upper bound on the spectral norm of (full reconstruction - rank-k
    reconstruction) of a dense layer.

    Without quantization a layer whose stored factors still form a
    genuine SVD answers from its spectrum: the first discarded singular
    value times 1 + ``linalg._NORM_SLACK``, the slack of
    ``linalg.spectral_norm``, because LAPACK's norm of the materialized
    residual can exceed that singular value by a few ulps. Quantized
    factors, or factors perturbed away from orthonormality by training,
    materialize the residual and take its ``linalg.spectral_norm``.
    Dense layers only: the norm of a kernel's unfolding does not bound
    the operator norm of its convolution, which ``network.weight_gain``
    bounds instead.
    """
    k = _check_k(layer, k)
    if q is None and k == layer.k_max:
        return 0.0
    if q is None and _spectrum_trustworthy(layer):
        return float(layer.factors.core[k]) * (1.0 + linalg._NORM_SLACK)
    return linalg.spectral_norm(effective_weight(layer, layer.k_max)
                                - effective_weight(layer, k, q))


# ---------------------------------------------------------------------------
# rank-tied bit widths


@dataclass(frozen=True)
class BitMap:
    """Monotone rank-to-bits map: min(q_max, floor(a * ln k + b)),
    clamped below at 2. a >= 0 keeps the map non-decreasing in k."""

    a: float
    b: float
    q_max: int

    def __post_init__(self):
        if not float(self.a) >= 0.0:
            raise ValueError("slope a must be >= 0 to keep bits monotone")
        if int(self.q_max) < 2:
            raise ValueError("q_max must be >= 2")


def base_bits(bm, k):
    """Width at rank k: min(q_max, floor(a * ln k + b)), at least 2."""
    if int(k) < 1:
        raise ValueError("rank index must be >= 1")
    q = math.floor(float(bm.a) * math.log(int(k)) + float(bm.b))
    return int(min(int(bm.q_max), max(2, q)))
