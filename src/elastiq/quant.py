"""Symmetric uniform quantizers with calibration and STE gradients.

Integer grid for q bits is {-(2^(q-1)-1), ..., 2^(q-1)-1} (zero-point fixed
at 0; the most negative two's-complement code is unused). Scales come from
max-range or percentile calibration, per tensor or per channel. Nearest
rounding breaks .5 ties to even; stochastic rounding is unbiased and fully
seeded. The straight-through gradient passes upstream through in-range
entries and accumulates the quoted residual term into the log-scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "QuantSpec",
    "QuantizedFactor",
    "grid_limit",
    "calibrate_scale",
    "quantize",
    "dequantize",
    "ste_gradient",
]

PER_TENSOR = "per_tensor"
PER_CHANNEL = "per_channel"
NEAREST = "nearest"
STOCHASTIC = "stochastic"


def grid_limit(bits):
    """Largest code magnitude for a symmetric q-bit grid."""
    if not isinstance(bits, (int, np.integer)) or bits < 2:
        raise ValueError(f"bits must be an integer >= 2, got {bits!r}")
    return 2 ** (int(bits) - 1) - 1


@dataclass(frozen=True)
class QuantSpec:
    """Quantizer configuration; scales is None until calibrated.

    clip_percentile None means max-range calibration; otherwise the p-th
    percentile of |T| replaces the max (p in (0, 100]).
    """

    bits: int
    granularity: str = PER_TENSOR
    channel_axis: int = 0
    rounding: str = NEAREST
    seed: int = 0
    clip_percentile: float | None = None
    scales: tuple | None = None

    def __post_init__(self):
        grid_limit(self.bits)
        if self.granularity not in (PER_TENSOR, PER_CHANNEL):
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if self.rounding not in (NEAREST, STOCHASTIC):
            raise ValueError(f"unknown rounding {self.rounding!r}")
        if self.clip_percentile is not None:
            p = float(self.clip_percentile)
            if not (0.0 < p <= 100.0):
                raise ValueError("clip_percentile must lie in (0, 100]")
        if self.scales is not None:
            if any(not np.isfinite(s) or s <= 0 for s in self.scales):
                raise ValueError("scales must be positive and finite")

    @property
    def calibrated(self):
        return self.scales is not None


@dataclass(frozen=True)
class QuantizedFactor:
    """Integer codes plus the calibrated spec that produced them."""

    codes: np.ndarray
    spec: QuantSpec

    def __post_init__(self):
        g = grid_limit(self.spec.bits)
        if np.any(np.abs(self.codes) > g):
            raise ValueError("codes outside the symmetric grid")

    @property
    def shape(self):
        return self.codes.shape


def _check_tensor(t):
    t = np.asarray(t, dtype=np.float64)
    if t.size == 0:
        raise ValueError("tensor must be non-empty")
    if not np.all(np.isfinite(t)):
        raise ValueError("tensor contains non-finite entries")
    return t


def _scale_view(spec, t):
    """Scales broadcast to t's shape (scalar for per-tensor)."""
    s = np.asarray(spec.scales, dtype=np.float64)
    if spec.granularity == PER_TENSOR:
        return s[0]
    ax = spec.channel_axis
    if not (0 <= ax < t.ndim):
        raise ValueError(f"channel_axis {ax} invalid for rank-{t.ndim} tensor")
    if s.shape[0] != t.shape[ax]:
        raise ValueError("scale count does not match channel count")
    shape = [1] * t.ndim
    shape[ax] = s.shape[0]
    return s.reshape(shape)


def calibrate_scale(t, spec):
    """Fill in scales: s = ref(|T|) / (2^(q-1) - 1), per tensor or channel.

    ref is the max, or the clip_percentile-th percentile when the spec asks
    for percentile clipping. An all-zero tensor (or channel slice) gets
    scale 1 so division stays defined.
    """
    t = _check_tensor(t)
    g = grid_limit(spec.bits)
    mag = np.abs(t)
    if spec.granularity == PER_TENSOR:
        if spec.clip_percentile is None:
            ref = np.max(mag)
        else:
            ref = np.percentile(mag, spec.clip_percentile)
        refs = np.array([ref])
    else:
        ax = spec.channel_axis
        if not (0 <= ax < t.ndim):
            raise ValueError(f"channel_axis {ax} invalid for rank-{t.ndim} tensor")
        moved = np.moveaxis(mag, ax, 0).reshape(t.shape[ax], -1)
        if spec.clip_percentile is None:
            refs = np.max(moved, axis=1)
        else:
            refs = np.percentile(moved, spec.clip_percentile, axis=1)
    scales = refs / g
    scales[scales == 0.0] = 1.0
    return replace(spec, scales=tuple(float(s) for s in scales))


def quantize(t, spec):
    """Codes = clip(round(T/s), -g, g) on the symmetric grid.

    Nearest rounding uses round-half-to-even. Stochastic rounding draws all
    randomness from spec.seed (bit-exact across calls) and rounds each entry
    up with probability equal to its fractional part, before clipping.
    """
    t = _check_tensor(t)
    if not spec.calibrated:
        raise ValueError("spec has no scales; call calibrate_scale first")
    g = grid_limit(spec.bits)
    ratio = t / _scale_view(spec, t)
    if spec.rounding == NEAREST:
        codes = np.rint(ratio)
    else:
        rng = np.random.Generator(np.random.PCG64(spec.seed))
        lo = np.floor(ratio)
        frac = ratio - lo
        codes = lo + (rng.random(ratio.shape) < frac)
    codes = np.clip(codes, -g, g).astype(np.int64)
    return QuantizedFactor(codes=codes, spec=spec)


def dequantize(qf):
    """Back to values: s * code per element (slice scale for per-channel)."""
    t = qf.codes.astype(np.float64)
    return t * _scale_view(qf.spec, t)


def quantize_dequantize(t, spec):
    """Convenience: quantize then dequantize in one call."""
    return dequantize(quantize(t, spec))


def ste_gradient(upstream, t, spec):
    """Straight-through gradients of the dequantized output.

    Returns (grad_t, grad_log_scale). grad_t passes upstream through
    entries whose nearest code lies inside the grid and zeroes the rest.
    grad_log_scale accumulates s * upstream * (round(T/s) - T/s) over
    in-range entries, one sum per scale element; out-of-range entries
    contribute nothing to either gradient.
    """
    t = _check_tensor(t)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != t.shape:
        raise ValueError("upstream and t shapes differ")
    if not spec.calibrated:
        raise ValueError("spec has no scales; call calibrate_scale first")
    g = grid_limit(spec.bits)
    s = _scale_view(spec, t)
    ratio = t / s
    code = np.rint(ratio)
    in_range = np.abs(code) <= g
    grad_t = upstream * in_range
    per_elem = s * upstream * (code - ratio) * in_range
    if spec.granularity == PER_TENSOR:
        grad_log_scale = np.array([np.sum(per_elem)])
    else:
        ax = spec.channel_axis
        axes = tuple(i for i in range(t.ndim) if i != ax)
        grad_log_scale = np.sum(per_elem, axis=axes)
    return grad_t, grad_log_scale
