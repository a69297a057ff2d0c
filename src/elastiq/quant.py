"""Symmetric uniform quantizer with max-range calibration and STE gradients.

Integer grid for q bits is {-(2^(q-1)-1), ..., 2^(q-1)-1} (zero-point fixed
at 0; the most negative two's-complement code is unused). Each tensor gets
one scale, calibrated from its largest magnitude, and rounds to nearest
with .5 ties to even. The straight-through gradient passes upstream through
in-range entries and accumulates the quoted residual term into the
log-scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantSpec",
    "QuantizedFactor",
    "grid_limit",
    "calibrate_scale",
    "quantize",
    "dequantize",
    "quantize_dequantize",
    "round_trip",
    "ste_gradient",
]


def grid_limit(bits):
    """Largest code magnitude for a symmetric q-bit grid."""
    if not isinstance(bits, (int, np.integer)) or bits < 2:
        raise ValueError(f"bits must be an integer >= 2, got {bits!r}")
    return 2 ** (int(bits) - 1) - 1


@dataclass(frozen=True)
class QuantSpec:
    """Bit width and the one per-tensor scale; scales is None until
    calibrated, then a 1-tuple."""

    bits: int
    scales: tuple | None = None

    def __post_init__(self):
        grid_limit(self.bits)
        if self.scales is not None:
            if len(self.scales) != 1:
                raise ValueError("a spec holds exactly one per-tensor scale")
            s = self.scales[0]
            if not np.isfinite(s) or s <= 0:
                raise ValueError("scales must be positive and finite")


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


def _scale(spec):
    if spec.scales is None:
        raise ValueError("spec has no scales; call calibrate_scale first")
    return spec.scales[0]


def _max_range_scale(t, g):
    """s = max|T| / g for a non-empty tensor; an all-zero tensor gets
    scale 1 so division stays defined. NaN or inf when an entry is not
    finite."""
    s = float(np.abs(t).max()) / g
    return s if s != 0.0 else 1.0


def _grid_codes(t, s, g):
    """The one rounding formula: clip(round(T/s), -g, g), rounding half to
    even, as float codes."""
    return np.rint(t / s).clip(-g, g)


def _served_values(t, s, g):
    # + 0.0 turns the -0.0 of negative entries that round to code 0 into
    # the +0.0 that dequantizing an integer code gives
    return _grid_codes(t, s, g) * s + 0.0


def calibrate_scale(t, spec):
    """Fill in the scale: s = max|T| / (2^(q-1) - 1). An all-zero tensor
    gets scale 1 so division stays defined."""
    t = _check_tensor(t)
    return QuantSpec(bits=spec.bits,
                     scales=(_max_range_scale(t, grid_limit(spec.bits)),))


def quantize(t, spec):
    """Codes = clip(round(T/s), -g, g) on the symmetric grid, rounding
    half to even."""
    t = _check_tensor(t)
    codes = _grid_codes(t, _scale(spec), grid_limit(spec.bits))
    return QuantizedFactor(codes=codes.astype(np.int64), spec=spec)


def dequantize(qf):
    """Back to values: s * code per element."""
    return qf.codes.astype(np.float64) * qf.spec.scales[0]


def quantize_dequantize(t, spec):
    """The served values of t, dequantize(quantize(t, spec)) bit for bit,
    without the integer codes."""
    t = _check_tensor(t)
    return _served_values(t, _scale(spec), grid_limit(spec.bits))


def round_trip(t, bits):
    """calibrate_scale, quantize and dequantize at `bits` in one numpy pass.

    Bit-identical to dequantize(quantize(t, calibrate_scale(t, spec))),
    signed zeros included, and raises the same ValueErrors: for bits < 2,
    an empty tensor, or a non-finite entry (max|T| is finite exactly when
    every entry is).
    """
    g = grid_limit(bits)
    t = np.asarray(t, dtype=np.float64)
    if t.size == 0:
        raise ValueError("tensor must be non-empty")
    s = _max_range_scale(t, g)
    if not math.isfinite(s):
        raise ValueError("tensor contains non-finite entries")
    return _served_values(t, s, g)


def ste_gradient(upstream, t, spec):
    """Straight-through gradients of the dequantized output.

    Returns (grad_t, grad_log_scale). grad_t passes upstream through
    entries whose nearest code lies inside the grid and zeroes the rest.
    grad_log_scale, shape (1,), sums s * upstream * (round(T/s) - T/s)
    over in-range entries; out-of-range entries contribute nothing to
    either gradient.
    """
    t = _check_tensor(t)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != t.shape:
        raise ValueError("upstream and t shapes differ")
    s = _scale(spec)
    g = grid_limit(spec.bits)
    ratio = t / s
    code = np.rint(ratio)
    in_range = np.abs(code) <= g
    grad_t = upstream * in_range
    grad_log_scale = np.array([np.sum(s * upstream * (code - ratio)
                                      * in_range)])
    return grad_t, grad_log_scale
