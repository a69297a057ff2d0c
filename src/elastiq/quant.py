"""Symmetric uniform quantizer with max-range calibration.

Integer grid for q bits is {-(2^(q-1)-1), ..., 2^(q-1)-1} (zero-point fixed
at 0; the most negative two's-complement code is unused). There is one
scale formula, s = max|T| / g with g the largest code, and one rounding
formula, clip(round(T/s), -g, g) with .5 ties to even. Served values are
code * s.

Training differentiates the quantizer straight through, as the identity:
the trainer (``train.total_loss``) hands the gradient of each served,
quantized factor slice to the stored factor unchanged. That is exact for
the straight-through estimator here: each tensor's scale is calibrated
from that tensor, so no entry lies outside the grid and the estimator's
in-range mask is all true. The scale is recalibrated on every call rather
than learned, so it carries no gradient.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "grid_limit",
    "calibrate_scale",
    "round_trip",
]

# the narrowest width with a symmetric grid: 2 bits give the codes -1, 0, 1
MIN_BITS = 2


def grid_limit(bits):
    """Largest code magnitude for a symmetric q-bit grid, q >= MIN_BITS."""
    return 2 ** (int(bits) - 1) - 1


def calibrate_scale(t, bits):
    """s = max|T| / (2^(q-1) - 1). A tensor for which that is 0 (all
    zero, or so small that it underflows) gets scale 1 so division stays
    defined.

    t is a non-empty, finite tensor. Raises ValueError for a tensor so
    large that the top code's value g * s overflows.
    """
    g = grid_limit(bits)
    t = np.asarray(t, dtype=np.float64)
    s = float(np.abs(t).max()) / g
    if s == 0.0:
        return 1.0
    if not math.isfinite(g * s):
        raise ValueError("tensor too large: the top code's value overflows")
    return s


def round_trip(t, bits):
    """The served values of t at `bits`: each entry rounded to its code
    on the symmetric grid at scale s = calibrate_scale(t, bits), times s."""
    g = grid_limit(bits)
    t = np.asarray(t, dtype=np.float64)
    s = calibrate_scale(t, bits)
    # + 0.0 turns the -0.0 of negative entries that round to code 0 into
    # the +0.0 of an integer code times s
    return np.rint(t / s).clip(-g, g) * s + 0.0
