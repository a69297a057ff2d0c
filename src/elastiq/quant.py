"""Symmetric uniform quantizer with max-range calibration.

Integer grid for q bits is {-(2^(q-1)-1), ..., 2^(q-1)-1} (zero-point fixed
at 0; the most negative two's-complement code is unused). There is one
scale formula, s = max(max|T| / g, tiny) with g the largest code and tiny
the smallest normal float64, and one rounding formula, round(T/s) with .5
ties to even. Served values are code * s.

Every code lies on the grid with no clip: a normal s = fl(max|T| / g) is
within a relative 2^-53 of the quotient, so |T/s| rounds to at most g, and
a quotient below tiny gives |T| / tiny < g. So training differentiates the
quantizer straight through, exactly, as the identity: the trainer
(``train.total_loss``) hands the gradient of each served, quantized factor
slice to the stored factor unchanged, the estimator's in-range mask being
all true. The scale is recalibrated from each tensor on every call rather
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
# the scale floor, the smallest normal float64
_TINY = float(np.finfo(np.float64).tiny)


def grid_limit(bits):
    """Largest code magnitude for a symmetric q-bit grid, q >= MIN_BITS."""
    return 2 ** (int(bits) - 1) - 1


def calibrate_scale(t, bits):
    """s = max(max|T| / (2^(q-1) - 1), tiny): the floor keeps on the grid
    the codes of a tensor whose quotient is subnormal, and a tensor whose
    quotient is 0 (all zero, or so small that it underflows) serves zeros.

    t is a non-empty, finite tensor. Raises ValueError for a tensor so
    large that the top code's value g * s overflows.
    """
    g = grid_limit(bits)
    t = np.asarray(t, dtype=np.float64)
    s = max(float(np.abs(t).max()) / g, _TINY)
    if not math.isfinite(g * s):
        raise ValueError("tensor too large: the top code's value overflows")
    return s


def round_trip(t, bits):
    """The served values of t at `bits`: each entry rounded to its code
    on the symmetric grid at scale s = calibrate_scale(t, bits), times s."""
    t = np.asarray(t, dtype=np.float64)
    s = calibrate_scale(t, bits)
    # + 0.0 turns the -0.0 of negative entries that round to code 0 into
    # the +0.0 of an integer code times s
    return np.rint(t / s) * s + 0.0
