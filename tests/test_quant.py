import numpy as np
import pytest

from elastiq.quant import (
    calibrate_scale,
    round_trip,
    grid_limit,
)
from oracles import stepwise_round_trip


class TestCalibrate:
    def test_max_range_formula(self):
        t = np.array([[12.7, -3.0], [0.5, 1.0]])
        assert calibrate_scale(t, 8) == pytest.approx(12.7 / 127, rel=1e-12)

    def test_all_zero_convention(self):
        # the scale floor, the smallest normal float64, under which an
        # all-zero tensor serves zeros
        tiny = np.finfo(np.float64).tiny
        assert calibrate_scale(np.zeros((3, 3)), 8) == tiny
        assert np.array_equal(round_trip(np.zeros((3, 3)), 8),
                              np.zeros((3, 3)))

    def test_subnormal_quotient_takes_the_floor(self):
        # max|t| / g is subnormal, so the scale is the floor and every
        # code stays inside [-g, g]: the first tensor's codes are all 0,
        # the second's reach 90 = rint(2e-306 / tiny) of g = 127
        tiny = np.finfo(np.float64).tiny
        for t, top in ((np.array([9e-322, -3e-322, 1e-323]), 0),
                       (np.array([2e-306, -1e-306, 5e-309]), 90)):
            assert calibrate_scale(t, 8) == tiny
            assert np.max(np.abs(_codes(t, 8))) == top

    def test_validation(self):
        # callers hand over finite, non-empty tensors and widths >= 2; the
        # one refusal left is a top code whose value overflows
        with pytest.raises(ValueError, match="top code's value overflows"):
            calibrate_scale(np.array([np.finfo(float).max, -1.0]), 8)


def _codes(t, bits):
    """The integer codes behind round_trip(t, bits)."""
    return np.rint(round_trip(t, bits) / calibrate_scale(t, bits))


class TestQuantizeDequantize:
    """round_trip quantizes to the symmetric grid and dequantizes again."""

    def test_grid_points_exact(self):
        g = grid_limit(6)
        codes = np.arange(-g, g + 1, dtype=np.float64)
        # a dyadic scale, so that max|t| / g gives it back exactly
        s = 0.375
        t = s * codes
        assert calibrate_scale(t, 6) == s
        assert np.array_equal(round_trip(t, 6), t)

    def test_tie_rounds_to_even(self):
        # the top entry 127 * 0.25 sets the scale to 0.25, a dyadic scale
        # so the .5 ties are exact in binary floating point
        t = np.array([1.375, 1.125, -1.375, -1.125, 31.75])
        assert round_trip(t, 8).tolist() == [1.5, 1.0, -1.5, -1.0, 31.75]

    def test_saturation(self):
        # the largest entry lands on the top code and none goes past it
        rng = np.random.Generator(np.random.PCG64(3))
        for bits in range(2, 17):
            t = rng.standard_normal(9) * 10.0 ** rng.uniform(-200, 200)
            codes = _codes(t, bits)
            assert np.max(np.abs(codes)) == grid_limit(bits)
            assert codes[np.argmax(np.abs(t))] \
                == np.sign(t[np.argmax(np.abs(t))]) * grid_limit(bits)

    def test_in_range_error_at_most_half_scale(self):
        # exhaustive fine sweep across the representable range
        g = grid_limit(6)
        t = np.linspace(-g * 0.13, g * 0.13, 7001)
        s = calibrate_scale(t, 6)
        err = np.abs(t - round_trip(t, 6))
        assert np.max(err) <= s / 2 + 1e-12

    def test_negation_symmetry(self):
        rng = np.random.Generator(np.random.PCG64(1))
        t = rng.standard_normal((5, 7))
        assert np.array_equal(round_trip(-t, 5), -round_trip(t, 5))

    def test_second_pass_idempotent(self):
        rng = np.random.Generator(np.random.PCG64(2))
        t = rng.standard_normal((6, 6)) * 3.0
        once = round_trip(t, 8)
        assert np.array_equal(once, round_trip(once, 8))


def _bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a, b) \
        and np.array_equal(np.signbit(a), np.signbit(b))


class TestRoundTrip:
    """round_trip is the scale, the integer codes and code * s in one pass,
    bit for bit, and refuses what its scale step refuses."""

    def test_bitwise_equal_to_three_calls(self):
        rng = np.random.default_rng(5)
        tensors = [
            rng.standard_normal((7, 3)),
            rng.standard_normal(11) * 1e-3,
            # entries that round to code 0 from below give -0.0 before
            # an integer code times s turns them into +0.0
            np.array([-1e-9, 1e-9, -0.0, 0.0, 1.0, -1.0]),
            np.zeros((2, 3)),
            -np.zeros(4),
            np.array([1e300, -1e-300, 3.0]),
            np.array([-1e-300, 5e-324, 0.0]),
            np.array([np.finfo(float).max, -1.0]) / 2,
            rng.standard_normal((2, 3, 2, 2)),
            # subnormal quotients max|t| / g, quantized at the scale floor:
            # on the scale max|t| / g the first would reach the codes 182,
            # -61, 2 at 8 bits, unclipped
            np.array([9e-322, -3e-322, 1e-323]),
            rng.standard_normal(9) * 1e-310,
            rng.standard_normal((3, 4)) * 1e-321,
            # codes well off zero at the floor
            rng.standard_normal(9) * 1e-306,
        ]
        for t in tensors:
            for bits in range(2, 9):
                assert _bitwise_equal(round_trip(t, bits),
                                      stepwise_round_trip(t, bits)), (t, bits)

    def test_same_errors_as_three_calls(self):
        # the three-step quantizer raised only in its scale step: here
        # g * (max / g) rounds above the largest float, so the top code's
        # value would be inf
        t = np.array([np.finfo(float).max, -1.0])
        with np.errstate(all="raise"):
            with pytest.raises(ValueError) as want:
                calibrate_scale(t, 8)
            with pytest.raises(ValueError) as got:
                round_trip(t, 8)
        assert str(got.value) == str(want.value)


class TestSteGradient:
    def test_all_in_range_passthrough(self):
        # a scale calibrated on the tensor it quantizes leaves no entry
        # outside the grid, subnormal quotients max|t| / g included, which
        # is why the straight-through estimator of train._layer_grads is
        # the identity
        rng = np.random.default_rng(4)
        # 200 scales across the normal range, 200 down to 1e-320
        for e in np.concatenate((rng.uniform(-300, 300, 200),
                                 rng.uniform(-320, -305, 200))):
            bits = int(rng.integers(2, 17))
            t = rng.standard_normal(int(rng.integers(1, 20))) * 10.0 ** e
            s = calibrate_scale(t, bits)
            assert np.all(np.abs(np.rint(t / s)) <= grid_limit(bits))
