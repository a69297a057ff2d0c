import numpy as np
import pytest

from elastiq.quant import (
    calibrate_scale,
    quantize,
    dequantize,
    round_trip,
    grid_limit,
)


class TestCalibrate:
    def test_max_range_formula(self):
        t = np.array([[12.7, -3.0], [0.5, 1.0]])
        assert calibrate_scale(t, 8) == pytest.approx(12.7 / 127, rel=1e-12)

    def test_all_zero_convention(self):
        assert calibrate_scale(np.zeros((3, 3)), 8) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            calibrate_scale(np.ones(3), 1)
        with pytest.raises(ValueError):
            calibrate_scale(np.array([]), 8)


class TestQuantizeDequantize:
    def test_grid_points_exact(self):
        g = grid_limit(6)
        codes = np.arange(-g, g + 1, dtype=np.float64)
        s = 0.37
        t = s * codes
        got = quantize(t, s, 6)
        assert got.dtype == np.int64
        assert np.array_equal(got, codes.astype(np.int64))
        assert np.allclose(dequantize(got, s, 6), t, atol=0.0)

    def test_tie_rounds_to_even(self):
        # dyadic scale so the .5 ties are exact in binary floating point
        codes = quantize(np.array([1.375, 1.125, -1.375, -1.125]), 0.25, 8)
        assert codes.tolist() == [6, 4, -6, -4]

    def test_saturation(self):
        assert quantize(np.array([100.0, -100.0]), 0.5, 4).tolist() \
            == [7, -7]

    def test_in_range_error_at_most_half_scale(self):
        # exhaustive fine sweep across the representable range
        g = grid_limit(6)
        t = np.linspace(-g * 0.13, g * 0.13, 7001)
        err = np.abs(t - dequantize(quantize(t, 0.13, 6), 0.13, 6))
        assert np.max(err) <= 0.13 / 2 + 1e-12

    def test_negation_symmetry(self):
        rng = np.random.Generator(np.random.PCG64(1))
        t = rng.standard_normal((5, 7))
        s = calibrate_scale(t, 5)
        assert np.array_equal(quantize(-t, s, 5), -quantize(t, s, 5))

    def test_second_pass_idempotent(self):
        rng = np.random.Generator(np.random.PCG64(2))
        t = rng.standard_normal((6, 6)) * 3.0
        once = round_trip(t, 8)
        assert np.array_equal(once, round_trip(once, 8))

    def test_codes_off_the_grid_rejected(self):
        with pytest.raises(ValueError, match="outside the symmetric grid"):
            dequantize(np.array([0, 8]), 0.5, 4)
        with pytest.raises(ValueError, match="outside the symmetric grid"):
            dequantize(np.array([-8]), 0.5, 4)


def _staged_round_trip(t, bits):
    s = calibrate_scale(t, bits)
    return dequantize(quantize(t, s, bits), s, bits)


def _bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a, b) \
        and np.array_equal(np.signbit(a), np.signbit(b))


class TestRoundTrip:
    """round_trip is calibrate_scale -> quantize -> dequantize in one pass,
    bit for bit."""

    def test_bitwise_equal_to_three_calls(self):
        rng = np.random.default_rng(5)
        tensors = [
            rng.standard_normal((7, 3)),
            rng.standard_normal(11) * 1e-3,
            # entries that round to code 0 from below give -0.0 before
            # dequantizing an integer code turns them into +0.0
            np.array([-1e-9, 1e-9, -0.0, 0.0, 1.0, -1.0]),
            np.zeros((2, 3)),
            -np.zeros(4),
            np.array([1e300, -1e-300, 3.0]),
            np.array([-1e-300, 5e-324, 0.0]),
            np.array([np.finfo(float).max, -1.0]) / 2,
            rng.standard_normal((2, 3, 2, 2)),
        ]
        for t in tensors:
            for bits in range(2, 9):
                assert _bitwise_equal(round_trip(t, bits),
                                      _staged_round_trip(t, bits)), (t, bits)

    def test_same_errors_as_three_calls(self):
        cases = [(np.array([]), 8), (np.array([1.0, np.nan]), 8),
                 (np.array([np.inf, 0.0]), 4), (np.array([-np.inf]), 2),
                 (np.ones(3), 1), (np.ones(3), 0),
                 # g * (max / g) rounds above the largest float, so the
                 # top code's value would be inf
                 (np.array([np.finfo(float).max, -1.0]), 8)]
        for t, bits in cases:
            with np.errstate(all="raise"):
                with pytest.raises(ValueError) as want:
                    _staged_round_trip(t, bits)
                with pytest.raises(ValueError) as got:
                    round_trip(t, bits)
            assert str(got.value) == str(want.value)


class TestSteGradient:
    def test_all_in_range_passthrough(self):
        # a scale calibrated on the tensor it quantizes leaves no entry
        # outside the grid, which is why the straight-through estimator
        # of network.v_quant_ste is the identity
        rng = np.random.default_rng(4)
        for _ in range(200):
            bits = int(rng.integers(2, 17))
            t = rng.standard_normal(int(rng.integers(1, 20))) \
                * 10.0 ** rng.uniform(-300, 300)
            s = calibrate_scale(t, bits)
            assert np.all(np.abs(np.rint(t / s)) <= grid_limit(bits))
