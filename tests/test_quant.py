import numpy as np
import pytest

from elastiq.quant import (
    QuantSpec,
    calibrate_scale,
    quantize,
    dequantize,
    quantize_dequantize,
    round_trip,
    ste_gradient,
    grid_limit,
)

from oracles import straight_line_quant_surrogate


def _calibrated(t, bits=8):
    return calibrate_scale(t, QuantSpec(bits=bits))


class TestCalibrate:
    def test_max_range_formula(self):
        t = np.array([[12.7, -3.0], [0.5, 1.0]])
        spec = _calibrated(t, bits=8)
        assert spec.scales[0] == pytest.approx(12.7 / 127, rel=1e-12)

    def test_all_zero_convention(self):
        spec = _calibrated(np.zeros((3, 3)))
        assert spec.scales == (1.0,)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantSpec(bits=1)
        with pytest.raises(ValueError):
            calibrate_scale(np.array([]), QuantSpec(bits=8))

    def test_spec_holds_one_scale(self):
        with pytest.raises(ValueError, match="exactly one"):
            QuantSpec(bits=8, scales=(0.1, 0.2))
        with pytest.raises(ValueError, match="exactly one"):
            QuantSpec(bits=8, scales=())


class TestQuantizeDequantize:
    def test_grid_points_exact(self):
        g = grid_limit(6)
        codes = np.arange(-g, g + 1, dtype=np.float64)
        s = 0.37
        t = s * codes
        spec = QuantSpec(bits=6, scales=(s,))
        qf = quantize(t, spec)
        assert np.array_equal(qf.codes, codes.astype(np.int64))
        assert np.allclose(dequantize(qf), t, atol=0.0)

    def test_tie_rounds_to_even(self):
        # dyadic scale so the .5 ties are exact in binary floating point
        spec = QuantSpec(bits=8, scales=(0.25,))
        qf = quantize(np.array([1.375, 1.125, -1.375, -1.125]), spec)
        assert qf.codes.tolist() == [6, 4, -6, -4]

    def test_saturation(self):
        spec = QuantSpec(bits=4, scales=(0.5,))
        qf = quantize(np.array([100.0, -100.0]), spec)
        assert qf.codes.tolist() == [7, -7]

    def test_in_range_error_at_most_half_scale(self):
        # exhaustive fine sweep across the representable range
        spec = QuantSpec(bits=6, scales=(0.13,))
        g = grid_limit(6)
        t = np.linspace(-g * 0.13, g * 0.13, 7001)
        err = np.abs(t - quantize_dequantize(t, spec))
        assert np.max(err) <= 0.13 / 2 + 1e-12

    def test_negation_symmetry(self):
        rng = np.random.Generator(np.random.PCG64(1))
        t = rng.standard_normal((5, 7))
        spec = _calibrated(t, bits=5)
        assert np.array_equal(quantize(-t, spec).codes, -quantize(t, spec).codes)

    def test_second_pass_idempotent(self):
        rng = np.random.Generator(np.random.PCG64(2))
        t = rng.standard_normal((6, 6)) * 3.0
        spec = _calibrated(t, bits=8)
        once = quantize_dequantize(t, spec)
        twice = quantize_dequantize(once, spec)
        assert np.array_equal(once, twice)

    def test_requires_calibration(self):
        with pytest.raises(ValueError):
            quantize(np.ones(3), QuantSpec(bits=8))


def _staged_round_trip(t, bits):
    spec = calibrate_scale(t, QuantSpec(bits=bits))
    return dequantize(quantize(t, spec))


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
                spec = calibrate_scale(t, QuantSpec(bits=bits))
                assert _bitwise_equal(quantize_dequantize(t, spec),
                                      _staged_round_trip(t, bits))

    def test_same_errors_as_three_calls(self):
        cases = [(np.array([]), 8), (np.array([1.0, np.nan]), 8),
                 (np.array([np.inf, 0.0]), 4), (np.array([-np.inf]), 2),
                 (np.ones(3), 1), (np.ones(3), 0)]
        for t, bits in cases:
            with pytest.raises(ValueError) as want:
                _staged_round_trip(t, bits)
            with pytest.raises(ValueError) as got:
                round_trip(t, bits)
            assert str(got.value) == str(want.value)


class TestSteGradient:
    def test_all_in_range_passthrough(self):
        rng = np.random.Generator(np.random.PCG64(4))
        t = rng.uniform(-1, 1, (4, 4))
        spec = _calibrated(t, bits=8)
        up = rng.standard_normal((4, 4))
        grad_t, _ = ste_gradient(up, t, spec)
        assert np.array_equal(grad_t, up)

    def test_all_saturated_zero(self):
        spec = QuantSpec(bits=4, scales=(0.01,))
        t = np.full((3, 3), 5.0)
        up = np.ones((3, 3))
        grad_t, grad_ls = ste_gradient(up, t, spec)
        assert np.all(grad_t == 0.0)
        assert np.all(grad_ls == 0.0)

    def test_mixed_case_matches_surrogate_fd(self):
        # finite differences through the frozen-residual straight-line
        # surrogate, which is the function the STE convention differentiates
        t = np.array([[0.30, -0.82], [5.0, 0.07]])
        s = 0.1
        bits = 4
        spec = QuantSpec(bits=bits, scales=(s,))
        up = np.array([[1.3, -0.4], [2.0, 0.9]])
        grad_t, grad_ls = ste_gradient(up, t, spec)

        in_range, residual = straight_line_quant_surrogate(t, s, bits)
        g = grid_limit(bits)

        def surrogate(tt, ss):
            out = tt + ss * residual
            frozen = s * np.clip(np.rint(t / s), -g, g)
            return np.where(in_range, out, frozen)

        h = 1e-7
        for i in range(2):
            for j in range(2):
                tp = t.copy()
                tp[i, j] += h
                tm = t.copy()
                tm[i, j] -= h
                fd = np.sum(up * (surrogate(tp, s) - surrogate(tm, s))) / (2 * h)
                assert abs(fd - grad_t[i, j]) <= 1e-6

        logs = np.log(s)
        fd_ls = (
            np.sum(up * surrogate(t, np.exp(logs + h)))
            - np.sum(up * surrogate(t, np.exp(logs - h)))
        ) / (2 * h)
        assert grad_ls.shape == (1,)
        assert abs(fd_ls - grad_ls[0]) <= 1e-6
