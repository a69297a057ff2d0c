import numpy as np
import pytest

from elastiq.quant import (
    QuantSpec,
    calibrate_scale,
    quantize,
    dequantize,
    quantize_dequantize,
    ste_gradient,
    grid_limit,
)

from oracles import straight_line_quant_surrogate


def _calibrated(t, bits=8, **kw):
    return calibrate_scale(t, QuantSpec(bits=bits, **kw))


class TestCalibrate:
    def test_max_range_formula(self):
        t = np.array([[12.7, -3.0], [0.5, 1.0]])
        spec = _calibrated(t, bits=8)
        assert spec.scales[0] == pytest.approx(12.7 / 127, rel=1e-12)

    def test_all_zero_convention(self):
        spec = _calibrated(np.zeros((3, 3)))
        assert spec.scales == (1.0,)

    def test_per_channel_diag(self):
        t = np.diag([1.0, 10.0])
        spec = _calibrated(t, bits=8, granularity="per_channel", channel_axis=0)
        assert spec.scales[0] == pytest.approx(1.0 / 127)
        assert spec.scales[1] == pytest.approx(10.0 / 127)

    def test_zero_channel_slice_gets_unit_scale(self):
        t = np.array([[0.0, 0.0], [2.0, -4.0]])
        spec = _calibrated(t, bits=4, granularity="per_channel", channel_axis=0)
        assert spec.scales[0] == 1.0
        assert spec.scales[1] == pytest.approx(4.0 / 7)

    def test_percentile_mode(self):
        rng = np.random.Generator(np.random.PCG64(0))
        t = rng.standard_normal(4000)
        t[7] = 50.0  # outlier the percentile should shrug off
        spec_max = _calibrated(t, bits=8)
        spec_pct = calibrate_scale(t, QuantSpec(bits=8, clip_percentile=99.9))
        want = np.percentile(np.abs(t), 99.9) / 127
        assert spec_pct.scales[0] == pytest.approx(want, rel=1e-12)
        assert spec_pct.scales[0] < spec_max.scales[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantSpec(bits=1)
        with pytest.raises(ValueError):
            QuantSpec(bits=8, granularity="per_row")
        with pytest.raises(ValueError):
            QuantSpec(bits=8, clip_percentile=0.0)
        with pytest.raises(ValueError):
            calibrate_scale(np.array([]), QuantSpec(bits=8))


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

    def test_per_channel_applies_slice_scales(self):
        t = np.array([[1.0, 0.5], [10.0, -5.0]])
        spec = _calibrated(t, bits=8, granularity="per_channel", channel_axis=0)
        deq = quantize_dequantize(t, spec)
        assert np.max(np.abs(deq[0] - t[0])) <= spec.scales[0] / 2 + 1e-15
        assert np.max(np.abs(deq[1] - t[1])) <= spec.scales[1] / 2 + 1e-15

    def test_requires_calibration(self):
        with pytest.raises(ValueError):
            quantize(np.ones(3), QuantSpec(bits=8))


class TestStochasticRounding:
    def test_unbiased_and_bounded_variance(self):
        s = 0.1
        n = 20000
        for i, val in enumerate([0.537, -0.0891, 1.203, 0.05, -0.721]):
            spec = QuantSpec(bits=8, scales=(s,), rounding="stochastic", seed=100 + i)
            draws = dequantize(quantize(np.full(n, val), spec))
            err = draws - val
            se = (s / 2) / np.sqrt(n)
            assert abs(err.mean()) <= 4 * se
            assert err.var() <= s * s / 4 + 3 * se * s

    def test_bit_exact_reproducibility(self):
        rng = np.random.Generator(np.random.PCG64(3))
        t = rng.standard_normal(500)
        spec = calibrate_scale(t, QuantSpec(bits=6, rounding="stochastic", seed=42))
        a = quantize(t, spec).codes
        b = quantize(t, spec).codes
        assert np.array_equal(a, b)

    def test_exact_grid_values_untouched(self):
        spec = QuantSpec(bits=8, scales=(0.5,), rounding="stochastic", seed=0)
        t = np.array([1.0, -2.5, 0.0])
        assert np.array_equal(quantize(t, spec).codes, [2, -5, 0])


class TestPerChannelVsPerTensor:
    def test_channel_scales_never_exceed_tensor_scale(self):
        # this direction is a theorem: each channel max <= global max
        for seed in range(50):
            rng = np.random.Generator(np.random.PCG64(seed))
            t = rng.standard_normal((6, 10)) * rng.uniform(0.5, 2.0)
            st = _calibrated(t, 6).scales[0]
            sc = _calibrated(t, 6, granularity="per_channel", channel_axis=0).scales
            assert all(s <= st + 1e-15 for s in sc)

    def test_random_tensors(self):
        # The Frobenius ordering "per-channel <= per-tensor" is not a theorem:
        # a coarser grid can land closer to specific entries. On this fixed
        # 200-draw Gaussian family it holds for all but at most a couple of
        # draws (measured 1/500 at 6 and 8 bits), each by a small margin, and
        # it always holds in aggregate.
        worse = 0
        worst_excess = 0.0
        tot_channel = 0.0
        tot_tensor = 0.0
        for seed in range(200):
            rng = np.random.Generator(np.random.PCG64(seed))
            t = rng.standard_normal((6, 10)) * rng.uniform(0.5, 2.0)
            bits = [4, 6, 8][seed % 3]
            e_tensor = np.linalg.norm(t - quantize_dequantize(t, _calibrated(t, bits)))
            e_channel = np.linalg.norm(
                t
                - quantize_dequantize(
                    t, _calibrated(t, bits, granularity="per_channel", channel_axis=0)
                )
            )
            tot_tensor += e_tensor
            tot_channel += e_channel
            if e_channel > e_tensor + 1e-12:
                worse += 1
                worst_excess = max(worst_excess, (e_channel - e_tensor) / e_tensor)
        assert tot_channel < tot_tensor
        assert worse <= 2
        assert worst_excess <= 0.05


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
        assert abs(fd_ls - grad_ls[0]) <= 1e-6

    def test_per_channel_reduction_shape(self):
        rng = np.random.Generator(np.random.PCG64(5))
        t = rng.standard_normal((3, 8))
        spec = _calibrated(t, bits=8, granularity="per_channel", channel_axis=0)
        _, grad_ls = ste_gradient(np.ones_like(t), t, spec)
        assert grad_ls.shape == (3,)
