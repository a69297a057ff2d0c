"""Elastic layer behavior: construction, truncation, conv rank schedules,
residual norms, the rank-to-bits map."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastiq import elastic, linalg, manifest, network

from oracles import tucker2_recompose


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _independent_round_trip(t, bits):
    # deliberately separate from the package quantizer: max-range symmetric
    # grid floored at the smallest normal scale, round-half-to-even, clip
    g = 2 ** (bits - 1) - 1
    s = max(np.max(np.abs(t)) / g, np.finfo(np.float64).tiny)
    return np.clip(np.rint(t / s), -g, g) * s


class TestElasticLayerType:
    def test_from_dense_builds_full_range(self):
        w = _rng(0).standard_normal((7, 5))
        layer = elastic.from_dense(w)
        assert layer.kind == elastic.DENSE_SVD
        assert layer.k_max == 5
        assert layer.out_features == 7
        assert layer.in_features == 5

    def test_bias_shape_validated(self):
        # the layer stores its bias as float64 and trusts its length, which
        # decoding the manifest that carries the layer checks
        w = _rng(3).standard_normal((6, 4))
        layer = elastic.from_dense(w, bias=[1] * 6)
        assert layer.bias.dtype == np.float64 and layer.bias.shape == (6,)
        doc = manifest.network_to_doc(network.Network((network.Block(
            elastic=elastic.from_dense(w, bias=np.ones(4))),)))
        with pytest.raises(manifest.ManifestError) as err:
            manifest.net_from_doc(doc)
        assert str(err.value) == \
            "layer 0: bias must be 1-D with one entry per output"


class TestTruncate:
    def test_full_rank_is_bit_exact(self):
        w = _rng(10).standard_normal((8, 6))
        layer = elastic.from_dense(w)
        f = layer.factors
        expected = (f.u * f.core) @ f.v.T
        assert np.array_equal(elastic.effective_weight(layer, layer.k_max),
                              expected)

    def test_diagonal_rank_one(self):
        layer = elastic.from_dense(np.diag([5.0, 3.0, 1.0]))
        got = elastic.effective_weight(layer, 1)
        assert np.array_equal(got, np.diag([5.0, 0.0, 0.0]))

    def test_spectral_error_matches_next_singular(self):
        w = _rng(11).standard_normal((9, 6))
        layer = elastic.from_dense(w)
        full = elastic.effective_weight(layer, layer.k_max)
        err = np.linalg.norm(full - elastic.effective_weight(layer, 2), 2)
        assert err == pytest.approx(layer.factors.core[2], rel=1e-7)

    def test_out_of_range_rejected(self):
        layer = elastic.from_dense(_rng(12).standard_normal((5, 5)))
        for bad in (0, -1, 6):
            with pytest.raises(ValueError, match="outside"):
                elastic.effective_weight(layer, bad)

    def test_conv_full_rank_bit_exact(self):
        kernel = _rng(13).standard_normal((4, 3, 3, 3))
        layer = elastic.from_conv(kernel)
        got = elastic.effective_weight(layer, layer.k_max)
        # two matmuls rebuild the kernel in another summation order than
        # the einsum oracle: measured 4.4e-16 apart at most
        want = tucker2_recompose(layer.factors)
        assert np.allclose(got, want, rtol=1e-13,
                           atol=1e-13 * np.max(np.abs(want)))
        assert np.allclose(got, kernel, atol=1e-8)

    def test_conv_quantized_matches_independent_oracle(self):
        layer = elastic.from_conv(_rng(24).standard_normal((5, 4, 3, 3)))
        k, q = 3, 6
        f = layer.factors
        r_o, r_i = elastic.conv_rank_schedule(layer, k)
        want = tucker2_recompose(linalg.Factors(
            _independent_round_trip(f.u[:, :r_o], q),
            _independent_round_trip(f.core[:r_o, :r_i], q),
            _independent_round_trip(f.v[:, :r_i], q)))
        got = elastic.effective_weight(layer, k, q)
        assert np.allclose(got, want, rtol=1e-13,
                           atol=1e-13 * np.max(np.abs(want)))

    def test_conv_ranks_clamped_to_unfolding_ranks(self):
        # 1x1 8->4: the input unfolding (8, 4) has rank 4, not c_in = 8
        kernel = _rng(14).standard_normal((4, 8, 1, 1))
        layer = elastic.from_conv(kernel)
        assert layer.factors.core.shape == (4, 4, 1, 1)
        assert layer.k_max == 4
        assert elastic.conv_rank_schedule(layer, 4) == (4, 4)
        assert np.allclose(elastic.effective_weight(layer, 4), kernel,
                           atol=1e-12)

    def test_conv_schedule_hand_values(self):
        kernel = _rng(14).standard_normal((6, 4, 3, 3))
        layer = elastic.from_conv(kernel)
        assert layer.k_max == 6
        sched = [elastic.conv_rank_schedule(layer, k) for k in range(1, 7)]
        assert sched == [(1, 1), (2, 2), (3, 2), (4, 3), (5, 4), (6, 4)]
        for (a_o, a_i), (b_o, b_i) in zip(sched, sched[1:]):
            assert b_o >= a_o and b_i >= a_i


class TestResidualNorm:
    def test_full_rank_is_zero(self):
        layer = elastic.from_dense(_rng(20).standard_normal((6, 6)))
        assert elastic.residual_norm(layer, layer.k_max) == 0.0

    def test_diagonal_tail_value(self):
        layer = elastic.from_dense(np.diag([5.0, 3.0, 1.0]))
        assert elastic.residual_norm(layer, 2) == 1.0 + linalg._NORM_SLACK

    def test_matches_stored_spectrum(self):
        # the first discarded singular value, with spectral_norm's slack
        layer = elastic.from_dense(_rng(21).standard_normal((8, 7)))
        for k in range(1, 7):
            assert elastic.residual_norm(layer, k) == float(
                layer.factors.core[k]) * (1.0 + linalg._NORM_SLACK)

    def test_bounds_lapack_norm_of_materialized_residual(self):
        # LAPACK's norm of full - truncated exceeds the stored sigma[k] by
        # a few ulps in about half of all rank steps; the shortcut must
        # still bound it
        for seed in range(10):
            for shape in ((8, 7), (12, 12), (5, 16)):
                layer = elastic.from_dense(
                    _rng(300 + seed).standard_normal(shape))
                full = elastic.effective_weight(layer, layer.k_max)
                for k in range(1, layer.k_max):
                    resid = full - elastic.effective_weight(layer, k)
                    assert elastic.residual_norm(layer, k) \
                        >= np.linalg.norm(resid, 2)

    def test_unsorted_spectrum_materializes_the_residual(self):
        # a rising core is no SVD: its next entry is not the residual's norm
        layer = elastic.ElasticLayer(elastic.DENSE_SVD, linalg.Factors(
            np.eye(3), np.array([1.0, 2.0, 3.0]), np.eye(3)))
        assert not elastic._spectrum_trustworthy(layer)
        assert elastic.residual_norm(layer, 1) \
            == linalg.spectral_norm(np.diag([0.0, 2.0, 3.0]))

    def test_quantized_matches_explicit_oracle(self):
        w = _rng(22).standard_normal((8, 8))
        layer = elastic.from_dense(w)
        k, q = 4, 8
        got = elastic.residual_norm(layer, k, q)

        f = layer.factors
        full = f.u @ np.diag(f.core) @ f.v.T
        approx = (_independent_round_trip(f.u[:, :k], q)
                  @ np.diag(_independent_round_trip(f.core[:k], q))
                  @ _independent_round_trip(f.v[:, :k], q).T)
        want = np.linalg.norm(full - approx, 2)
        assert got == pytest.approx(want, rel=1e-6)

    def test_monotone_in_rank_unquantized(self):
        for seed in range(5):
            layer = elastic.from_dense(_rng(30 + seed).standard_normal((9, 7)))
            vals = [elastic.residual_norm(layer, k)
                    for k in range(1, layer.k_max + 1)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            assert vals[-1] == 0.0


class TestBitOfRank:
    """elastic.base_bits: the width BitMap assigns to a rank."""

    def test_constant_map(self):
        bm = elastic.BitMap(a=0.0, b=8.0, q_max=8)
        for k in (1, 2, 7, 64):
            assert elastic.base_bits(bm, k) == 8

    def test_log_map_hand_values(self):
        bm = elastic.BitMap(a=1.0, b=4.0, q_max=8)
        assert elastic.base_bits(bm, 1) == 4
        assert elastic.base_bits(bm, 54) == 7
        assert elastic.base_bits(bm, 55) == 8

    def test_upper_clamp_at_q_max(self):
        # floor(ln 3 + 8) = 9
        bm = elastic.BitMap(a=1.0, b=8.0, q_max=8)
        assert elastic.base_bits(bm, 3) == 8

    def test_lower_clamp(self):
        bm = elastic.BitMap(a=0.0, b=0.0, q_max=8)
        assert elastic.base_bits(bm, 5) == 2
        bm = elastic.BitMap(a=1.0, b=-3.0, q_max=8)
        assert elastic.base_bits(bm, 1) == 2

    def test_validation(self):
        bm = elastic.BitMap(a=1.0, b=4.0, q_max=8)
        with pytest.raises(ValueError, match="rank"):
            elastic.base_bits(bm, 0)
        with pytest.raises(ValueError, match="slope"):
            elastic.BitMap(a=-0.5, b=4.0, q_max=8)
        with pytest.raises(ValueError, match="q_max"):
            elastic.BitMap(a=0.0, b=4.0, q_max=1)

    @given(
        a=st.floats(min_value=0.0, max_value=4.0),
        b=st.floats(min_value=-3.0, max_value=10.0),
        q_max=st.integers(min_value=2, max_value=16),
    )
    @settings(deadline=None, max_examples=200)
    def test_monotone_for_random_admissible_maps(self, a, b, q_max):
        bm = elastic.BitMap(a=a, b=b, q_max=q_max)
        qs = [elastic.base_bits(bm, k) for k in range(1, 41)]
        assert all(q1 <= q2 for q1, q2 in zip(qs, qs[1:]))
        assert all(2 <= q <= q_max for q in qs)
