"""Calibration statistics, drift-bound soundness and ledgers."""

import numpy as np
import pytest

from elastiq import certificate, elastic, network
from bounds import expected_bound
from oracles import conv_matrix, dense_block_jacobians


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _dense_net(seed, dims, acts, bias=True, gamma_on=(), residual_on=()):
    rng = _rng(seed)
    blocks = []
    for i in range(len(dims) - 1):
        w = rng.standard_normal((dims[i + 1], dims[i]))
        b = 0.1 * rng.standard_normal(dims[i + 1]) if bias else None
        layer = elastic.from_dense(w, bias=b)
        gamma = beta = None
        if i in gamma_on:
            gamma = 0.5 + rng.random(dims[i + 1])
            beta = 0.1 * rng.standard_normal(dims[i + 1])
        blocks.append(network.Block(
            elastic=layer, activation=acts[i], gamma=gamma, beta=beta,
            residual=i in residual_on))
    return network.Network(tuple(blocks))


def _net_params(net):
    """Explicit parameter lists for the oracle Jacobian builder."""
    ws, bs, gs, betas, acts, res = [], [], [], [], [], []
    for blk in net.blocks:
        lay = blk.elastic
        ws.append(elastic.effective_weight(lay, lay.k_max))
        bs.append(None if lay.bias is None else lay.bias)
        gs.append(blk.gamma)
        betas.append(blk.beta)
        acts.append(blk.activation)
        res.append(blk.residual)
    return ws, bs, gs, betas, acts, res


def _oracle_tail_jacobian(net, ell, x):
    full, post_w = dense_block_jacobians(*_net_params(net), x)
    jac = post_w[ell]
    for j in range(ell + 1, len(net.blocks)):
        jac = full[j] @ jac
    return jac


def _from_matrix(w, bias=None):
    return network.Block(elastic=elastic.from_dense(w, bias=bias))


class TestCalibration:
    def test_single_input_matches_explicit_norms(self):
        net = _dense_net(0, (4, 5, 3), (network.RELU, network.IDENTITY),
                         gamma_on=(0,))
        x = _rng(1).standard_normal(4)
        stats = certificate.calibrate(net, x)

        blk0 = net.blocks[0]
        w0 = elastic.effective_weight(blk0.elastic, blk0.elastic.k_max)
        h = w0 @ x + blk0.elastic.bias
        h = blk0.gamma * h + blk0.beta
        a1 = np.maximum(h, 0.0)
        assert stats.alpha[0] == pytest.approx(np.linalg.norm(x), rel=1e-12)
        assert stats.alpha[1] == pytest.approx(np.linalg.norm(a1), rel=1e-12)
        assert stats.count == 1

    def test_duplicated_inputs_leave_alpha_unchanged(self):
        net = _dense_net(2, (4, 3), (network.RELU,))
        x = _rng(3).standard_normal(4)
        one = certificate.calibrate(net, x)
        four = certificate.calibrate(net, np.tile(x, (4, 1)))
        assert four.alpha == pytest.approx(one.alpha, rel=1e-12)
        assert four.count == 4

    def test_rms_of_two_input_norms(self):
        layer = elastic.from_dense(np.eye(3))
        net = network.Network((network.Block(elastic=layer),))
        xs = np.array([[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        stats = certificate.calibrate(net, xs)
        assert stats.alpha[0] == pytest.approx(np.sqrt(12.5), rel=1e-12)

    def test_empty_set_rejected(self):
        net = _dense_net(4, (4, 3), (network.RELU,))
        with pytest.raises(ValueError, match="empty"):
            certificate.calibrate(net, np.zeros((0, 4)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e200, 1e160])
    def test_overflowing_norms_rejected(self, scale):
        # 1e200 overflows each row's squares, 1e160 only the RMS over rows
        net = _dense_net(4, (4, 3), (network.IDENTITY,))
        xs = np.full((3, 4), scale)
        with pytest.raises(ValueError, match="norms overflow float64"):
            certificate.calibrate(net, xs)
        if scale == 1e200:
            stats = certificate.calibrate(net, np.ones((3, 4)))
            with pytest.raises(ValueError, match="norms overflow float64"):
                certificate.pointwise_bound(net, stats, [(1, None)], xs[0])

    def test_recompute_reproduces_exactly(self):
        net = _dense_net(5, (4, 4, 3), (network.GELU, network.IDENTITY))
        xs = _rng(6).standard_normal((16, 4))
        a = certificate.calibrate(net, xs)
        b = certificate.calibrate(net, xs)
        assert a == b

    def test_stats_validation(self):
        with pytest.raises(ValueError, match="count"):
            certificate.CalibrationStats((1.0,), 0, "f")
        with pytest.raises(ValueError, match="non-negative"):
            certificate.CalibrationStats((-1.0,), 1, "f")
        for spatial in ((8,), (8, 0), (1, 2, 3)):
            with pytest.raises(ValueError, match="spatial"):
                certificate.CalibrationStats((1.0,), 1, "f", spatial)


class TestFingerprint:
    def test_identical_nets_share_fingerprint(self):
        a = _dense_net(7, (4, 3), (network.RELU,))
        b = _dense_net(7, (4, 3), (network.RELU,))
        assert certificate.network_fingerprint(a) \
            == certificate.network_fingerprint(b)

    def test_any_parameter_change_alters_fingerprint(self):
        w = _rng(8).standard_normal((3, 4))
        base = network.Network((_from_matrix(w),))
        moved = network.Network((_from_matrix(w + 1e-9),))
        biased = network.Network((_from_matrix(w, bias=np.zeros(3)),))
        fps = {certificate.network_fingerprint(n)
               for n in (base, moved, biased)}
        assert len(fps) == 3


class TestCompressionGain:
    """certificate.weight_change: the norm of the change a block's weight
    undergoes when served at a compressed operating point."""

    def test_matches_truncation_residual_on_dense_layers(self):
        net = _dense_net(31, (6, 5, 4), (network.RELU, network.IDENTITY))
        for blk in net.blocks:
            lay = blk.elastic
            for k in range(1, lay.k_max):
                assert certificate.weight_change(blk, k) \
                    == pytest.approx(elastic.residual_norm(lay, k),
                                     rel=1e-12)

    def test_conv_bounds_the_explicit_operator_norm(self):
        # the exact operator norm of a conv layer's change is the spectral
        # norm of its explicit zero-padded convolution matrix; the norm of
        # the (c_out, c_in*h*w) kernel unfolding falls below it, which is
        # why elastic.residual_norm refuses conv layers
        rng = _rng(33)
        for c_o, c_i in ((8, 6), (6, 8), (16, 8)):
            lay = elastic.from_conv(rng.standard_normal((c_o, c_i, 3, 3))
                                    / np.sqrt(c_i * 9))
            blk = network.Block(elastic=lay)
            full = elastic.effective_weight(lay, lay.k_max)
            for k, q in ((2, None), (4, 8), (lay.k_max, 4)):
                delta = full - elastic.effective_weight(lay, k, q)
                exact = np.linalg.norm(conv_matrix(delta, 8, 8), 2)
                assert certificate.weight_change(blk, k, q) >= exact
                assert np.linalg.norm(delta.reshape(c_o, -1), 2) < exact

    def test_full_profile_changes_nothing(self):
        net = _dense_net(32, (5, 3), (network.IDENTITY,))
        blk = net.blocks[0]
        assert certificate.weight_change(blk, blk.elastic.k_max) == 0.0


class TestLipschitzProxy:
    def test_linear_head_gives_one_in_both_modes(self):
        net = _dense_net(9, (4, 5, 3), (network.RELU, network.IDENTITY))
        xs = _rng(10).standard_normal((4, 4))
        cons = certificate.lipschitz_proxy(net, [None])[0][1]
        samp = certificate.lipschitz_proxy(
            net, [None], certificate.SAMPLED, calibration_inputs=xs)[0][1]
        assert cons == pytest.approx(1.0, abs=1e-12)
        assert samp == pytest.approx(1.0, abs=1e-12)

    def test_linear_tail_modes_agree(self):
        rng = _rng(11)
        qu, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        qv, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        w2 = qu @ np.diag([3.0, 1.0, 0.5]) @ qv.T
        blocks = (
            network.Block(elastic=elastic.from_dense(
                rng.standard_normal((5, 4))), activation=network.RELU),
            _from_matrix(rng.standard_normal((6, 5))),
            _from_matrix(w2),
        )
        net = network.Network(blocks)
        xs = rng.standard_normal((5, 4))
        cons = certificate.lipschitz_proxy(net, [None])[0][1]
        samp = certificate.lipschitz_proxy(
            net, [None], certificate.SAMPLED, calibration_inputs=xs)[0][1]
        want = np.linalg.norm(w2, 2)
        assert cons == pytest.approx(want, rel=1e-4)
        assert samp == pytest.approx(want, rel=1e-4)

    def test_orthogonal_tail_reduces_to_product_norm(self):
        rng = _rng(12)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        u, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        w1 = u @ np.diag([2.0, 1.0, 0.4, 0.2, 0.1, 0.05]) @ v.T
        net = network.Network((
            _from_matrix(rng.standard_normal((6, 5))),
            _from_matrix(w1),
            _from_matrix(q),
        ))
        xs = rng.standard_normal((3, 5))
        cons = certificate.lipschitz_proxy(net, [None])[0][0]
        samp = certificate.lipschitz_proxy(
            net, [None], certificate.SAMPLED, calibration_inputs=xs)[0][0]
        assert cons == pytest.approx(2.0, rel=1e-4)
        assert samp == pytest.approx(2.0, rel=1e-4)

    def test_jacobian_assembly_matches_oracle(self):
        net = _dense_net(13, (4, 4, 4, 4),
                         (network.RELU, network.GELU, network.IDENTITY),
                         gamma_on=(1,), residual_on=(1,))
        x = _rng(14).standard_normal(4)
        jacs = certificate._tail_jacobians(net, x[None])
        for ell in range(3):
            got = jacs[ell][0]
            want = _oracle_tail_jacobian(net, ell, x)
            assert np.allclose(got, want, atol=1e-12)

    def test_batched_power_iteration_matches_row_loop(self):
        jac = _rng(15).standard_normal((5, 3, 4))
        jac[2] = 0.0

        def row_loop(j, steps):
            v = np.random.default_rng(0).standard_normal(j.shape[1])
            v /= np.linalg.norm(v)
            for _ in range(steps):
                w = j.T @ (j @ v)
                if np.linalg.norm(w) == 0.0:
                    return 0.0
                v = w / np.linalg.norm(w)
            return np.linalg.norm(j @ v)

        got = certificate._jacobian_norm_estimates(jac, 5)
        want = [row_loop(j, 5) for j in jac]
        assert got[2] == 0.0
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_conservative_dominates_sampled_on_random_nets(self):
        acts_pool = (network.RELU, network.IDENTITY)
        for i in range(100):
            rng = _rng(1000 + i)
            depth = int(rng.integers(2, 4))
            acts = tuple(acts_pool[rng.integers(2)] for _ in range(depth))
            gamma_on = tuple(j for j in range(depth) if rng.random() < 0.4)
            residual_on = tuple(
                j for j in range(depth) if rng.random() < 0.3)
            net = _dense_net(2000 + i, (5,) * (depth + 1), acts,
                             gamma_on=gamma_on, residual_on=residual_on)
            ell = int(rng.integers(depth))
            xs = rng.standard_normal((6, 5))
            cons = certificate.lipschitz_proxy(net, [None])[0][ell]
            samp = certificate.lipschitz_proxy(
                net, [None], certificate.SAMPLED,
                calibration_inputs=xs)[0][ell]
            assert cons >= samp * (1.0 - 1e-9)
            worst = max(np.linalg.norm(_oracle_tail_jacobian(net, ell, x), 2)
                        for x in xs)
            assert samp <= worst * (1.0 + 1e-9)

    def test_quantized_profile_cannot_shrink_tail(self):
        net = _dense_net(15, (4, 5, 3), (network.RELU, network.IDENTITY))
        k_max = net.blocks[1].elastic.k_max
        prof = [(net.blocks[0].elastic.k_max, None), (k_max, 2)]
        plain = certificate.lipschitz_proxy(net, [None])[0][0]
        aware = certificate.lipschitz_proxy(net, [prof])[0][0]
        assert aware >= plain * (1.0 - 1e-12)

    def test_validation(self):
        net = _dense_net(16, (4, 3), (network.RELU,))
        with pytest.raises(ValueError, match="length"):
            certificate.lipschitz_proxy(net, [[(1, None)] * 2])
        with pytest.raises(ValueError, match="calibration"):
            certificate.lipschitz_proxy(net, [None], certificate.SAMPLED)
        with pytest.raises(ValueError, match="mode"):
            certificate.lipschitz_proxy(net, [None], "fast")
        conv = network.Network((network.Block(
            elastic=elastic.from_conv(
                _rng(17).standard_normal((3, 3, 3, 3)))),))
        with pytest.raises(ValueError, match="dense"):
            certificate.lipschitz_proxy(
                conv, [None], certificate.SAMPLED,
                calibration_inputs=np.zeros((2, 3, 4, 4)))


def _random_profile(rng, net, bits_pool=(None, None, 3, 5, 8)):
    prof = []
    for blk in net.blocks:
        k = int(rng.integers(1, blk.elastic.k_max + 1))
        q = bits_pool[rng.integers(len(bits_pool))]
        prof.append((k, q))
    return prof


class TestPointwiseBound:
    def test_full_profile_is_exactly_zero(self):
        net = _dense_net(18, (4, 5, 3), (network.GELU, network.IDENTITY))
        stats = certificate.calibrate(net, _rng(19).standard_normal((8, 4)))
        x = _rng(20).standard_normal(4)
        assert certificate.pointwise_bound(net, stats, None, x) == 0.0

    def test_single_linear_layer_matches_cauchy_schwarz(self):
        rng = _rng(21)
        w = rng.standard_normal((4, 5))
        net = network.Network((_from_matrix(w),))
        stats = certificate.calibrate(net, rng.standard_normal((6, 5)))
        x = rng.standard_normal(5)
        k = 2
        bound = certificate.pointwise_bound(net, stats, [(k, None)], x)

        w_full = elastic.effective_weight(net.blocks[0].elastic, 4)
        w_k = elastic.effective_weight(net.blocks[0].elastic, k)
        sigma = np.linalg.svd(w_full - w_k, compute_uv=False)[0]
        assert bound == pytest.approx(sigma * np.linalg.norm(x), rel=1e-7)
        drift = np.linalg.norm((w_k - w_full) @ x)
        assert drift <= bound

    def test_soundness_sweep_dense(self):
        acts_pool = (network.RELU, network.IDENTITY, network.GELU)
        for i in range(20):
            rng = _rng(3000 + i)
            depth = int(rng.integers(2, 4))
            acts = tuple(acts_pool[rng.integers(3)] for _ in range(depth))
            net = _dense_net(
                4000 + i, (6,) * (depth + 1), acts,
                gamma_on=tuple(j for j in range(depth)
                               if rng.random() < 0.4),
                residual_on=tuple(j for j in range(depth)
                                  if rng.random() < 0.3))
            stats = certificate.calibrate(net, rng.standard_normal((4, 6)))
            xs = rng.standard_normal((20, 6))
            for _ in range(5):
                prof = _random_profile(rng, net)
                bounds = certificate.pointwise_bound(net, stats, prof, xs)
                drifts = network.logit_drift(net, xs, prof)
                assert np.all(drifts <= bounds * (1.0 + 1e-12) + 1e-12)

    def test_soundness_conv(self):
        rng = _rng(22)
        net = network.Network((
            network.Block(
                elastic=elastic.from_conv(rng.standard_normal((4, 3, 3, 3)),
                                          bias=0.1 * rng.standard_normal(4)),
                activation=network.RELU),
            network.Block(
                elastic=elastic.from_conv(rng.standard_normal((3, 4, 3, 3))),
                gamma=0.5 + rng.random(3), beta=np.zeros(3)),
        ))
        stats = certificate.calibrate(net, rng.standard_normal((3, 3, 5, 5)))
        xs = rng.standard_normal((10, 3, 5, 5))
        for trial in range(6):
            prof = _random_profile(rng, net)
            bounds = certificate.pointwise_bound(net, stats, prof, xs)
            drifts = network.logit_drift(net, xs, prof)
            assert np.all(drifts <= bounds * (1.0 + 1e-12) + 1e-12)

    def test_batch_matches_per_input_loop(self):
        net = _dense_net(23, (4, 5, 3), (network.RELU, network.IDENTITY))
        stats = certificate.calibrate(net, _rng(24).standard_normal((5, 4)))
        xs = _rng(25).standard_normal((7, 4))
        prof = [(2, None), (1, None)]
        vec = certificate.pointwise_bound(net, stats, prof, xs)
        assert vec.shape == (7,)
        for row, want in zip(xs, vec):
            got = certificate.pointwise_bound(net, stats, prof, row)
            assert isinstance(got, float)
            assert got == pytest.approx(want, rel=1e-12)

    def test_stale_stats_rejected(self):
        net = _dense_net(29, (4, 3), (network.RELU,))
        stats = certificate.calibrate(net, _rng(30).standard_normal((3, 4)))
        other = _dense_net(31, (4, 3), (network.RELU,))
        with pytest.raises(ValueError, match="stale"):
            certificate.pointwise_bound(other, stats, None, np.zeros(4))
        with pytest.raises(ValueError, match="stale"):
            certificate.ledgers(other, stats, [None])


class TestExpectedBound:
    def test_full_profile_is_exactly_zero(self):
        net = _dense_net(32, (4, 3), (network.RELU,))
        stats = certificate.calibrate(net, _rng(33).standard_normal((4, 4)))
        assert expected_bound(net, stats, None) == 0.0

    def test_one_layer_formula_and_rms_drift_domination(self):
        rng = _rng(34)
        w = rng.standard_normal((4, 6))
        net = network.Network((_from_matrix(w),))
        xs = rng.standard_normal((12, 6))
        stats = certificate.calibrate(net, xs)
        k = 2
        got = expected_bound(net, stats, [(k, None)])

        norms = np.linalg.norm(xs, axis=1)
        alpha = np.sqrt(np.mean(norms ** 2))
        w_full = elastic.effective_weight(net.blocks[0].elastic, 4)
        w_k = elastic.effective_weight(net.blocks[0].elastic, k)
        sigma = np.linalg.svd(w_full - w_k, compute_uv=False)[0]
        assert got == pytest.approx(alpha * sigma, rel=1e-7)

        drifts = network.logit_drift(net, xs, [(k, None)])
        assert np.sqrt(np.mean(drifts ** 2)) <= got

    def test_doubling_inputs_doubles_the_aggregate(self):
        net = _dense_net(35, (4, 4, 3), (network.RELU, network.RELU),
                         bias=False)
        xs = _rng(36).standard_normal((8, 4))
        prof = [(2, None), (1, None)]
        one = expected_bound(
            net, certificate.calibrate(net, xs), prof)
        two = expected_bound(
            net, certificate.calibrate(net, 2.0 * xs), prof)
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_dominates_rms_of_pointwise_bounds(self):
        net = _dense_net(37, (5, 5, 4), (network.RELU, network.IDENTITY),
                         gamma_on=(0,), residual_on=(0,))
        xs = _rng(38).standard_normal((16, 5))
        stats = certificate.calibrate(net, xs)
        prof = [(3, 6), (2, None)]
        agg = expected_bound(net, stats, prof)
        pw = certificate.pointwise_bound(net, stats, prof, xs)
        assert np.sqrt(np.mean(pw ** 2)) <= agg * (1.0 + 1e-12)
        drifts = network.logit_drift(net, xs, prof)
        assert np.sqrt(np.mean(drifts ** 2)) <= agg * (1.0 + 1e-12)

    def test_monotone_in_rank_unquantized(self):
        net = _dense_net(39, (6, 6, 6), (network.RELU, network.IDENTITY))
        stats = certificate.calibrate(net, _rng(40).standard_normal((6, 6)))
        vals = [expected_bound(net, stats, [(k, None), (k, None)])
                for k in range(1, 7)]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi * (1.0 + 1e-12)
        assert vals[-1] == 0.0

    def test_monotone_fixture_with_fixed_bits(self):
        # decaying spectrum, 8-bit factors: truncation error dominates the
        # quantization noise, so the aggregate still shrinks with rank
        rng = _rng(41)
        u, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        w = u @ np.diag([8.0, 4.0, 2.0, 1.0, 0.5, 0.25]) @ v.T
        net = network.Network((_from_matrix(w),))
        stats = certificate.calibrate(net, rng.standard_normal((5, 6)))
        vals = [expected_bound(net, stats, [(k, 8)])
                for k in range(1, 7)]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi * (1.0 + 1e-12)


class TestLedger:
    def _ledger(self, seed=42):
        net = _dense_net(seed, (5, 4, 3), (network.RELU, network.IDENTITY))
        xs = _rng(seed + 1).standard_normal((10, 5))
        stats = certificate.calibrate(net, xs)
        prof = [(2, 6), (1, None)]
        return net, stats, prof, xs, \
            certificate.ledgers(net, stats, [prof])[0]

    def test_aggregate_is_exactly_the_row_sum(self):
        _, _, _, _, rows = self._ledger()
        total = 0.0
        for mult, dgain, alpha in rows:
            total += mult * dgain * alpha
        assert certificate.ledger_total(rows) == total

    def test_matches_expected_bound_exactly(self):
        net, stats, prof, _, rows = self._ledger()
        assert certificate.ledger_total(rows) \
            == expected_bound(net, stats, prof)

    def test_rows_shape_and_nonnegativity(self):
        net, stats, prof, _, rows = self._ledger()
        assert len(rows) == len(net.blocks)
        for row in rows:
            assert len(row) == 3
            assert all(v >= 0.0 for v in row)
        assert [r[0] for r in rows] \
            == certificate.lipschitz_proxy(net, [prof])[0]
        assert [r[1] for r in rows] == [
            certificate.weight_change(blk, k, q)
            for blk, (k, q) in zip(net.blocks, prof)]
        assert [r[2] for r in rows] == list(stats.alpha)


class TestSingleLayerReplacement:
    def test_drift_bounded_by_the_one_active_term(self):
        net = _dense_net(60, (5, 5, 5, 4),
                         (network.RELU, network.RELU, network.IDENTITY),
                         gamma_on=(1,))
        xs = _rng(61).standard_normal((8, 5))
        stats = certificate.calibrate(net, xs)
        x = _rng(62).standard_normal(5)
        for ell in range(3):
            k = 2
            prof = [(b.elastic.k_max, None) for b in net.blocks]
            prof[ell] = (k, None)
            drift = network.logit_drift(net, x, prof)
            bound = certificate.pointwise_bound(net, stats, prof, x)
            assert drift <= bound * (1.0 + 1e-12) + 1e-12

            lay = net.blocks[ell].elastic
            delta = elastic.effective_weight(lay, lay.k_max) \
                - elastic.effective_weight(lay, k)
            tr = network.forward(net, x, None)
            manual = certificate.lipschitz_proxy(net, [prof])[0][ell] \
                * np.linalg.norm(delta, 2) \
                * np.linalg.norm(np.ravel(tr.inputs[ell]))
            assert bound == pytest.approx(manual, rel=1e-7)
