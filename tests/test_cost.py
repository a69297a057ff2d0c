"""Flop/byte accounting, the staged-or-rebuilt break-even, proxy fitting."""

import numpy as np
import pytest
import scipy.optimize

from elastiq import cost, elastic, linalg, network
from oracles import counted_svd_matvec, counted_tucker2_conv


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _dense_layer(m, n, seed=0):
    return elastic.from_dense(_rng(seed).standard_normal((m, n)))


def _conv_layer(c_o, c_i, kh, kw, seed=0):
    return elastic.from_conv(_rng(seed).standard_normal((c_o, c_i, kh, kw)))


def _factored(kind, u, core, v):
    return elastic.ElasticLayer(kind, linalg.Factors(u, core, v))


class TestFlopsDense:
    """elastic.served_flops of dense layers, per input row."""

    def test_hand_value(self):
        assert elastic.served_flops(_dense_layer(4, 4), 1) == (17, 32)

    def test_zero_rank_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            elastic.served_flops(_dense_layer(4, 4), 0)

    def test_matches_instrumented_forward(self):
        for m, n, k, seed in [(5, 6, 3, 1), (4, 4, 1, 2), (7, 3, 2, 3),
                              (2, 9, 2, 4)]:
            rng = _rng(seed)
            u = rng.standard_normal((m, k))
            sigma = rng.standard_normal(k)
            v = rng.standard_normal((n, k))
            x = rng.standard_normal(n)
            _, counted = counted_svd_matvec(u, sigma, v, x)
            lay = _factored(elastic.DENSE_SVD, u, sigma, v)
            assert elastic.served_flops(lay, k)[0] == counted


class TestFlopsConv:
    """elastic.served_flops of conv layers, per output pixel."""

    def test_hand_value(self):
        rng = _rng(4)
        lay = _factored(elastic.CONV_TUCKER2, rng.standard_normal((4, 1)),
                        rng.standard_normal((1, 1, 3, 3)),
                        rng.standard_normal((4, 1)))
        assert elastic.served_flops(lay, 1) == (34, 288)
        assert cost.layer_cost(lay, 1, spatial=(8, 8)).flops == 2176

    def test_full_rank_exceeds_dense_conv(self):
        lay = _conv_layer(4, 4, 3, 3)
        assert elastic.conv_rank_schedule(lay, lay.k_max) == (4, 4)
        staged, rebuilt = elastic.served_flops(lay, lay.k_max)
        assert rebuilt == 2 * 4 * 4 * 3 * 3
        assert staged > rebuilt

    def test_matches_instrumented_forward(self):
        rng = _rng(5)
        c_o, c_i, r_o, r_i, kh, kw = 4, 3, 2, 2, 3, 3
        u_out = rng.standard_normal((c_o, r_o))
        core = rng.standard_normal((r_o, r_i, kh, kw))
        u_in = rng.standard_normal((c_i, r_i))
        x = rng.standard_normal((c_i, 5, 6))
        _, counted = counted_tucker2_conv(u_out, core, u_in, x)
        lay = _factored(elastic.CONV_TUCKER2, u_out, core, u_in)
        assert elastic.conv_rank_schedule(lay, 2) == (r_o, r_i)
        assert elastic.served_flops(lay, 2)[0] * 5 * 6 == counted

    def test_rank_validation(self):
        lay = _conv_layer(4, 4, 3, 3)
        for k in (0, lay.k_max + 1):
            with pytest.raises(ValueError, match="outside"):
                elastic.served_flops(lay, k)


class TestServedPath:
    """runs_staged and layer_cost both read served_flops, checked on
    every rank of small shapes against closed forms written here."""

    def test_dense_exhaustive(self):
        for m in range(1, 7):
            for n in range(1, 7):
                lay = _dense_layer(m, n, seed=m * 7 + n)
                for k in range(1, lay.k_max + 1):
                    staged, rebuilt = elastic.served_flops(lay, k)
                    assert (staged, rebuilt) \
                        == (k * (2 * m + 2 * n + 1), 2 * m * n)
                    assert elastic.runs_staged(lay, k) == (staged < rebuilt)
                    assert cost.layer_cost(lay, k).flops \
                        == min(staged, rebuilt)

    def test_conv_exhaustive(self):
        for c_o, c_i, kh, kw in [(4, 3, 3, 3), (2, 5, 1, 1), (6, 6, 3, 1),
                                 (3, 8, 1, 3), (5, 2, 3, 3)]:
            lay = _conv_layer(c_o, c_i, kh, kw, seed=c_o * c_i)
            for k in range(1, lay.k_max + 1):
                r_o, r_i = elastic.conv_rank_schedule(lay, k)
                staged, rebuilt = elastic.served_flops(lay, k)
                assert staged == 2 * (c_i * r_i + r_o * r_i * kh * kw
                                      + c_o * r_o)
                assert rebuilt == 2 * c_o * c_i * kh * kw
                assert elastic.runs_staged(lay, k) == (staged < rebuilt)
                assert cost.layer_cost(lay, k, spatial=(3, 5)).flops \
                    == 15 * min(staged, rebuilt)


class TestBytes:
    def test_hand_value_uniform_width(self):
        lay = _dense_layer(8, 8)
        assert cost.bytes_of(lay, 2, 8) == 34

    def test_half_width_halves_when_divisible(self):
        lay = _dense_layer(8, 8)
        assert cost.bytes_of(lay, 2, 4) == 17

    def test_per_tensor_ceiling(self):
        lay = _dense_layer(3, 3)
        # 3-bit: u 3 els -> ceil(9/8)=2, core 1 el -> 1, v -> 2; rounding
        # the 7 values together would give ceil(21/8)=3
        assert cost.bytes_of(lay, 1, 3) == 2 + 1 + 2

    def test_unquantized_counts_32_bit(self):
        lay = _dense_layer(8, 8)
        assert cost.bytes_of(lay, 2, None) == (16 + 16 + 2) * 4

    def test_conv_matches_schedule_counts(self):
        lay = _conv_layer(4, 3, 3, 3, seed=6)
        for k in range(1, lay.k_max + 1):
            r_o, r_i = elastic.conv_rank_schedule(lay, k)
            want = (-(-4 * r_o * 8 // 8) + -(-r_o * r_i * 9 * 8 // 8)
                    + -(-3 * r_i * 8 // 8))
            assert cost.bytes_of(lay, k, 8) == want


class TestLayerCost:
    def test_dense_fields(self):
        lc = cost.layer_cost(_dense_layer(8, 4), 2, 8)
        assert lc.flops == 2 * (2 * 8 + 2 * 4 + 1)
        assert lc.weight_bytes == cost.bytes_of(_dense_layer(8, 4), 2, 8)
        assert lc.activation_bytes == 12

    def test_conv_needs_spatial(self):
        lay = _conv_layer(4, 3, 3, 3)
        with pytest.raises(ValueError, match="spatial"):
            cost.layer_cost(lay, 2, 8)
        lc = cost.layer_cost(lay, 2, 8, spatial=(8, 8))
        r_o, r_i = elastic.conv_rank_schedule(lay, 2)
        assert lc.flops == 2 * 8 * 8 * (3 * r_i + r_o * r_i * 9 + 4 * r_o)
        assert lc.activation_bytes == (3 + 4) * 64

    def test_full_rank_conv_runs_and_is_priced_dense(self):
        for lay in (_conv_layer(4, 3, 3, 3), _conv_layer(4, 8, 1, 1),
                    _conv_layer(6, 6, 3, 1)):
            c_o, c_i, kh, kw = elastic.effective_weight(lay, lay.k_max).shape
            assert not elastic.runs_staged(lay, lay.k_max)
            assert cost.layer_cost(lay, lay.k_max, spatial=(5, 7)).flops \
                == 2 * 5 * 7 * c_o * c_i * kh * kw

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            cost.LayerCost(flops=-1, weight_bytes=0, activation_bytes=0)

    def test_profile_costs_resolves_profiles(self):
        net = network.Network((
            network.Block(elastic=_dense_layer(6, 4, seed=8),
                          activation=network.RELU),
            network.Block(elastic=_dense_layer(3, 6, seed=9)),
        ))
        rows = cost.profile_costs(net, [(2, 8), (1, 4)])
        assert len(rows) == 2
        assert rows[0].flops == 2 * (2 * 6 + 2 * 4 + 1)
        # full rank runs the rebuilt weight, priced at the dense 2mn
        full = cost.profile_costs(net, None)
        assert full[1].flops == 2 * 3 * 6


class TestThresholdRankDense:
    """The dense half of elastic.runs_staged: a layer runs staged exactly
    below its break-even rank, where k (2m + 2n + 1) < 2mn."""

    def test_square_case(self):
        lay = _dense_layer(64, 64)
        assert elastic.runs_staged(lay, 31)
        assert not elastic.runs_staged(lay, 32)

    def test_skinny_case_never_beneficial(self):
        assert not elastic.runs_staged(_dense_layer(100, 1), 1)

    def test_one_sided_guarantees_exhaustive(self):
        for m in range(1, 13):
            for n in range(1, 13):
                lay = _dense_layer(m, n, seed=m * 13 + n)
                for k in range(1, min(m, n) + 1):
                    assert elastic.runs_staged(lay, k) \
                        == (k * (2 * m + 2 * n + 1) < 2 * m * n)
                # the full rank always keeps the rebuilt weight
                assert not elastic.runs_staged(lay, lay.k_max)

    def test_exact_break_even_iff_on_divisible_shapes(self):
        # when (m+n) divides m*n, staged wins exactly below m*n/(m+n)
        for d in (2, 4, 6, 8, 10, 12):
            lay = _dense_layer(d, d, seed=d)
            for k in range(1, d + 1):
                assert elastic.runs_staged(lay, k) == (k < d // 2)

    def test_validation(self):
        lay = _dense_layer(4, 3)
        for k in (0, 4):
            with pytest.raises(ValueError, match="outside"):
                elastic.runs_staged(lay, k)


class TestNnls:
    def test_matches_scipy_on_random_problems(self):
        for seed in range(30):
            rng = _rng(100 + seed)
            m = int(rng.integers(8, 20))
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((m, n))
            # half the targets force active nonnegativity constraints
            b = a @ np.abs(rng.standard_normal(n)) \
                if seed % 2 == 0 else rng.standard_normal(m)
            x_got, r_got = cost.nnls(a, b)
            x_ref, r_ref = scipy.optimize.nnls(a, b)
            assert np.all(x_got >= 0.0)
            assert r_got == pytest.approx(r_ref, rel=1e-8, abs=1e-10)
            assert np.allclose(x_got, x_ref, atol=1e-8)

    def test_single_column_clamped_ratio(self):
        a = np.array([[1.0], [2.0], [3.0]])
        b_pos = np.array([2.0, 4.0, 6.0])
        x, _ = cost.nnls(a, b_pos)
        assert x[0] == pytest.approx(2.0, rel=1e-12)
        x, resid = cost.nnls(a, -b_pos)
        assert x[0] == 0.0
        assert resid == pytest.approx(np.linalg.norm(b_pos), rel=1e-12)


def _grid_rows(net, ks, qs):
    profiles = []
    for k0 in ks:
        for q0 in qs:
            for k1 in ks:
                for q1 in qs:
                    profiles.append([(k0, q0), (k1, q1)])
    rows = [cost.profile_costs(net, p) for p in profiles]
    return profiles, rows


def _two_layer_net():
    return network.Network((
        network.Block(elastic=_dense_layer(8, 6, seed=10),
                      activation=network.RELU),
        network.Block(elastic=_dense_layer(4, 8, seed=11)),
    ))


class TestFit:
    def test_plant_and_recover_zero_noise(self):
        net = _two_layer_net()
        _, rows = _grid_rows(net, (1, 2, 3, 4), (4, 8))
        intercept, comp, mem = 0.05, (2e-8, 5e-8), (3e-7, 1e-7)
        entries = []
        for i, row in enumerate(rows):
            lat = intercept
            for j, c in enumerate(row):
                lat += comp[j] * c.flops
                lat += mem[j] * (c.weight_bytes + c.activation_bytes)
            entries.append((f"p{i}", lat, None))
        table = cost.DeviceTable(device="planted", entries=tuple(entries))
        model = cost.fit_cost_model(table, rows)
        assert model.intercept == pytest.approx(intercept, rel=1e-6)
        assert model.comp == pytest.approx(comp, rel=1e-6)
        assert model.mem == pytest.approx(mem, rel=1e-6)
        assert model.mape_percent < 0.01
        assert model.r_squared > 0.999999

    def test_noisy_fit_stays_in_band(self):
        net = _two_layer_net()
        _, rows = _grid_rows(net, (1, 2, 3, 4), (4, 6, 8))
        table, _ = cost.synth_device_table(rows, seed=12)
        model = cost.fit_cost_model(table, rows)
        assert model.mape_percent < 5.0
        assert model.r_squared > 0.9

    def test_energy_target(self):
        net = _two_layer_net()
        _, rows = _grid_rows(net, (1, 2, 3), (4, 8))
        table, _ = cost.synth_device_table(rows, seed=13)
        model = cost.fit_cost_model(table, rows, target="energy")
        assert model.mape_percent < 5.0
        dry = cost.DeviceTable(
            device=table.device,
            entries=tuple((pid, lat, None) for pid, lat, _ in table.entries))
        with pytest.raises(ValueError, match="energy"):
            cost.fit_cost_model(dry, rows, target="energy")

    def test_underdetermined_rejected(self):
        net = _two_layer_net()
        rows = [cost.profile_costs(net, [(k, 8), (k, 8)])
                for k in (1, 2, 3)]
        table, _ = cost.synth_device_table(rows, seed=14)
        with pytest.raises(ValueError, match="underdetermined"):
            cost.fit_cost_model(table, rows)

    def test_all_zero_feature_rejected(self):
        zero = cost.LayerCost(flops=0, weight_bytes=0, activation_bytes=0)
        live = cost.LayerCost(flops=10, weight_bytes=5, activation_bytes=1)
        rows = [[zero, live] for _ in range(8)]
        for i, r in enumerate(rows):
            rows[i] = [zero, cost.LayerCost(10 + i, 5 + i, 1)]
        entries = tuple((f"p{i}", 1.0 + 0.1 * i, None)
                        for i in range(len(rows)))
        table = cost.DeviceTable(device="d", entries=entries)
        with pytest.raises(ValueError, match="all-zero"):
            cost.fit_cost_model(table, rows)

    def test_row_count_mismatch(self):
        net = _two_layer_net()
        _, rows = _grid_rows(net, (1, 2, 3), (4, 8))
        table, _ = cost.synth_device_table(rows, seed=15)
        with pytest.raises(ValueError, match="match"):
            cost.fit_cost_model(table, rows[:-1])


class TestPredict:
    def _model(self):
        return cost.CostModel(device="d", intercept=0.5, comp=(1e-6, 2e-6),
                              mem=(1e-5, 3e-5), r_squared=1.0,
                              mape_percent=0.0)

    def test_zero_cost_profile_hits_intercept(self):
        zero = cost.LayerCost(0, 0, 0)
        assert cost.predict(self._model(), [zero, zero]) == 0.5

    def test_linearity_without_intercept(self):
        model = cost.CostModel(device="d", intercept=0.0, comp=(1e-6, 2e-6),
                               mem=(1e-5, 3e-5), r_squared=1.0,
                               mape_percent=0.0)
        row = [cost.LayerCost(100, 20, 4), cost.LayerCost(50, 10, 2)]
        double = [cost.LayerCost(200, 40, 8), cost.LayerCost(100, 20, 4)]
        assert cost.predict(model, double) == pytest.approx(
            2.0 * cost.predict(model, row), rel=1e-12)

    def test_layer_count_mismatch(self):
        with pytest.raises(ValueError, match="layer count"):
            cost.predict(self._model(), [cost.LayerCost(1, 1, 1)])

    def test_held_out_mape(self):
        # fit on a subset of the grid, score on the held-out profiles of
        # the same device: one planted model, fresh rows
        net = _two_layer_net()
        _, rows = _grid_rows(net, (1, 2, 3, 4), (4, 6, 8))
        table, _ = cost.synth_device_table(rows, seed=16)
        train_idx = [i for i in range(len(rows)) if i % 3 != 0]
        test_idx = [i for i in range(len(rows)) if i % 3 == 0]
        train = cost.DeviceTable(
            device=table.device,
            entries=[table.entries[i] for i in train_idx])
        model = cost.fit_cost_model(train, [rows[i] for i in train_idx])
        preds = np.array([cost.predict(model, rows[i]) for i in test_idx])
        lats = np.array([table.entries[i][1] for i in test_idx])
        mape = 100.0 * np.mean(np.abs(preds - lats) / lats)
        assert mape < 6.0

    def test_coefficient_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            cost.CostModel(device="d", intercept=-0.1, comp=(), mem=(),
                           r_squared=1.0, mape_percent=0.0)


class TestMonotoneProposition:
    def test_ordered_profiles_order_predictions(self):
        net = _two_layer_net()
        profiles, rows = _grid_rows(net, (1, 2, 3, 4), (4, 8))
        table, _ = cost.synth_device_table(rows, seed=18)
        model = cost.fit_cost_model(table, rows)
        preds = [cost.predict(model, r) for r in rows]

        def leq(pa, pb):
            return all(ka <= kb and qa <= qb
                       for (ka, qa), (kb, qb) in zip(pa, pb))

        violations = 0
        for i, pa in enumerate(profiles):
            for j, pb in enumerate(profiles):
                if leq(pa, pb) and preds[i] > preds[j] * (1.0 + 1e-12):
                    violations += 1
        assert violations == 0


class TestDeviceTableIo:
    def test_csv_round_trip(self, tmp_path):
        entries = (("p0", 1.25, 3.5), ("p1", 0.75, None),
                   ("p2", 2.0 / 3.0, 1e-3))
        table = cost.DeviceTable(device="d", entries=entries)
        path = tmp_path / "table.csv"
        cost.write_device_table(table, path)
        back = cost.read_device_table(path, device="d")
        assert back.entries == entries

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,lat\np0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            cost.read_device_table(path)

    def test_positive_latency_enforced(self):
        with pytest.raises(ValueError, match="positive"):
            cost.DeviceTable(device="d", entries=(("p0", 0.0, None),))
        with pytest.raises(ValueError, match="positive"):
            cost.DeviceTable(device="d", entries=(("p0", 1.0, -2.0),))
