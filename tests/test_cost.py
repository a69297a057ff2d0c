"""Flop/byte accounting, the staged-or-rebuilt break-even, and per-layer
device tables: the planted synthetic prices, profile prices and the CSV
format."""

import itertools

import numpy as np
import pytest

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


def _two_layer_net():
    return network.Network((
        network.Block(elastic=_dense_layer(8, 6, seed=10),
                      activation=network.RELU),
        network.Block(elastic=_dense_layer(4, 8, seed=11)),
    ))


def _full_menus(net, widths=(4, 8, None)):
    """Every rank of each layer crossed with widths."""
    return [[(k, q) for k in range(1, b.elastic.k_max + 1) for q in widths]
            for b in net.blocks]


def _at_or_below(a, b):
    """Componentwise order of (k, q) entries, q None counting as 32."""
    return a[0] <= b[0] and (32 if a[1] is None else a[1]) \
        <= (32 if b[1] is None else b[1])


def _planted(seed, n):
    """synth_device_table's coefficients, drawn in its documented order."""
    rng = np.random.default_rng(seed)
    draw = [10.0 ** rng.uniform(-2.0, -1.0)]
    draw += [10.0 ** rng.uniform(-4.0, -3.0, n) for _ in range(2)]
    draw += [10.0 ** rng.uniform(-1.0, 0.0)]
    draw += [10.0 ** rng.uniform(-4.0, -3.0, n) for _ in range(2)]
    return draw


class TestSynthDeviceTable:
    def test_each_entry_is_the_planted_linear_price(self):
        for net, spatial in ((_two_layer_net(), None),
                             (network.Network((network.Block(
                                 elastic=_conv_layer(4, 3, 3, 3, seed=7)),)),
                              (5, 6))):
            menus = _full_menus(net, (4, None))
            table = cost.synth_device_table(net, menus, spatial,
                                            device="dev", seed=12)
            lat0, comp, mem, en0, e_comp, e_mem = _planted(12, len(menus))
            assert table.device == "dev"
            assert table.overhead == (lat0, en0)
            for ell, (blk, menu) in enumerate(zip(net.blocks, menus)):
                assert list(table.layers[ell]) == menu
                for k, q in menu:
                    c = cost.layer_cost(blk.elastic, k, q, spatial)
                    b = c.weight_bytes + c.activation_bytes
                    assert table.layers[ell][(k, q)] == (
                        comp[ell] * c.flops + mem[ell] * b,
                        e_comp[ell] * c.flops + e_mem[ell] * b)

    def test_prices_never_fall_along_a_layer_menu_order(self):
        dense = _two_layer_net()
        conv = network.Network((
            network.Block(elastic=_conv_layer(6, 3, 3, 3, seed=7),
                          activation=network.RELU),
            network.Block(elastic=_conv_layer(4, 6, 1, 1, seed=8)),
        ))
        for seed, (net, spatial) in itertools.product(
                range(3), ((dense, None), (conv, (4, 4)))):
            menus = _full_menus(net, (2, 3, 4, 8, 16, None))
            table = cost.synth_device_table(net, menus, spatial, seed=seed)
            for prices in table.layers:
                for a, b in itertools.product(prices, repeat=2):
                    if _at_or_below(a, b):
                        assert prices[a][0] <= prices[b][0]
                        assert prices[a][1] <= prices[b][1]


class TestMonotoneProposition:
    def test_ordered_profiles_order_predictions(self):
        # componentwise-ordered profiles are priced in the same order, in
        # latency and in energy
        net = _two_layer_net()
        menus = _full_menus(net)
        table = cost.synth_device_table(net, menus, seed=18)
        profiles = list(itertools.product(*menus))
        prices = [(cost.profile_price(table, p),
                   cost.profile_price(table, p, cost.ENERGY))
                  for p in profiles]
        for (pa, ca), (pb, cb) in itertools.product(zip(profiles, prices),
                                                    repeat=2):
            if all(map(_at_or_below, pa, pb)):
                assert ca[0] <= cb[0] and ca[1] <= cb[1]


class TestProfilePrice:
    def test_overhead_then_layers_in_order(self):
        table = cost.DeviceTable(
            device="d", overhead=(0.5, None),
            layers=({(1, 4): (0.25, None), (2, None): (1.5, None)},
                    {(1, 8): (0.125, None)}))
        assert cost.profile_price(table, [(2, None), (1, 8)]) \
            == (0.5 + 1.5) + 0.125
        assert cost.profile_price(table, [(1, 4), (1, 8)]) == 0.875


class TestDeviceTableIo:
    def test_csv_round_trip(self, tmp_path):
        net = _two_layer_net()
        table = cost.synth_device_table(net, _full_menus(net),
                                        device="d", seed=3)
        hand = cost.DeviceTable(
            device="d", overhead=(2.0 / 3.0, None),
            layers=({(1, None): (1.25, None), (3, 2): (1e-3, None)},
                    {(7, 32): (0.75, None)}))
        for t, name in ((table, "synth.csv"), (hand, "hand.csv")):
            path = tmp_path / name
            cost.write_device_table(t, path)
            back = cost.read_device_table(
                path, [list(p) for p in t.layers], device="d")
            assert back == t
            assert [list(p) for p in back.layers] == \
                [list(p) for p in t.layers]
        lines = (tmp_path / "hand.csv").read_text().splitlines()
        assert lines == ["layer,rank,bits,latency_ms,energy_mj",
                         f"overhead,,,{2.0 / 3.0!r},", "0,1,,1.25,",
                         "0,3,2,0.001,", "1,7,32,0.75,"]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text in ("id,lat\np0,1.0\n", "", "profile_id,latency_ms,"
                     "energy_mj\np0000,1.0,\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="header"):
                cost.read_device_table(path, [[(1, None)]])

    @pytest.mark.parametrize("text, message", [
        ("layer,rank,bits,latency_ms,energy_mj\n0,1,,1.0,\n",
         "device table has no overhead row"),
        ("layer,rank,bits,latency_ms,energy_mj\noverhead,,\n",
         "device table row 'overhead,,' needs 5 fields"),
        ("layer,rank,bits,latency_ms,energy_mj\noverhead,,,x,\n",
         "device table row 'overhead,,,x,': could not convert"),
        ("layer,rank,bits,latency_ms,energy_mj\noverhead,,,1.0,\n"
         "0,1,,1.0,\n0,1,,2.0,\n",
         "device table row '0,1,,2.0,' prices its entry twice"),
        ("layer,rank,bits,latency_ms,energy_mj\noverhead,,,1.0,\n"
         "1,1,,1.0,\n", "device table layers must be numbered 0, 1"),
        ("layer,rank,bits,latency_ms,energy_mj\noverhead,,,1.0,\n"
         "0,1,8,0.0,\n", r"latency of layer 0 at \(1, 8\) must be "
         "positive"),
        ("layer,rank,bits,latency_ms,energy_mj\noverhead,,,1.0,\n"
         "0,1,,inf,\n", r"latency of layer 0 at \(1, None\) must be "
         "positive and finite"),
        ("layer,rank,bits,latency_ms,energy_mj\noverhead,,,1.0,1.0\n"
         "0,1,,1.0,nan\n", r"energy of layer 0 at \(1, None\) must be "
         "positive and finite"),
        ("layer,rank,bits,latency_ms,energy_mj\noverhead,,,1.0,-2.0\n"
         "0,1,,1.0,1.0\n", "energy of the overhead must be positive and "
         "finite"),
        ("layer,rank,bits,latency_ms,energy_mj\noverhead,,,1.0,2.0\n"
         "0,1,,1.0,\n", "energy must be priced everywhere or nowhere"),
        ("layer,rank,bits,latency_ms,energy_mj\noverhead,,,1.0,\n"
         "0,1,,1e308,\n1,1,,1e308,\n", "device table latency prices "
         "overflow float64 when a profile sums them"),
        ("layer,rank,bits,latency_ms,energy_mj\noverhead,,,1.0,\n"
         "0,1,,1.0,\n1,1,,1.0,\n",
         "device table prices 2 layers, the profile has 1"),
        ("layer,rank,bits,latency_ms,energy_mj\noverhead,,,1.0,\n"
         "0,1,8,1.0,\n",
         "device table has no price for layer 0 at rank 1, float"),
    ], ids=["no-overhead", "short-row", "bad-number", "twice", "layer-gap",
            "zero-price", "inf-price", "nan-energy", "negative-energy",
            "partial-energy", "overflow", "layer-count", "unpriced-entry"])
    def test_malformed_table_rejected(self, tmp_path, text, message):
        # the table is read for a one-layer model whose menu is rank 1 in
        # float
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            cost.read_device_table(path, [[(1, None)]])
