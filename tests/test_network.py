"""Forward execution, conservative tail sensitivities, and the reverse
sweep."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastiq import certificate, cli, cost, elastic, linalg, manifest, \
    network, quant, train
from oracles import _act_apply, counted_tucker2_conv, naive_conv2d_same, \
    naive_dense_forward, stepwise_round_trip, tucker2_recompose
from test_cli import _cli_output


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


def _conv_net(seed, chans, acts, gamma_on=(), residual_on=()):
    """A 3x3 conv stack over channel counts chans, each layer with a
    bias, built like _dense_net."""
    rng = _rng(seed)
    blocks = []
    for i in range(len(chans) - 1):
        w = rng.standard_normal((chans[i + 1], chans[i], 3, 3))
        layer = elastic.from_conv(w, bias=0.1 * rng.standard_normal(
            chans[i + 1]))
        gamma = beta = None
        if i in gamma_on:
            gamma = 0.5 + rng.random(chans[i + 1])
            beta = 0.1 * rng.standard_normal(chans[i + 1])
        blocks.append(network.Block(
            elastic=layer, activation=acts[i], gamma=gamma, beta=beta,
            residual=i in residual_on))
    return network.Network(tuple(blocks))


class TestForward:
    def test_full_profile_bit_for_bit(self):
        net = _dense_net(20, (6, 5, 4), (network.RELU, network.IDENTITY),
                         gamma_on=(1,))
        x = _rng(21).standard_normal(6)
        full = network.forward(net, x).logits
        explicit = network.forward(
            net, x, [(b.elastic.k_max, None) for b in net.blocks]).logits
        assert np.array_equal(full, explicit)

    def test_single_layer_basis_vector_reads_column(self):
        net = network.Network((network.Block(
            elastic=elastic.from_dense(_rng(22).standard_normal((5, 4)))),))
        e1 = np.zeros(4)
        e1[0] = 1.0
        w_eff = elastic.effective_weight(net.blocks[0].elastic, 2)
        # rank 2 of 4 runs staged, ((e1 @ v) * sigma) @ u.T, which rounds
        # differently from reading the rebuilt column (2.2e-16 apart here)
        assert elastic.runs_staged(net.blocks[0].elastic, 2)
        got = network.forward(net, e1, [(2, None)]).logits
        np.testing.assert_allclose(got, w_eff[:, 0], rtol=1e-13, atol=0)

    def test_two_layer_relu_matches_naive_oracle(self):
        net = _dense_net(23, (6, 5, 3), (network.RELU, network.IDENTITY),
                         gamma_on=(1,))
        x = _rng(24).standard_normal(6)
        profile = [(3, None), (2, None)]
        got = network.forward(net, x, profile).logits

        weights = []
        for blk, (k, _) in zip(net.blocks, profile):
            f = blk.elastic.factors
            weights.append(f.u[:, :k] @ np.diag(f.core[:k]) @ f.v[:, :k].T)
        biases = [b.elastic.bias for b in net.blocks]
        norms = [None if b.gamma is None else (b.gamma, b.beta)
                 for b in net.blocks]
        acts = [lambda t: np.maximum(t, 0.0), lambda t: t]
        want = naive_dense_forward(weights, biases, acts, x, norms=norms)
        assert np.allclose(got, want, atol=1e-10)

    def test_residual_block_adds_input(self):
        net = _dense_net(25, (4, 4), (network.RELU,), residual_on=(0,))
        x = _rng(26).standard_normal(4)
        f = net.blocks[0].elastic.factors
        w = (f.u * f.core) @ f.v.T
        want = np.maximum(w @ x + net.blocks[0].elastic.bias, 0.0) + x
        assert np.allclose(network.forward(net, x).logits, want, atol=1e-12)

    def test_batched_matches_single(self):
        # a conv stack's single map runs as a batch of one and comes back
        # channel-first without the batch axis, like a dense row
        dense = _dense_net(27, (5, 6, 2), (network.GELU, network.IDENTITY))
        conv = _conv_net(27, (3, 8, 8, 2),
                         (network.RELU, network.GELU, network.IDENTITY),
                         gamma_on=(1,), residual_on=(1,))
        for net, xs, profile in (
                (dense, _rng(28).standard_normal((7, 5)),
                 [(4, 6), (2, None)]),
                (conv, _rng(28).standard_normal((7, 3, 5, 4)),
                 [(3, None), (2, 6), (8, None)])):
            batch = network.forward(net, xs, profile).logits
            for i in range(7):
                single = network.forward(net, xs[i], profile).logits
                assert single.shape == batch.shape[1:]
                assert np.allclose(batch[i], single, atol=1e-12)

    def test_trace_fidelity_per_block(self):
        # each recorded input, channel-first for a conv stack, feeds back
        # into forward on its one-block network and gives the next one
        acts = (network.RELU, network.GELU, network.IDENTITY)
        dense = _dense_net(29, (6, 5, 5, 3), acts, gamma_on=(1,),
                           residual_on=(1,))
        conv = _conv_net(29, (3, 8, 8, 2), acts, gamma_on=(1,),
                         residual_on=(1,))
        for net, x, profile in (
                (dense, _rng(30).standard_normal(6),
                 [(4, None), (3, 5), (2, None)]),
                (conv, _rng(30).standard_normal((2, 3, 6, 5)),
                 [(3, None), (2, 6), (8, None)])):
            tr = network.forward(net, x, profile)
            assert len(tr.inputs) == len(net.blocks)
            outputs = tr.inputs[1:] + [tr.logits]
            for i, blk in enumerate(net.blocks):
                sub = network.Network((blk,))
                redo = network.forward(sub, tr.inputs[i],
                                       [profile[i]]).logits
                assert redo.shape == outputs[i].shape
                assert np.allclose(redo, outputs[i], atol=1e-12, rtol=0)

    def test_conv_forward_matches_naive_oracle(self):
        rng = _rng(31)
        k1 = elastic.from_conv(rng.standard_normal((4, 3, 3, 3)),
                               bias=0.1 * rng.standard_normal(4))
        k2 = elastic.from_conv(rng.standard_normal((3, 4, 3, 3)))
        gamma = 0.5 + rng.random(3)
        net = network.Network((
            network.Block(elastic=k1, activation=network.RELU),
            network.Block(elastic=k2, gamma=gamma)))
        x = rng.standard_normal((2, 3, 5, 5))
        profile = [(3, None), (2, None)]
        got = network.forward(net, x, profile).logits

        w1 = elastic.effective_weight(k1, 3)
        w2 = elastic.effective_weight(k2, 2)
        h = naive_conv2d_same(x, w1) + k1.bias[:, None, None]
        h = np.maximum(h, 0.0)
        want = naive_conv2d_same(h, w2) * gamma[:, None, None]
        assert np.allclose(got, want, atol=1e-10)

    def test_profile_validation(self):
        net = _dense_net(32, (4, 3), (network.IDENTITY,))
        x = np.zeros(4)
        with pytest.raises(ValueError, match="length"):
            network.forward(net, x, [(1, None), (1, None)])
        with pytest.raises(ValueError, match="outside"):
            network.forward(net, x, [(9, None)])
        # entries are (k, q) pairs: no bare ranks, no longer tuples
        for bad in ([(1, None, 2)], [1]):
            with pytest.raises((TypeError, ValueError)):
                network.forward(net, x, bad)

    def test_input_shape_validation(self):
        net = _dense_net(33, (4, 3), (network.IDENTITY,))
        with pytest.raises(ValueError, match="width"):
            network.forward(net, np.zeros(5))
        with pytest.raises(ValueError, match="rank"):
            network.forward(net, np.zeros((2, 2, 4)))


def _conv_stack(arch, seed):
    """Small random conv stacks: two 3x3 layers, two 1x1 layers, a 3x3
    layer into an 8->4 1x1 bottleneck, or a 3x3 layer into a residual 3x3
    block. Relu with a frozen norm first, identity head, biases."""
    rng = _rng(seed)
    c0, c1, c2 = (int(c) for c in rng.integers(1, 7, 3))
    layers = {
        "3x3": [(c1, c0, 3), (c2, c1, 3)],
        "1x1": [(c1, c0, 1), (c2, c1, 1)],
        "bottleneck": [(8, c0, 3), (4, 8, 1)],
        "residual": [(c1, c0, 3), (c1, c1, 3)],
    }[arch]
    blocks = []
    for i, (c_out, c_in, side) in enumerate(layers):
        lay = elastic.from_conv(
            rng.standard_normal((c_out, c_in, side, side)),
            bias=0.1 * rng.standard_normal(c_out))
        head = i == len(layers) - 1
        blocks.append(network.Block(
            elastic=lay,
            activation=network.IDENTITY if head else network.RELU,
            gamma=None if head else 0.5 + rng.random(c_out),
            residual=head and arch == "residual"))
    return network.Network(tuple(blocks)), c0


def _quantized_slices(lay, k, q):
    """Rank-k Tucker-2 slices through the package round trip."""
    f = lay.factors
    r_o, r_i = elastic.conv_rank_schedule(lay, k)
    return tuple(
        t if q is None else quant.round_trip(t, q)
        for t in (f.u[:, :r_o], f.core[:r_o, :r_i], f.v[:, :r_i]))


class TestConvExecution:
    def test_conv2d_value_matches_naive_loops(self):
        # the channel-last blocked im2col GEMM conv that serves conv layers
        rng = _rng(3)
        x = rng.standard_normal((2, 3, 5, 4))
        k = rng.standard_normal((4, 3, 3, 3))
        got = network._conv_same_value(x.transpose(0, 2, 3, 1), k)
        assert np.allclose(got.transpose(0, 3, 1, 2),
                           naive_conv2d_same(x, k), atol=1e-12)

    @pytest.mark.parametrize("x_shape, k_shape, block_rows", [
        # 25 rows in blocks of 3: eight blocks, most across an image
        # boundary, and a 1-row remainder
        ((5, 3, 5, 4), (4, 3, 3, 3), 3),
        # a 9-row map in blocks of 2: runs of rows inside one image, each
        # with a 2-row halo of the 5x5 kernel
        ((1, 2, 9, 6), (3, 2, 5, 5), 2),
        # a budget below one row: every row is a block alone
        ((2, 3, 4, 3), (2, 3, 3, 3), 0),
        # maps smaller than the kernel
        ((3, 2, 1, 1), (4, 2, 3, 3), None),
        ((3, 2, 1, 4), (4, 2, 3, 3), None),
        ((3, 2, 2, 1), (4, 2, 3, 3), None),
        ((2, 2, 1, 4), (3, 2, 5, 5), None),
        ((2, 2, 2, 1), (3, 2, 5, 5), 1),
        # 1x1 and 5x5 kernels, also across blocks
        ((4, 5, 3, 4), (6, 5, 1, 1), None),
        ((4, 5, 3, 4), (6, 5, 1, 1), 5),
        ((3, 2, 6, 7), (3, 2, 5, 5), None),
        ((3, 2, 6, 7), (3, 2, 5, 5), 4),
        ((2, 2, 6, 7), (3, 2, 5, 3), 4),
    ])
    def test_blocked_conv_matches_naive_loops(self, x_shape, k_shape,
                                              block_rows, monkeypatch):
        rng = _rng(sum(x_shape) + sum(k_shape))
        x = rng.standard_normal(x_shape)
        k = rng.standard_normal(k_shape)
        if block_rows is not None:
            _, c, kh, kw = k_shape
            # the budget holds block_rows output rows of patch columns
            monkeypatch.setattr(network, "_CONV_BLOCK_BYTES",
                                block_rows * x_shape[3] * kh * kw * c * 8)
        want = naive_conv2d_same(x, k)
        # a channel-last view of channel-first maps, as the first conv
        # layer reads it, and contiguous channel-last maps, as later
        # layers do
        for xs in (x.transpose(0, 2, 3, 1),
                   np.ascontiguousarray(x.transpose(0, 2, 3, 1))):
            got = network._conv_same_value(xs, k).transpose(0, 3, 1, 2)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("x_shape, k_shape, block_rows, gemm_rows", [
        # the default budget: single images and small batches of 3x3,
        # 1x1 and 5x5 convs on square and non-square maps, one block each
        ((1, 3, 8, 8), (4, 3, 3, 3), None, [64]),
        ((1, 2, 5, 3), (3, 2, 1, 1), None, [15]),
        ((1, 2, 3, 7), (3, 2, 5, 5), None, [21]),
        ((3, 4, 2, 7), (2, 4, 5, 3), None, [42]),
        ((2, 3, 6, 4), (5, 3, 3, 3), None, [48]),
        # a budget of two whole 5-row images: a batch of three spans two
        # blocks
        ((3, 2, 5, 4), (3, 2, 3, 3), 10, [40, 20]),
        # one image's columns exceed a two-row budget: it splits into row
        # blocks, each with its halo
        ((1, 2, 9, 6), (3, 2, 5, 5), 2, [12, 12, 12, 12, 6]),
        # two such images split one after the other, no block across them
        ((2, 2, 5, 3), (3, 2, 3, 3), 2, [6, 6, 3, 6, 6, 3]),
    ])
    def test_blocks_hold_whole_images_or_rows_of_one(
            self, x_shape, k_shape, block_rows, gemm_rows, monkeypatch):
        rng = _rng(sum(x_shape) + sum(k_shape) + 1)
        x = rng.standard_normal(x_shape)
        k = rng.standard_normal(k_shape)
        if block_rows is not None:
            _, c, kh, kw = k_shape
            monkeypatch.setattr(network, "_CONV_BLOCK_BYTES",
                                block_rows * x_shape[3] * kh * kw * c * 8)
        want = naive_conv2d_same(x, k)
        real = np.matmul
        for xs in (x.transpose(0, 2, 3, 1),
                   np.ascontiguousarray(x.transpose(0, 2, 3, 1))):
            written = []

            def gemm(a, b, out):
                written.append(out.shape[0])
                return real(a, b, out=out)

            with monkeypatch.context() as mp:
                mp.setattr(network.np, "matmul", gemm)
                got = network._conv_same_value(xs, k).transpose(0, 3, 1, 2)
            # one GEMM per block, writing its output pixels
            assert written == gemm_rows
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_single_image_forward_memory_is_one_block(self):
        rng = _rng(8)
        c, side = 16, 8
        lay = elastic.from_conv(rng.standard_normal((c, c, 3, 3)),
                                bias=0.1 * rng.standard_normal(c))
        assert not elastic.runs_staged(lay, lay.k_max)
        net = network.Network((network.Block(
            elastic=lay, activation=network.RELU),))
        x = rng.standard_normal((c, side, side))
        network.forward(net, x)
        tracemalloc.start()
        try:
            logits = network.forward(net, x).logits
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the image's own columns and its zero-bordered copy, beside the
        # rebuilt kernel and its (kh*kw*c, o) layout
        columns = side * side * 9 * c * 8
        padded_block = (side + 2) ** 2 * c * 8
        kernels = 2 * c * c * 9 * 8
        assert peak <= logits.nbytes + columns + padded_block + kernels \
            + 8 * 1024

    @pytest.mark.parametrize("x_shape", [(256, 16, 8, 8), (16, 64, 64)])
    def test_forward_memory_is_bounded_by_one_block(self, x_shape):
        # no whole-batch im2col: a forward peaks at its output plus one
        # column buffer and one padded block
        rng = _rng(7)
        c = 16
        lay = elastic.from_conv(rng.standard_normal((c, c, 3, 3)),
                                bias=0.1 * rng.standard_normal(c))
        assert not elastic.runs_staged(lay, lay.k_max)
        net = network.Network((network.Block(
            elastic=lay, activation=network.RELU),))
        x = rng.standard_normal(x_shape)
        network.forward(net, x)
        tracemalloc.start()
        try:
            logits = network.forward(net, x).logits
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the block budget stays cache-sized, far below the 18.9 MB and
        # 4.7 MB whole-batch column buffers of these two inputs
        budget = network._CONV_BLOCK_BYTES
        assert budget <= 512 * 1024
        w = x_shape[-1]
        rows = budget // (w * 9 * c * 8)
        padded_block = (rows + 2) * (w + 2) * c * 8
        assert peak <= logits.nbytes + budget + padded_block + 64 * 1024

    @given(arch=st.sampled_from(["3x3", "1x1", "bottleneck", "residual"]),
           seed=st.integers(0, 2 ** 16), side=st.tuples(
               st.integers(1, 4), st.integers(1, 4)),
           batch=st.sampled_from([1, 3]), data=st.data())
    @settings(deadline=None, max_examples=150)
    def test_forward_matches_naive_oracles(self, arch, seed, side, batch,
                                           data):
        net, c0 = _conv_stack(arch, seed)
        bits = st.sampled_from([None, 4, 6, 8])
        profile = [(data.draw(st.integers(1, b.elastic.k_max)),
                    data.draw(bits)) for b in net.blocks]
        x = _rng(seed + 1).standard_normal((batch, c0) + side)
        kernels = []
        real = network._conv_same_value

        def spy(xs, kernel):
            kernels.append(kernel.shape)
            return real(xs, kernel)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(network, "_conv_same_value", spy)
            got = network.forward(net, x[0] if batch == 1 else x,
                                  profile).logits

        a = x
        for blk, (k, q), shape in zip(net.blocks, profile, kernels):
            lay = blk.elastic
            u, core, v = _quantized_slices(lay, k, q)
            staged = elastic.runs_staged(lay, k)
            # the executed kernel is the core when staged, else rebuilt
            assert shape[:2] == (core.shape[:2] if staged
                                 else (lay.out_features, lay.in_features))
            c = cost.layer_cost(lay, k, q, spatial=side)
            dense_flops = 2 * np.prod(side) * lay.out_features \
                * lay.in_features * np.prod(core.shape[2:])
            (r_o, r_i, kh, kw), (c_o, c_i) = core.shape, \
                (lay.out_features, lay.in_features)
            staged_flops = 2 * np.prod(side) * (c_i * r_i + r_o * r_i * kh
                                                * kw + c_o * r_o)
            assert staged == (staged_flops < dense_flops)
            assert c.flops == min(staged_flops, dense_flops)
            if staged:
                _, counted = counted_tucker2_conv(u, core, v, a[0])
                assert counted == c.flops
            kernel = tucker2_recompose(linalg.Factors(u, core, v))
            pre = naive_conv2d_same(a, kernel) + lay.bias[:, None, None]
            if blk.gamma is not None:
                pre = pre * blk.gamma[:, None, None] \
                    + blk.beta[:, None, None]
            h = np.maximum(pre, 0.0) if blk.activation == network.RELU \
                else pre
            a = h + a if blk.residual else h
        assert len(kernels) == len(net.blocks)
        want = a[0] if batch == 1 else a
        assert np.linalg.norm(got - want) \
            <= 1e-12 * np.linalg.norm(want)


def _dense_stack(seed, n_layers):
    """Random dense stack: relu or gelu hidden blocks, a frozen norm and a
    skip connection where a draw asks (skips only on square layers)."""
    rng = _rng(seed)
    dims = [int(d) for d in rng.integers(1, 9, n_layers + 1)]
    blocks = []
    for i in range(n_layers):
        m, n = dims[i + 1], dims[i]
        head = i == n_layers - 1
        blocks.append(network.Block(
            elastic=elastic.from_dense(rng.standard_normal((m, n)),
                                       bias=0.1 * rng.standard_normal(m)),
            activation=network.IDENTITY if head
            else (network.RELU, network.GELU)[int(rng.integers(2))],
            gamma=0.5 + rng.random(m) if rng.random() < 0.5 else None,
            residual=m == n and rng.random() < 0.5))
    return network.Network(tuple(blocks)), dims[0]


def _quantized_weight(lay, k, q):
    """Rank-k dense weight rebuilt from factor slices quantized with the
    stepwise quantizer."""
    f = lay.factors
    u, s, v = (
        t if q is None else stepwise_round_trip(t, q)
        for t in (f.u[:, :k], f.core[:k], f.v[:, :k]))
    return u @ np.diag(s) @ v.T


class TestDenseExecution:
    @given(seed=st.integers(0, 2 ** 16), n_layers=st.integers(1, 3),
           batch=st.sampled_from([1, 3]), data=st.data())
    @settings(deadline=None, max_examples=150)
    def test_forward_matches_naive_oracles(self, seed, n_layers, batch,
                                           data):
        net, n0 = _dense_stack(seed, n_layers)
        bits = st.sampled_from([None, 4, 6, 8])
        profile = [(data.draw(st.integers(1, b.elastic.k_max)),
                    data.draw(bits)) for b in net.blocks]
        x = _rng(seed + 1).standard_normal((batch, n0))
        rebuilt = []
        real = elastic.effective_weight

        def spy(lay, *args):
            rebuilt.append(lay)
            return real(lay, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(elastic, "effective_weight", spy)
            got = network.forward(net, x[0] if batch == 1 else x,
                                  profile).logits

        # the executed path follows runs_staged: only layers it leaves
        # unstaged rebuild their weight
        assert [id(lay) for lay in rebuilt] == [
            id(b.elastic) for b, (k, _) in zip(net.blocks, profile)
            if not elastic.runs_staged(b.elastic, k)]
        weights = [_quantized_weight(b.elastic, k, q)
                   for b, (k, q) in zip(net.blocks, profile)]
        want = naive_dense_forward(
            weights, [b.elastic.bias for b in net.blocks],
            [lambda z, a=b.activation: _act_apply(a, z) for b in net.blocks],
            x, norms=[None if b.gamma is None else (b.gamma, b.beta)
                      for b in net.blocks],
            residual=[b.residual for b in net.blocks])
        want = want[0] if batch == 1 else want
        assert np.linalg.norm(got - want) \
            <= 1e-12 * np.linalg.norm(want)

    def test_full_profile_runs_the_rebuilt_weight_bit_for_bit(self):
        net = _dense_net(60, (7, 9, 9, 4),
                         (network.GELU, network.RELU, network.IDENTITY),
                         gamma_on=(1,), residual_on=(1,))
        xs = _rng(61).standard_normal((5, 7))
        for x in (xs, xs[2]):
            tr = network.forward(net, x, None)
            a = x
            for i, blk in enumerate(net.blocks):
                lay = blk.elastic
                assert not elastic.runs_staged(lay, lay.k_max)
                assert np.array_equal(tr.inputs[i], a)
                pre = a @ elastic.effective_weight(lay, lay.k_max).T \
                    + lay.bias
                if blk.gamma is not None:
                    pre = pre * blk.gamma + blk.beta
                h = network._act_value(blk.activation, pre)
                a = h + a if blk.residual else h
            assert np.array_equal(tr.logits, a)


class TestForwardMemory:
    def test_batch_forward_retains_one_activation_per_relu_block(self):
        # relu runs in place, so a dense trace holds each relu block's
        # output once, as the next block's input and as backward's pre.
        # A second copy per block doubled what a batch forward retains,
        # which then passed glibc's heap trim threshold once the largest
        # buffer freed so far (a manifest's text) was small: dropping the
        # trace returned its memory to the OS, and the next call
        # page-faulted it back in
        rng = _rng(70)
        dims = (64, 96, 96, 96, 10)
        net = network.Network(tuple(
            network.Block(
                elastic=elastic.from_dense(
                    rng.standard_normal((m, n)) / np.sqrt(n),
                    bias=0.1 * rng.standard_normal(m)),
                activation=network.RELU if m != dims[-1]
                else network.IDENTITY)
            for n, m in zip(dims, dims[1:])))
        x = rng.standard_normal((256, dims[0]))
        network.forward(net, x)
        tracemalloc.start()
        try:
            trace = network.forward(net, x)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        activation = x.shape[0] * 96 * 8
        relu_blocks = len(dims) - 2
        # one activation more covers the logits; 4 KiB the trace's lists
        assert retained <= (relu_blocks + 1) * activation + 4096
        assert all(trace.pre[i] is trace.inputs[i + 1]
                   for i in range(relu_blocks))


class TestLogitDrift:
    def test_full_profile_zero(self):
        net = _dense_net(40, (5, 4), (network.GELU,))
        x = _rng(41).standard_normal((1, 5))
        assert network.logit_drift(net, x, None).tolist() == [0.0]

    def test_matches_two_forward_difference(self):
        net = _dense_net(42, (6, 5, 4), (network.IDENTITY, network.IDENTITY),
                         gamma_on=(1,))
        x = _rng(43).standard_normal(6)
        profile = [(1, None), (4, None)]
        (got,) = network.logit_drift(net, x[None], profile)

        f = net.blocks[0].elastic.factors
        w_full = (f.u * f.core) @ f.v.T
        w_trunc = f.core[0] * np.outer(f.u[:, 0], f.v[:, 0])
        f2 = net.blocks[1].elastic.factors
        w2 = (f2.u * f2.core) @ f2.v.T
        tail = net.blocks[1].gamma * (w2 @ ((w_trunc - w_full) @ x))
        assert got == pytest.approx(np.linalg.norm(tail), rel=1e-10)

    def test_nonnegative_and_batched(self):
        net = _dense_net(44, (5, 5, 3), (network.RELU, network.IDENTITY))
        xs = _rng(45).standard_normal((6, 5))
        profile = [(2, 4), (1, None)]
        d = network.logit_drift(net, xs, profile)
        assert d.shape == (6,)
        assert np.all(d >= 0.0)
        one = network.logit_drift(net, xs[:1], profile)
        assert one.shape == (1,)
        assert one[0] == pytest.approx(d[0], rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_drift_rejected(self):
        # finite logits whose difference squares past float64
        net = _dense_net(44, (5, 5, 3), (network.RELU, network.IDENTITY))
        xs = np.full((2, 5), 1e200)
        for x in (xs, xs[:1]):
            with pytest.raises(ValueError, match="drift overflows float64"):
                network.logit_drift(net, x, [(2, 4), (1, None)])


class TestWeightGain:
    def test_never_below_true_norm_with_clustered_top_spectrum(self):
        # four near-equal leading singular values, where an iterative
        # estimate falls short; the gain must still bound LAPACK's norm
        rng = _rng(60)
        for _ in range(200):
            q1, _ = np.linalg.qr(rng.standard_normal((48, 48)))
            q2, _ = np.linalg.qr(rng.standard_normal((48, 48)))
            sigma = np.concatenate((1.0 - 1e-4 * np.arange(4),
                                    rng.uniform(0.1, 1.0, 44)))
            w = (q1 * sigma) @ q2.T
            assert network.weight_gain(w) >= np.linalg.svd(
                w, compute_uv=False)[0]


class TestPostlayerLipschitz:
    """Conservative sensitivities: lipschitz_proxy(net, [None])[0][ell] is
    block ell's local scale times the product of the downstream block
    gains."""

    def test_identity_tail_is_one(self):
        net = _dense_net(50, (4, 3), (network.RELU,))
        assert certificate.lipschitz_proxy(net, [None]) == [[1.0]]

    def test_diagonal_tail_value(self):
        l1 = elastic.from_dense(_rng(51).standard_normal((3, 3)))
        l2 = elastic.from_dense(np.diag([3.0, 3.0, 3.0]))
        net = network.Network((network.Block(elastic=l1),
                               network.Block(elastic=l2)))
        # tail gains carry spectral_norm's 1e-8 relative upper-bound slack
        assert certificate.lipschitz_proxy(net, [None])[0][0] \
            == pytest.approx(3.0 * (1.0 + 1e-8), rel=1e-9)

    def test_gelu_uses_conservative_slope(self):
        # the erf-form gelu's slope, Phi(x) + x phi(x), peaks at x = sqrt 2
        x = math.sqrt(2.0)
        peak = 0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) \
            + x * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        assert 1.12890 < peak < 1.12891
        assert network.GELU_LIPSCHITZ >= peak
        eye = elastic.from_dense(np.eye(3))
        net = network.Network((network.Block(elastic=eye),
                               network.Block(elastic=eye,
                                             activation=network.GELU)))
        head, tail = certificate.lipschitz_proxy(net, [None])[0]
        assert tail == pytest.approx(1.13, rel=1e-12)
        assert head == pytest.approx(1.13, rel=1e-7)

    def test_bound_dominates_sampled_directional_gains(self):
        net = _dense_net(52, (5, 6, 4, 3),
                         (network.RELU, network.RELU, network.IDENTITY),
                         gamma_on=(1,))
        # block 0 is a relu without norm, so its local scale is 1 and its
        # sensitivity bounds the gain from block 1's input to the logits
        bound = certificate.lipschitz_proxy(net, [None])[0][0]
        tail = network.Network(net.blocks[1:])
        rng = _rng(53)
        h = rng.standard_normal((1000, 6))
        d = rng.standard_normal((1000, 6))
        eps = 1e-4
        za = network.forward(tail, h).logits
        zb = network.forward(tail, h + eps * d).logits
        gains = (np.linalg.norm(zb - za, axis=1)
                 / (eps * np.linalg.norm(d, axis=1)))
        assert np.max(gains) <= bound * (1.0 + 1e-9)

    def test_residual_never_decreases_bound(self):
        net = _dense_net(54, (4, 4, 4), (network.RELU, network.IDENTITY))
        plain = certificate.lipschitz_proxy(net, [None])[0][0]
        blocks = list(net.blocks)
        blocks[1] = dataclasses.replace(blocks[1], residual=True)
        boosted = certificate.lipschitz_proxy(
            network.Network(tuple(blocks)), [None])[0][0]
        assert boosted >= plain

    def test_index_range_validated(self):
        # a profile names exactly one (k, q) pair per layer index
        net = _dense_net(55, (4, 3), (network.RELU,))
        for bad in ([], [(1, None)] * 2):
            with pytest.raises(ValueError, match="layer count"):
                certificate.lipschitz_proxy(net, [bad])


def _rebuilt(net, bi, attr, new, where="factor"):
    """net with one factor (where="factor") or layer attribute
    (where="layer") of block bi replaced."""
    blocks = list(net.blocks)
    lay = blocks[bi].elastic
    if where == "factor":
        lay = dataclasses.replace(lay, factors=dataclasses.replace(
            lay.factors, **{attr: new}))
    else:
        lay = dataclasses.replace(lay, **{attr: new})
    blocks[bi] = dataclasses.replace(blocks[bi], elastic=lay)
    return network.Network(tuple(blocks))


def _sweep_grads(net, x, profile, upstream_of):
    """Forward a (rows, features) batch under profile, then turn the
    reverse sweep seeded with upstream_of(logits) into each layer's
    u/core/v/bias gradients, as the trainer does."""
    tr = network.forward(net, x, profile)
    return tr, train._layer_grads(net, tr, network.resolve_profile(
        net, profile), upstream_of(tr.logits))


class TestBackward:
    def test_identity_net_bias_grad_equals_upstream(self):
        lay = elastic.from_dense(np.eye(3), bias=np.zeros(3))
        net = network.Network((network.Block(elastic=lay),))
        x = _rng(60).standard_normal((1, 3))
        y = np.array([0.5, -1.0, 2.0])
        tr, grads = _sweep_grads(net, x, None, lambda z: 2.0 * (z - y))
        assert np.allclose(grads[0]["bias"], 2.0 * (tr.logits[0] - y),
                           atol=0)

    def test_zero_upstream_all_zero(self):
        net = _dense_net(61, (4, 4, 2), (network.GELU, network.IDENTITY),
                         gamma_on=(0,))
        x = _rng(62).standard_normal((1, 4))
        _, grads = _sweep_grads(net, x, [(3, 5), (2, None)],
                                np.zeros_like)
        for layer_grads in grads:
            assert sorted(layer_grads) == ["bias", "core", "u", "v"]
            for g in layer_grads.values():
                assert np.all(g == 0.0)

    def test_conv_nets_rejected(self, tmp_path):
        # backward trusts its caller to hand it a dense stack; the sampled
        # proxy, the one path from a loaded model to a backward sweep,
        # refuses a conv model first
        lay = elastic.from_conv(_rng(58).standard_normal((4, 3, 3, 3)))
        model, calib, out = (tmp_path / n for n in (
            "conv.json", "calib.npz", "out.json"))
        manifest.write_manifest(manifest.network_to_doc(
            network.Network((network.Block(elastic=lay),))), model)
        np.savez(calib, x=_rng(59).standard_normal((2, 3, 5, 5)))
        assert _cli_output("certify", model, "--mode", "poweriter",
                           "--profiles", "1", "--calib", calib,
                           "--out", out) == (
            cli.EXIT_ERROR, "",
            "error: sampled proxy supports dense stacks only\n")
        assert not out.exists()

    def test_finite_difference_all_parameter_classes(self):
        net = _dense_net(65, (4, 5, 3), (network.GELU, network.GELU),
                         gamma_on=(0,))
        x = _rng(67).standard_normal((1, 4))
        # layer 0 truncated to rank 3 of 4, as the compressed view
        profile = [(3, None), (3, None)]

        def loss(a_net):
            return float(np.sum(network.forward(a_net, x, profile).logits
                                ** 2))

        _, grads = _sweep_grads(net, x, profile, lambda z: 2.0 * z)

        spots = [
            (0, "u", "factor", (1, 2)),
            (0, "u", "factor", (1, 3)),
            (0, "core", "factor", (0,)),
            (0, "v", "factor", (2, 1)),
            (0, "bias", "layer", (0,)),
            (1, "u", "factor", (0, 2)),
            (1, "core", "factor", (2,)),
            (1, "v", "factor", (1, 0)),
            (1, "bias", "layer", (1,)),
        ]
        h = 1e-5
        for bi, key, where, pos in spots:
            lay = net.blocks[bi].elastic
            arr = lay.bias if key == "bias" \
                else dict(network._factor_arrays(lay))[key]
            ap, am = arr.copy(), arr.copy()
            ap[pos] += h
            am[pos] -= h
            lp = loss(_rebuilt(net, bi, key, ap, where))
            lm = loss(_rebuilt(net, bi, key, am, where))
            want = (lp - lm) / (2 * h)
            assert grads[bi][key][pos] == pytest.approx(want, rel=1e-4,
                                                        abs=1e-9)

    def test_quantized_layer_grads_match_surrogate_fd(self):
        rng = _rng(70)
        w = rng.standard_normal((4, 5))
        lay = elastic.from_dense(w, bias=0.1 * rng.standard_normal(4))
        net = network.Network((network.Block(elastic=lay),))
        x = rng.standard_normal((1, 5))
        k, bits = 3, 6
        tr, grads = _sweep_grads(net, x, [(k, bits)], lambda z: 2.0 * z)

        # the straight-through surrogate: each factor slice plus its
        # rounding residual, all three frozen at the operating point
        f = lay.factors
        glim = 2 ** (bits - 1) - 1

        def residual(t):
            s0 = np.max(np.abs(t)) / glim
            return np.clip(np.rint(t / s0), -glim, glim) * s0 - t

        stored = {"u": f.u, "core": f.core, "v": f.v}
        resid = {"u": residual(f.u[:, :k]), "core": residual(f.core[:k]),
                 "v": residual(f.v[:, :k])}

        def sur_loss(name, value):
            served = {key: arr[..., :k] + resid[key] for key, arr in
                      dict(stored, **{name: value}).items()}
            weff = (served["u"] * served["core"]) @ served["v"].T
            z = weff @ x[0] + lay.bias
            return float(np.sum(z ** 2))

        assert sur_loss("u", f.u) == pytest.approx(
            float(np.sum(tr.logits ** 2)), rel=1e-12)
        assert list(grads[0]) == ["u", "core", "v", "bias"]
        h = 1e-6
        for name, positions in (("u", [(0, 0), (2, 1), (3, 2)]),
                                ("core", [(0,), (2,)]),
                                ("v", [(0, 0), (4, 2)])):
            for pos in positions:
                up, um = stored[name].copy(), stored[name].copy()
                up[pos] += h
                um[pos] -= h
                want = (sur_loss(name, up) - sur_loss(name, um)) / (2 * h)
                assert grads[0][name][pos] == pytest.approx(
                    want, rel=1e-5, abs=1e-9)
            assert np.all(grads[0][name][..., k:] == 0.0)
