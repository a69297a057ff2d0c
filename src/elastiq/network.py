"""Feed-forward execution and its reverse sweep at desk scale.

One forward pass carries the block semantics (linear map, optional bias,
optional frozen affine norm, activation, optional skip connection), and
one reverse sweep differentiates it:

* ``forward`` runs plain numpy on a hard per-layer (rank, bits) plan and
  records each block's input and, in a dense stack, its post-norm
  pre-activation. Each layer runs staged through its served factor slices
  when ``elastic.runs_staged`` says that takes fewer FLOPs, otherwise
  through the rebuilt weight: dense layers as ``((x @ v) * core) @ u.T``
  or one matmul, conv layers on channel-last maps as one im2col GEMM per
  cache-sized block of output rows, staged through the Tucker-2 factors
  (1x1 reduce, spatial conv with the core, 1x1 expand) or through the
  rebuilt kernel.
* ``backward`` walks a dense stack's forward trace from the logits back
  and returns, per block, the derivative at the signal right after the
  weight multiply. Seeded with the identity it gives the Jacobians of the
  logits; seeded with a loss's logit gradient it gives the gradient the
  trainer turns into factor and bias gradients.
"""

from dataclasses import dataclass

import numpy as np

from . import elastic, linalg

RELU = "relu"
GELU = "gelu"
IDENTITY = "identity"

# global slope bound used for conservative gains; the true supremum of the
# erf-form gelu derivative is ~1.0998
GELU_LIPSCHITZ = 1.1

_SQRT2 = np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _gelu_gate(x):
    """1 + erf(x / sqrt 2). scipy is imported here, at the first GELU
    evaluation, so importing the package does not load it."""
    from scipy.special import erf
    return 1.0 + erf(x / _SQRT2)


def _act_value(name, x):
    """A named activation applied elementwise. relu overwrites x, which
    must be a fresh array, and returns it."""
    if name == RELU:
        return np.maximum(x, 0.0, out=x)
    if name == GELU:
        return 0.5 * x * _gelu_gate(x)
    return x


def _act_grad(name, x):
    """Elementwise derivative of a named activation (relu: 0 at 0)."""
    if name == RELU:
        return (x > 0.0).astype(np.float64)
    if name == GELU:
        phi = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return 0.5 * _gelu_gate(x) + x * phi
    return np.ones_like(x)


# byte budget of one conv block's patch columns: a 512 KiB buffer stays in
# cache, and whole-batch im2col ran slower
_CONV_BLOCK_BYTES = 512 * 1024


def _copy_rows(x, lo, hi, dst):
    """Copy rows lo..hi of x's flattened (b*h) row axis into dst, a
    (hi - lo, w, c) view: at most three slice copies whatever x's
    strides, so a channel-last view of channel-first maps is never
    copied whole."""
    h = x.shape[1]
    i, y = divmod(lo, h)
    j, z = divmod(hi - 1, h)
    if i == j:
        dst[...] = x[i, y:z + 1]
        return
    head, mid = h - y, (j - i - 1) * h
    dst[:head] = x[i, y:]
    # splitting dst's row axis into (images, h) is always a view
    dst[head:head + mid].reshape(j - i - 1, h, *dst.shape[1:])[...] = \
        x[i + 1:j]
    dst[head + mid:] = x[j, :z + 1]


def _conv_same_value(x, k):
    """Stride-1 zero-padded conv keeping H, W (odd kernel sides) on
    channel-last maps: x is (b, h, w, c), the result (b, h, w, o).

    Blocked im2col. The output rows of the flattened (b*h) axis are taken
    in blocks of as many whole rows as fit _CONV_BLOCK_BYTES of patch
    columns; a row larger than that is a block alone. A block's input
    rows and their kh//2-row halo are copied into a padded block with
    kw//2 zero columns each side, its (kh, kw, c) patches are gathered
    from there into one column buffer, the taps whose row falls off the
    output row's own image are zeroed, and one GEMM with the kernel laid
    out as (kh*kw*c, o) writes the block's output. Besides the output,
    the only temporaries are that column buffer and the padded block.
    """
    o, c, kh, kw = k.shape
    b, h, w, _ = x.shape
    ph, pw = kh // 2, kw // 2
    n_rows, depth = b * h, kh * kw * c
    step = min(n_rows, max(1, _CONV_BLOCK_BYTES // (w * depth * 8)))
    weight = k.transpose(2, 3, 1, 0).reshape(depth, o)
    out = np.empty((n_rows * w, o))
    cols = np.empty((step * w, depth))
    # the zero side columns are never written; halo rows beyond the
    # batch keep stale values, but every tap reading them is zeroed
    pad = np.zeros((step + 2 * ph, w + 2 * pw, c))
    inner = pad[:, pw:pw + w]
    s0, s1, s2 = pad.strides
    windows = np.lib.stride_tricks.as_strided(
        pad, (step, w, kh, kw, c), (s0, s1, s0, s1, s2), writeable=False)
    patches = cols.reshape(step, w, kh, kw, c)
    # (kernel row, output row in its image) of each tap row off the map
    edges = [(dy, y) for dy in range(kh) for y in range(h)
             if not 0 <= y + dy - ph < h]
    for g0 in range(0, n_rows, step):
        n = min(step, n_rows - g0)
        lo, hi = max(g0 - ph, 0), min(g0 + n + ph, n_rows)
        _copy_rows(x, lo, hi, inner[lo - g0 + ph:hi - g0 + ph])
        patches[:n] = windows[:n]
        for dy, y in edges:
            patches[(y - g0) % h:n:h, :, dy] = 0.0
        np.matmul(cols[:n * w], weight, out=out[g0 * w:(g0 + n) * w])
    return out.reshape(b, h, w, o)


def _dense_layer_value(layer, k, q, x):
    """(b, n) rows x through a dense layer at (k, q), on the path
    elastic.runs_staged picks: ((x @ v) * core) @ u.T on the served
    factor slices, or x times the rebuilt weight."""
    if not elastic.runs_staged(layer, k):
        return x @ elastic.effective_weight(layer, k, q).T
    u, s, v = elastic._served_slices(layer, k, q)
    return ((x @ v) * s) @ u.T


def _conv_layer_value(layer, k, q, x):
    """Conv of (b, c, h, w) maps x with a layer at (k, q), on the path
    elastic.runs_staged picks: staged through the factor slices, or
    through the rebuilt kernel. The work runs channel-last; the result is
    a (b, o, h, w) view of channel-last memory, a layout elementwise ops
    keep, so the next conv layer reads its input without a copy."""
    x = x.transpose(0, 2, 3, 1)
    if not elastic.runs_staged(layer, k):
        y = _conv_same_value(x, elastic.effective_weight(layer, k, q))
        return y.transpose(0, 3, 1, 2)
    u, core, v = elastic._served_slices(layer, k, q)
    b, h, w, c = x.shape
    t = _conv_same_value((x.reshape(-1, c) @ v).reshape(b, h, w, -1), core)
    y = t.reshape(-1, t.shape[-1]) @ u.T
    return y.reshape(b, h, w, -1).transpose(0, 3, 1, 2)


# ---------------------------------------------------------------------------
# network structure


_ACT_LIPSCHITZ = {RELU: 1.0, IDENTITY: 1.0, GELU: GELU_LIPSCHITZ}


@dataclass(frozen=True)
class Block:
    """One network block: elastic linear map, optional frozen affine norm,
    activation, optional skip connection around the whole block."""

    elastic: elastic.ElasticLayer
    activation: str = IDENTITY
    gamma: np.ndarray | None = None
    beta: np.ndarray | None = None
    residual: bool = False

    def __post_init__(self):
        if self.activation not in _ACT_LIPSCHITZ:
            raise ValueError(f"unknown activation {self.activation!r}")
        n = self.elastic.out_features
        if self.beta is not None and self.gamma is None:
            raise ValueError("beta without gamma")
        if self.gamma is not None:
            gm = np.asarray(self.gamma, dtype=np.float64)
            if gm.shape != (n,):
                raise ValueError("gamma must be 1-D over output units")
            object.__setattr__(self, "gamma", gm)
            bt = (np.zeros(n) if self.beta is None
                  else np.asarray(self.beta, dtype=np.float64))
            if bt.shape != (n,):
                raise ValueError("beta must be 1-D over output units")
            object.__setattr__(self, "beta", bt)
        if self.is_conv:
            kh, kw = self.elastic.factors.core.shape[2:]
            if kh % 2 == 0 or kw % 2 == 0:
                raise ValueError("same-padded conv needs odd kernel sides")
            if self.residual and self.elastic.in_features != n:
                raise ValueError("skip connection needs matching channels")
        elif self.residual and self.elastic.in_features != n:
            raise ValueError("skip connection needs matching width")

    @property
    def is_conv(self):
        return self.elastic.kind == elastic.CONV_TUCKER2


@dataclass(frozen=True)
class Network:
    """Ordered blocks with compatible shapes; all dense or all conv."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValueError("network needs at least one block")
        object.__setattr__(self, "blocks", blocks)
        conv = blocks[0].is_conv
        for prev, nxt in zip(blocks, blocks[1:]):
            if nxt.is_conv != conv:
                raise ValueError("mixing conv and dense blocks is not "
                                 "supported")
            if nxt.elastic.in_features != prev.elastic.out_features:
                raise ValueError("adjacent block shapes are incompatible")

    def __len__(self):
        return len(self.blocks)


@dataclass
class ForwardTrace:
    """Per-block inputs and post-norm pre-activations, plus the final
    logits. inputs and logits drop the batch axis of a single input; pre
    keeps it, as backward reads it. For a relu block, pre holds the
    block's activation output, since relu runs in place: backward reads
    only where pre is positive, which relu keeps. pre is empty for
    conv stacks, which backward does not cover: keeping their maps slowed
    batch serving."""

    inputs: list
    pre: list
    logits: np.ndarray


def _factor_arrays(layer):
    f = layer.factors
    return (("u", f.u), ("core", f.core), ("v", f.v))


def resolve_profile(net, profile):
    """Expand any accepted profile form to one (k, q) pair per layer."""
    if profile is None:
        return [(b.elastic.k_max, None) for b in net.blocks]
    pairs = list(getattr(profile, "pairs", profile))
    if len(pairs) != len(net.blocks):
        raise ValueError("profile length does not match the layer count")
    return [(int(k), q) for k, q in pairs]


def rank_profile(net, k, bits=None):
    """Per-layer (rank, bits) entries for a global rank clamped to each
    layer's stored rank."""
    k = int(k)
    if k < 1:
        raise ValueError("rank must be at least 1")
    return [(min(k, b.elastic.k_max), bits) for b in net.blocks]


def _promote_input(net, x):
    x = np.asarray(x, dtype=np.float64)
    first = net.blocks[0]
    want = 3 if first.is_conv else 1
    single = x.ndim == want
    a = x[None, ...] if single else x
    if a.ndim != want + 1:
        raise ValueError("input rank does not match the first block")
    if first.is_conv:
        if a.shape[1] != first.elastic.in_features:
            raise ValueError("input channel count mismatch")
    elif a.shape[1] != first.elastic.in_features:
        raise ValueError("input width mismatch")
    return a, single


def forward(net, x, profile=None):
    """Run the network on x under a per-layer (rank, bits) plan.

    profile is None (stored reconstruction at k_max, unquantized), a
    sequence of one (k, q) pair per layer, or any object exposing such a
    sequence as .pairs; k runs from 1 to the layer's stored rank k_max,
    and q is None or one bit width for all three factor slices. x may be
    a single input or a leading-batch stack of inputs.

    Each layer runs staged through its served factor slices or through
    its rebuilt weight, as elastic.runs_staged picks by FLOPs; a
    quantized factor is quantized afresh on every call. Dense layers
    compute ((x @ v) * core) @ u.T or x @ W.T; conv layers run
    channel-last as one im2col GEMM per cache-sized block of output rows
    (_conv_same_value). A dense layer at rank min(m, n), so at profile
    None after from_dense, always runs the rebuilt weight.
    """
    entries = resolve_profile(net, profile)
    a, single = _promote_input(net, x)
    inputs, pres = [], []
    for blk, (k, q) in zip(net.blocks, entries):
        inputs.append(a[0] if single else a)
        # the layer value is a fresh array, so bias, norm and relu apply
        # in place; a dense trace keeps pre for backward, and allocating
        # one array less per block offsets that in batch serving
        if blk.is_conv:
            pre = _conv_layer_value(blk.elastic, k, q, a)
            if blk.elastic.bias is not None:
                pre += blk.elastic.bias[:, None, None]
            if blk.gamma is not None:
                pre *= blk.gamma[:, None, None]
                pre += blk.beta[:, None, None]
        else:
            pre = _dense_layer_value(blk.elastic, k, q, a)
            if blk.elastic.bias is not None:
                pre += blk.elastic.bias
            if blk.gamma is not None:
                pre *= blk.gamma
                pre += blk.beta
            pres.append(pre)
        h = _act_value(blk.activation, pre)
        if blk.residual:
            h = h + a
        a = h
    logits = a[0] if single else a
    return ForwardTrace(inputs=inputs, pre=pres, logits=logits)


def backward(net, trace, profile, seed):
    """Reverse sweep of a dense stack through a batched forward trace.

    seed is a derivative with respect to the logits with one extra axis,
    (rows, m, classes): the identity per row for the Jacobians, or a
    loss's logit gradient as (rows, 1, classes). profile must be the one
    trace was run under. Returns, per block, the (rows, m, width)
    derivative at the signal right after the block's weight multiply,
    carried upstream through each block's weight at its (k, q) entry.
    """
    if net.blocks[0].is_conv:
        raise ValueError("backward covers dense stacks only")
    entries = resolve_profile(net, profile)
    head = np.asarray(seed, dtype=np.float64)
    grads = [None] * len(net.blocks)
    for j in reversed(range(len(net.blocks))):
        blk = net.blocks[j]
        d = _act_grad(blk.activation, trace.pre[j])
        if blk.gamma is not None:
            d = d * blk.gamma
        grads[j] = head * d[:, None, :]
        if j:
            down = grads[j] @ elastic.effective_weight(blk.elastic,
                                                       *entries[j])
            head = down + head if blk.residual else down
    return grads


def logit_drift(net, x, profile):
    """l2 distance between profile logits and full logits.

    Returns a float for a single input and a per-sample vector for a
    batched input.
    """
    return _drift(net, x, forward(net, x, profile).logits,
                  forward(net, x, None).logits)


def _drift(net, x, z_prof, z_full):
    """logit_drift from the profile and full logits already run on x."""
    diff = z_prof - z_full
    if _promote_input(net, x)[1]:
        return float(np.linalg.norm(diff.ravel()))
    axes = tuple(range(1, diff.ndim))
    return np.sqrt(np.sum(diff * diff, axis=axes))


def activation_lipschitz(name):
    """Global Lipschitz bound of a named activation."""
    if name not in _ACT_LIPSCHITZ:
        raise ValueError(f"unknown activation {name!r}")
    return _ACT_LIPSCHITZ[name]


def weight_gain(w):
    """Operator-norm bound of a weight array.

    Dense: spectral norm. Conv: sum of per-tap spectral norms, an upper
    bound on the operator norm of the zero-padded convolution.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim == 4:
        return float(sum(
            linalg.spectral_norm(w[:, :, dy, dx])
            for dy in range(w.shape[2]) for dx in range(w.shape[3])))
    if w.ndim != 2:
        raise ValueError("weight must be 2-d or 4-d")
    return float(linalg.spectral_norm(w))
