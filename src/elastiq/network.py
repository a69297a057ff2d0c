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
  cache-sized block of whole images (of rows of one image, when its
  columns alone exceed the block), staged through the Tucker-2 factors
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


def _conv_same_value(x, k):
    """Stride-1 zero-padded conv keeping H, W (odd kernel sides) on
    channel-last maps: x is (b, h, w, c), the result (b, h, w, o).

    Blocked im2col. A block is as many whole images as fit
    _CONV_BLOCK_BYTES of patch columns, copied into a padded block whose
    kh//2-row and kw//2-column zero border is never written. Only an
    image whose columns alone exceed the budget is split, into blocks of
    as many of its rows as fit (at least one), each copied with its
    kh//2-row halo; halo rows off the image are zeroed. The block's
    (kh, kw, c) patches are gathered from the padded block into one
    column buffer, and one GEMM with the kernel laid out as
    (kh*kw*c, o) writes the block's output. Besides the output, the only
    temporaries are that column buffer and the padded block.
    """
    o, c, kh, kw = k.shape
    b, h, w, _ = x.shape
    ph, pw = kh // 2, kw // 2
    depth = kh * kw * c
    fit = _CONV_BLOCK_BYTES // (w * depth * 8)
    images, rows = (min(b, fit // h), h) if fit >= h else (1, max(1, fit))
    weight = k.transpose(2, 3, 1, 0).reshape(depth, o)
    out = np.empty((b * h * w, o))
    cols = np.empty((images * rows * w, depth))
    pad = np.zeros((images, rows + 2 * ph, w + 2 * pw, c))
    s0, s1, s2, s3 = pad.strides
    # each output pixel's (kh, kw, c) window in pad; np.ndarray builds
    # this view at a fifth of as_strided's cost
    windows = np.ndarray((images, rows, w, kh, kw, c), buffer=pad,
                         strides=(s0, s1, s2, s1, s2, s3))
    patches = cols.reshape(images, rows, w, kh, kw, c)
    for i in range(0, b, images):
        n = min(images, b - i)
        for y in range(0, h, rows):
            r = min(rows, h - y)
            lo, hi = max(y - ph, 0), min(y + r + ph, h)
            pad[:n, lo - y + ph:hi - y + ph, pw:pw + w] = x[i:i + n, lo:hi]
            if rows < h:
                # row blocks of one image reuse pad: halo rows off the
                # image may hold rows of an earlier block
                pad[0, :lo - y + ph] = 0.0
                pad[0, hi - y + ph:] = 0.0
            patches[:n, :r] = windows[:n, :r]
            g0 = (i * h + y) * w
            np.matmul(cols[:n * r * w], weight, out=out[g0:g0 + n * r * w])
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
    return [(min(int(k), b.elastic.k_max), bits) for b in net.blocks]


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
    channel-last as one im2col GEMM per cache-sized block of whole
    images, so a single image is one block, or of rows of one image too
    large for a block (_conv_same_value). A dense layer at rank min(m, n),
    so at profile None after from_dense, always runs the rebuilt weight.
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
    """logit_drift from the profile and full logits already run on x;
    refuses a drift that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff = z_prof - z_full
        if _promote_input(net, x)[1]:
            drift = float(np.linalg.norm(diff.ravel()))
        else:
            axes = tuple(range(1, diff.ndim))
            drift = np.sqrt(np.sum(diff * diff, axis=axes))
    if not np.isfinite(drift).all():
        raise ValueError("logit drift overflows float64; scale the inputs "
                         "down")
    return drift


def activation_lipschitz(name):
    """Global Lipschitz bound of a named activation."""
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
    return float(linalg.spectral_norm(w))
