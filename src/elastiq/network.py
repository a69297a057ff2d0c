"""Feed-forward execution and its reverse sweep at desk scale.

One forward pass carries the block semantics (linear map, optional bias,
optional frozen affine norm, activation, optional skip connection), and
one reverse sweep differentiates it:

* ``forward`` runs plain numpy on a hard per-layer (rank, bits) plan,
  None or one (k, q) pair per layer, and records each block's input and,
  in a dense stack, its post-norm pre-activation. It alone takes a single
  input as well as a batch. A conv stack's channel-first maps move to
  channel-last once on entry, so every block runs one path: its layer
  works on the last axis, staged through the served factor slices when
  ``elastic.runs_staged`` says that takes fewer FLOPs, otherwise through
  the rebuilt weight (conv layers as one im2col GEMM per cache-sized
  block of whole images, or of rows of one image too large for a block),
  then bias, frozen norm, activation and skip apply once. Everything
  downstream of ``forward`` takes batches and gives one value per row.
* ``backward`` walks a dense stack's forward trace from the logits back
  and returns, per block, the derivative at the signal right after the
  weight multiply. Seeded with the identity it gives the Jacobians of the
  logits; seeded with a loss's logit gradient it gives the gradient the
  trainer turns into factor and bias gradients.

Block and Network trust their callers: every layer rule is checked once,
where a manifest is decoded (manifest._checked_layers), and train builds
its own stacks.
"""

from dataclasses import dataclass

import numpy as np

from . import elastic, linalg

RELU = "relu"
GELU = "gelu"
IDENTITY = "identity"

# global slope bound used for conservative gains: the erf-form gelu's
# slope, Phi(x) + x phi(x), peaks at x = sqrt 2 at 1.12890 (its infimum is
# -0.12890, at -sqrt 2)
GELU_LIPSCHITZ = 1.13

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


def _layer_value(layer, k, q, x):
    """A layer at (k, q) applied over x's last axis: (b, n) rows for a
    dense layer, (b, h, w, c) channel-last maps for a conv layer. The
    path is the one elastic.runs_staged picks: staged through the served
    factor slices, or through the rebuilt weight; the 1x1 products of the
    conv stage run on the maps flattened to rows of pixels. The result is
    a fresh array."""
    conv = layer.kind == elastic.CONV_TUCKER2
    if not elastic.runs_staged(layer, k):
        w = elastic.effective_weight(layer, k, q)
        return _conv_same_value(x, w) if conv else x @ w.T
    u, core, v = elastic._served_slices(layer, k, q)
    if not conv:
        return ((x @ v) * core) @ u.T
    b, h, w, c = x.shape
    t = _conv_same_value((x.reshape(-1, c) @ v).reshape(b, h, w, -1), core)
    return (t.reshape(-1, t.shape[-1]) @ u.T).reshape(b, h, w, -1)


# ---------------------------------------------------------------------------
# network structure


_ACT_LIPSCHITZ = {RELU: 1.0, IDENTITY: 1.0, GELU: GELU_LIPSCHITZ}


@dataclass(frozen=True)
class Block:
    """One network block: elastic linear map, optional frozen affine norm,
    activation, optional skip connection around the whole block. gamma and
    beta are stored as float64, and a gamma alone implies a zero beta."""

    elastic: elastic.ElasticLayer
    activation: str = IDENTITY
    gamma: np.ndarray | None = None
    beta: np.ndarray | None = None
    residual: bool = False

    def __post_init__(self):
        if self.gamma is not None:
            object.__setattr__(self, "gamma",
                               np.asarray(self.gamma, dtype=np.float64))
            object.__setattr__(self, "beta", (
                np.zeros(self.elastic.out_features) if self.beta is None
                else np.asarray(self.beta, dtype=np.float64)))

    @property
    def is_conv(self):
        return self.elastic.kind == elastic.CONV_TUCKER2


@dataclass(frozen=True)
class Network:
    """Ordered blocks, a tuple: each takes the width the one before
    gives, all dense or all conv."""

    blocks: tuple


@dataclass
class ForwardTrace:
    """Per-block inputs and post-norm pre-activations, plus the final
    logits. inputs and logits take the form forward was given: conv maps
    channel-first, so a recorded input feeds back into forward, and no
    batch axis for a single input; pre keeps the batch axis, as backward
    reads it. For a relu block, pre holds the block's activation output,
    since relu runs in place: backward reads only where pre is positive,
    which relu keeps. pre is empty for conv stacks, which backward does
    not cover: keeping their maps slowed batch serving."""

    inputs: list
    pre: list
    logits: np.ndarray


def _factor_arrays(layer):
    f = layer.factors
    return (("u", f.u), ("core", f.core), ("v", f.v))


def resolve_profile(net, profile):
    """One (k, q) pair per layer from a profile: None (every layer at its
    stored rank, unquantized) or a sequence of (k, q) pairs."""
    if profile is None:
        return [(b.elastic.k_max, None) for b in net.blocks]
    pairs = list(profile)
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
    if a.shape[1] != first.elastic.in_features:
        raise ValueError("input width mismatch")
    return a, single


def _refuse_single(net, x):
    """Refuse a single unbatched input, whose features would pass for rows."""
    if _promote_input(net, x)[1]:
        raise ValueError("a single unbatched input; give a batch with a "
                         "leading row axis")


def forward(net, x, profile=None):
    """Run the network on x under a per-layer (rank, bits) plan.

    profile is None (stored reconstruction at k_max, unquantized) or one
    (k, q) pair per layer, k from 1 to the layer's stored rank and q None
    or one bit width for all three factor slices. x is a leading-batch
    stack of rows or channel-first (c, h, w) maps, or a single one, whose
    batch axis the trace's inputs and logits drop again. A quantized
    factor is quantized afresh on every call; a dense layer at rank
    min(m, n), so at profile None after from_dense, always runs the
    rebuilt weight.
    """
    entries = resolve_profile(net, profile)
    a, single = _promote_input(net, x)
    conv = net.blocks[0].is_conv
    if conv:
        a = a.transpose(0, 2, 3, 1)
    inputs, pres = [], []
    for blk, (k, q) in zip(net.blocks, entries):
        inputs.append(a)
        # the layer value is a fresh array, so bias, norm and relu apply
        # in place; a dense trace keeps pre for backward, and allocating
        # one array less per block offsets that in batch serving
        pre = _layer_value(blk.elastic, k, q, a)
        if blk.elastic.bias is not None:
            pre += blk.elastic.bias
        if blk.gamma is not None:
            pre *= blk.gamma
            pre += blk.beta
        if not conv:
            pres.append(pre)
        h = _act_value(blk.activation, pre)
        if blk.residual:
            h = h + a
        a = h
    if conv:
        inputs = [t.transpose(0, 3, 1, 2) for t in inputs]
        a = a.transpose(0, 3, 1, 2)
    if single:
        inputs = [t[0] for t in inputs]
        a = a[0]
    return ForwardTrace(inputs=inputs, pre=pres, logits=a)


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
    """l2 distance between profile logits and full logits at a batch x,
    one value per row; refuses a single unbatched input."""
    _refuse_single(net, x)
    return _drift(forward(net, x, profile).logits,
                  forward(net, x, None).logits)


def _drift(z_prof, z_full):
    """logit_drift from a batch's profile and full logits, one value per
    row; refuses a drift that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff = z_prof - z_full
        axes = tuple(range(1, diff.ndim))
        drift = np.sqrt(np.sum(diff * diff, axis=axes))
    if not np.isfinite(drift).all():
        raise ValueError("logit drift overflows float64; scale the inputs "
                         "down")
    return drift


def weight_gain(w):
    """Operator-norm bound of a weight array.

    Dense: spectral norm. Conv: sum of per-tap spectral norms, an upper
    bound on the operator norm of the zero-padded convolution, taken in one
    LAPACK call, each with linalg.spectral_norm's slack, in (dy, dx) order.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim == 4:
        taps = np.linalg.norm(w, 2, axis=(0, 1)) * (1.0 + linalg._NORM_SLACK)
        return float(sum(taps.ravel().tolist()))
    return float(linalg.spectral_norm(w))
