"""Logit-drift certificates for compressed runtime profiles.

Replacing stored full-rank weights with truncated, quantized ones moves the
logits. The bounds here control that movement layer by layer: each layer
contributes (sensitivity of the logits to a perturbation injected right
after that layer's weight multiply) x (operator-norm of the weight change)
x (norm of the signal entering the layer). Summing the contributions gives
a pointwise bound at one input, and swapping the per-input signal norm for
its calibration-set RMS gives the expected-drift aggregate.

Two sensitivity proxies are available, named by the mode strings the
manifests and ``certify --mode`` use. ``CONSERVATIVE`` multiplies
per-block Lipschitz bounds and is a guarantee: for any profile, observed
drift never exceeds the pointwise bound. ``SAMPLED`` takes the exact
downstream Jacobians at calibration inputs from one ``network.forward``
and one ``network.backward`` sweep seeded with the identity, power-iterates
each, and smooths the estimates with an exponential moving average; it is
tighter but can undershoot, so it serves only the trainer's coefficients
and the reference ledger ``certify --mode poweriter`` records. Planning,
pointwise bounds and everything else downstream use the conservative
ledger alone.

Tail gains are evaluated at both the stored and the compressed weights and
the larger is used. Truncation alone cannot grow a spectral norm here, but
low-bit quantization can, and a tail evaluated only at stored weights
would silently void the guarantee.

Every certified number is read off one ledger builder. ``ledgers`` checks
once that the calibration statistics belong to the network, takes the
sensitivities of all its profiles from one ``lipschitz_proxy`` call (one
sampled pass, one stored-weight gain per block) and returns, per profile,
one (sensitivity, ``weight_change``, alpha) row per layer;
``ledger_total`` sums the rows' products in layer order, which is the
expected-drift bound, and ``pointwise_bound`` swaps alpha for the signal
norms at given inputs. The manifest's certificate section, the planner's
objective and lattice bounds and the trainer's coefficients all come
from ``ledgers``; manifest verification recomputes the same columns with
``lipschitz_proxy`` and ``weight_change`` and re-sums the stored rows
with ``ledger_total``.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from . import elastic, network

CONSERVATIVE = "conservative"
SAMPLED = "poweriter"

# sampled proxy: power-iteration steps per calibration row, and the decay
# of the moving average over the rows' estimates
_POWER_STEPS = 5
_EMA_DECAY = 0.99


def network_fingerprint(net):
    """sha256 over every parameter array, shape-tagged, order-fixed."""
    h = hashlib.sha256()
    for blk in net.blocks:
        lay = blk.elastic
        h.update(lay.kind.encode())
        h.update(blk.activation.encode())
        h.update(b"r" if blk.residual else b".")
        arrays = [a for _, a in network._factor_arrays(lay)]
        arrays += [lay.bias, blk.gamma, blk.beta]
        for a in arrays:
            if a is None:
                h.update(b"none")
                continue
            a = np.ascontiguousarray(a, dtype=np.float64)
            h.update(np.asarray(a.shape, dtype=np.int64).tobytes())
            h.update(a.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class CalibrationStats:
    """Per-layer input-norm statistics over a calibration set.

    alpha[i] is the root-mean-square of the l2 norm of the signal entering
    block i. fingerprint ties the stats to the exact network parameters
    they were measured on. spatial is the (H, W) of a conv model's
    calibration maps, at which alpha holds; None for a dense model.
    """

    alpha: tuple
    count: int
    fingerprint: str
    spatial: tuple | None = None

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be positive")
        if any(a < 0.0 for a in self.alpha):
            raise ValueError("alpha entries must be non-negative")
        if self.spatial is not None and not (
                len(self.spatial) == 2 and min(self.spatial) >= 1):
            raise ValueError("spatial must be a positive (H, W) pair")


# finite inputs whose squares overflow float64 give infinite norms
_NORMS_OVERFLOW = "layer input norms overflow float64; scale the inputs down"


def _row_norms(a, single):
    """l2 norm of each row of a, or of all of a when single; refuses a
    norm that is not finite."""
    a = np.asarray(a, dtype=np.float64)
    with np.errstate(over="ignore"):
        if single:
            norms = np.array([np.linalg.norm(a.ravel())])
        else:
            norms = np.sqrt(np.sum(a.reshape(a.shape[0], -1) ** 2, axis=1))
    if not np.isfinite(norms).all():
        raise ValueError(_NORMS_OVERFLOW)
    return norms


def calibrate(net, inputs):
    """Measure per-layer input-norm RMS on the full model, and a conv
    model's calibration map size. Refuses inputs whose norms or their RMS
    overflow float64."""
    if np.size(inputs) == 0:
        raise ValueError("calibration set is empty")
    x, _ = network._promote_input(net, inputs)
    tr = network.forward(net, x, None)
    alpha = []
    for layer_in in tr.inputs:
        norms = _row_norms(layer_in, single=False)
        with np.errstate(over="ignore"):
            alpha.append(float(np.sqrt(np.mean(norms ** 2))))
    if not np.isfinite(alpha).all():
        raise ValueError(_NORMS_OVERFLOW)
    return CalibrationStats(alpha=tuple(alpha), count=int(x.shape[0]),
                            fingerprint=network_fingerprint(net),
                            spatial=x.shape[-2:] if net.blocks[0].is_conv
                            else None)


def check_fresh(net, stats):
    """Raise unless stats were measured on exactly these parameters."""
    if stats.fingerprint != network_fingerprint(net):
        raise ValueError(
            "stale calibration statistics: network fingerprint mismatch")


def _local_scale(block):
    # post-weight contraction of one block: activation Lipschitz times the
    # largest frozen scale; the residual branch cancels in a weight-only
    # perturbation, so it does not appear here
    g = network.activation_lipschitz(block.activation)
    if block.gamma is not None:
        g *= float(np.max(np.abs(block.gamma)))
    return g


def _stored_gains(net):
    """weight_gain of each block's stored full weight, None for the first
    block: its gain multiplies no sensitivity, because no injection point
    lies upstream of it."""
    return [None] + [
        network.weight_gain(elastic.effective_weight(b.elastic,
                                                     b.elastic.k_max))
        for b in net.blocks[1:]]


def _tail_gain(block, stored_gain, k, q):
    wg = stored_gain
    if k != block.elastic.k_max or q is not None:
        comp = elastic.effective_weight(block.elastic, k, q)
        wg = max(wg, network.weight_gain(comp))
    g = _local_scale(block) * wg
    return 1.0 + g if block.residual else g


def _conservative_multipliers(net, stored, pairs):
    """Per-layer certified sensitivities at one profile's (k, q) pairs:
    local scale times the product of downstream block gains, gains taken
    at the worse of stored (the _stored_gains list) and compressed
    weights."""
    n = len(net.blocks)
    suffix = [1.0] * (n + 1)
    for i in range(n - 1, 0, -1):
        gain = _tail_gain(net.blocks[i], stored[i], *pairs[i])
        suffix[i] = gain * suffix[i + 1]
    return [_local_scale(net.blocks[i]) * suffix[i + 1] for i in range(n)]


def _tail_jacobians(net, xs):
    """Exact Jacobians of the logits w.r.t. the signal just after each
    block's weight multiply, full stored weights, at a (rows, features)
    batch: one (rows, logits, width) stack per block, from network.backward
    seeded with the identity."""
    tr = network.forward(net, xs, None)
    rows, c = tr.logits.shape
    return network.backward(net, tr, None,
                            np.broadcast_to(np.eye(c), (rows, c, c)))


def _jacobian_norm_estimates(jac, steps):
    """Per-row power iteration on a (rows, out, in) stack of Jacobians from
    one fixed unit start vector; a row whose iterate vanishes gives 0."""
    v = np.random.default_rng(0).standard_normal(jac.shape[2])
    v = np.tile(v / np.linalg.norm(v), (jac.shape[0], 1))
    for _ in range(steps):
        w = np.einsum("roi,ro->ri", jac, np.einsum("roi,ri->ro", jac, v))
        n = np.linalg.norm(w, axis=1, keepdims=True)
        v = w / np.where(n == 0.0, 1.0, n)
    return np.linalg.norm(np.einsum("roi,ri->ro", jac, v), axis=1)


def lipschitz_proxy(net, profiles, mode=CONSERVATIVE, calibration_inputs=None):
    """Per-layer sensitivity of the logits to a perturbation injected right
    after each layer's weight multiply: one list per profile, one entry
    per layer, in order. A profile of None is the full profile.

    Conservative mode multiplies per-block Lipschitz bounds downstream of
    each injection point (guaranteed upper bounds; with the final block a
    plain linear head, the last layer's value is exactly 1), widening each
    tail gain to cover the profile's compressed weights; the stored-weight
    gains are evaluated once per call. SAMPLED mode power-iterates the
    exact downstream Jacobian at each calibration input and EMA-smooths
    the estimates; it ignores the profile, runs once per call, can
    undershoot and is never treated as certified.
    """
    profiles = list(profiles)
    if not profiles:
        return []
    if mode == CONSERVATIVE:
        stored = _stored_gains(net)
        return [_conservative_multipliers(
                    net, stored, network.resolve_profile(net, p))
                for p in profiles]
    if mode != SAMPLED:
        raise ValueError("mode must be CONSERVATIVE or SAMPLED")
    if any(b.is_conv for b in net.blocks):
        raise ValueError("sampled proxy supports dense stacks only")
    if calibration_inputs is None:
        raise ValueError("sampled proxy needs calibration inputs")
    xs = np.atleast_2d(np.asarray(calibration_inputs, dtype=np.float64))
    if xs.shape[0] == 0:
        raise ValueError("sampled proxy needs calibration inputs")
    sens = []
    for jac in _tail_jacobians(net, xs):
        ema = None
        for est in _jacobian_norm_estimates(jac, _POWER_STEPS):
            ema = est if ema is None \
                else _EMA_DECAY * ema + (1.0 - _EMA_DECAY) * est
        sens.append(float(ema))
    return [list(sens) for _ in profiles]


def weight_change(block, k, q=None):
    """Operator-norm bound on (stored full weight - the weight the block
    serves at rank k with q-bit factors); q=None keeps float factors."""
    lay = block.elastic
    if k == lay.k_max and q is None:
        return 0.0
    if not block.is_conv:
        return float(elastic.residual_norm(lay, k, q))
    delta = elastic.effective_weight(lay, lay.k_max) \
        - elastic.effective_weight(lay, k, q)
    return network.weight_gain(delta)


def ledgers(net, stats, profiles, mode=CONSERVATIVE,
            calibration_inputs=None):
    """Certificate rows of each profile: (sensitivity, weight-change norm,
    alpha) per layer, in layer order.

    Errors on stats measured on a different network. The sensitivities of
    all profiles come from one lipschitz_proxy call; conservative ones
    cover each profile's compressed weights.
    """
    check_fresh(net, stats)
    entries = [network.resolve_profile(net, p) for p in profiles]
    sens = lipschitz_proxy(net, entries, mode, calibration_inputs)
    return [[(s[i], weight_change(blk, k, q), float(stats.alpha[i]))
             for i, (blk, (k, q)) in enumerate(zip(net.blocks, pairs))]
            for s, pairs in zip(sens, entries)]


def ledger_total(rows):
    """Sum of the rows' drift contributions, sensitivity x weight change x
    alpha, accumulated in layer order. The alpha column may hold
    per-input norm arrays instead."""
    total = 0.0
    for sens, change, alpha in rows:
        total += sens * change * alpha
    return total


def pointwise_bound(net, stats, profile, x):
    """Certified drift bound at one input (or a batch, one bound per row),
    evaluated with the full model's layer-input norms."""
    rows = ledgers(net, stats, [profile])[0]
    single = network._promote_input(net, x)[1]
    tr = network.forward(net, x, None)
    total = ledger_total([(sens, change, _row_norms(a, single))
                          for (sens, change, _), a in zip(rows, tr.inputs)])
    return float(total[0]) if single else total
