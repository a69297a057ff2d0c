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
tighter but can undershoot, so nothing downstream treats it as certified.

Tail gains are evaluated at both the stored and the compressed weights and
the larger is used. Truncation alone cannot grow a spectral norm here, but
low-bit quantization can, and a tail evaluated only at stored weights
would silently void the guarantee.

Every bound is read off one ledger. ``ledger`` checks once that the
calibration statistics belong to the network, evaluates all layer
sensitivities in a single ``lipschitz_proxy`` pass, and returns one
(sensitivity, weight-change norm, alpha) row per layer; ``ledger_terms``
multiplies each row out and ``ledger_total`` sums the products in layer
order; ``ledgers`` builds the ledgers of several profiles and does the
profile-independent work once (``sensitivities``: one sampled pass, one
stored-weight gain per block). The expected and pointwise bounds, the
manifest's certificate section, the planner's tables and the trainer's
coefficients are all read off ``ledger`` or ``ledgers``; manifest
verification recomputes the same columns with ``sensitivities`` and
``compression_gain`` and re-sums the stored rows with ``ledger_total``.
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
    block i; max_norm[i] is the running maximum of the same norms, kept for
    conservative fallbacks. fingerprint ties the stats to the exact network
    parameters they were measured on.
    """

    alpha: tuple
    max_norm: tuple
    count: int
    fingerprint: str

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be positive")
        if len(self.alpha) != len(self.max_norm):
            raise ValueError("alpha and max_norm lengths differ")
        for a, m in zip(self.alpha, self.max_norm):
            if a < 0.0:
                raise ValueError("alpha entries must be non-negative")
            if a > m * (1.0 + 1e-12) + 1e-300:
                raise ValueError("alpha cannot exceed the running max")


def _row_norms(a, single):
    a = np.asarray(a, dtype=np.float64)
    if single:
        return np.array([np.linalg.norm(a.ravel())])
    return np.sqrt(np.sum(a.reshape(a.shape[0], -1) ** 2, axis=1))


def calibrate(net, inputs):
    """Measure per-layer input-norm RMS and maxima on the full model."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.size == 0:
        raise ValueError("calibration set is empty")
    first = net.blocks[0]
    want = 3 if first.is_conv else 1
    if x.ndim == want:
        x = x[None, ...]
    tr = network.forward(net, x, None)
    alpha, mx = [], []
    for layer_in in tr.inputs:
        norms = _row_norms(layer_in, single=False)
        alpha.append(float(np.sqrt(np.mean(norms ** 2))))
        mx.append(float(np.max(norms)))
    return CalibrationStats(alpha=tuple(alpha), max_norm=tuple(mx),
                            count=int(x.shape[0]),
                            fingerprint=network_fingerprint(net))


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
        network.weight_gain(elastic.truncate(b.elastic, b.elastic.k_max))
        for b in net.blocks[1:]]


def _tail_gain(block, stored_gain, entry):
    wg = stored_gain
    if entry is not None:
        k, q = entry
        if k != block.elastic.k_max or q is not None:
            comp = elastic.effective_weight(block.elastic, k, q)
            wg = max(wg, network.weight_gain(comp))
    g = _local_scale(block) * wg
    return 1.0 + g if block.residual else g


def _conservative_multipliers(net, stored, entries=None):
    """Per-layer certified sensitivities: local scale times the product of
    downstream block gains, gains taken at the worse of stored (the
    _stored_gains list) and compressed weights."""
    n = len(net.blocks)
    suffix = [1.0] * (n + 1)
    for i in range(n - 1, 0, -1):
        gain = _tail_gain(net.blocks[i], stored[i],
                          entries[i] if entries else None)
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


def lipschitz_proxy(net, mode=CONSERVATIVE, calibration_inputs=None,
                    profile=None, stored_gains=None):
    """Per-layer sensitivity of the logits to a perturbation injected right
    after each layer's weight multiply; one entry per layer, in order.

    Conservative mode multiplies per-block Lipschitz bounds downstream of
    each injection point (guaranteed upper bounds; with the final block a
    plain linear head, the last layer's value is exactly 1). SAMPLED
    mode power-iterates the exact downstream Jacobian at each calibration
    input and EMA-smooths the estimates; it can undershoot and is never
    treated as certified. The optional profile widens conservative tail
    gains to cover the compressed weights; stored_gains, the
    _stored_gains of net, spares a caller that evaluates several profiles
    recomputing them.
    """
    if mode == CONSERVATIVE:
        if stored_gains is None:
            stored_gains = _stored_gains(net)
        entries = network.resolve_profile(net, profile) \
            if profile is not None else None
        return _conservative_multipliers(net, stored_gains, entries)
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
    return sens


def sensitivities(net, profiles, mode=CONSERVATIVE, calibration_inputs=None):
    """lipschitz_proxy of each profile, with the profile-independent work
    done once per call: the sampled proxy ignores the profile, so it runs
    once for all of them, and conservative tails take each stored-weight
    gain once."""
    if not profiles:
        return []
    if mode != CONSERVATIVE:
        sens = lipschitz_proxy(net, mode, calibration_inputs)
        return [list(sens) for _ in profiles]
    stored = _stored_gains(net)
    return [lipschitz_proxy(net, mode, profile=p, stored_gains=stored)
            for p in profiles]


def _delta_gain(block, k, q):
    """Operator-norm bound on (stored full weight - profile weight)."""
    lay = block.elastic
    if k == lay.k_max and q is None:
        return 0.0
    if not block.is_conv:
        return float(elastic.residual_norm(lay, k, q))
    delta = elastic.truncate(lay, lay.k_max) \
        - elastic.effective_weight(lay, k, q)
    return network.weight_gain(delta)


def compression_gain(net, ell, k, q=None):
    """Operator-norm bound on the weight change layer ell undergoes when
    executed at rank k with q-bit factors (q=None keeps float factors)."""
    n = len(net.blocks)
    if not 0 <= int(ell) < n:
        raise ValueError("layer index out of range")
    return _delta_gain(net.blocks[int(ell)], int(k), q)


def ledger(net, stats, profile, mode=CONSERVATIVE,
           calibration_inputs=None):
    """Certificate rows of one profile: (sensitivity, weight-change norm,
    alpha) per layer, in layer order.

    Errors on stats measured on a different network. Sensitivities come
    from one lipschitz_proxy pass; conservative ones cover the profile's
    compressed weights.
    """
    return ledgers(net, stats, [profile], mode, calibration_inputs)[0]


def ledgers(net, stats, profiles, mode=CONSERVATIVE,
            calibration_inputs=None):
    """The ledger of each profile, with the sensitivities of all of them
    from one sensitivities call."""
    check_fresh(net, stats)
    entries = [network.resolve_profile(net, p) for p in profiles]
    sens = sensitivities(net, entries, mode, calibration_inputs)
    return [[(s[i], _delta_gain(blk, k, q), float(stats.alpha[i]))
             for i, (blk, (k, q)) in enumerate(zip(net.blocks, pairs))]
            for s, pairs in zip(sens, entries)]


def ledger_terms(rows):
    """Per-row drift contributions: sensitivity x weight change x alpha.
    The alpha column may hold per-input norm arrays instead."""
    return [sens * change * alpha for sens, change, alpha in rows]


def ledger_total(rows):
    """Sum of the row contributions, accumulated in layer order."""
    total = 0.0
    for term in ledger_terms(rows):
        total += term
    return total


def pointwise_bound(net, stats, profile, x, mode=CONSERVATIVE,
                    calibration_inputs=None):
    """Certified drift bound at one input (or a batch, one bound per row),
    evaluated with the full model's layer-input norms."""
    rows = ledger(net, stats, profile, mode, calibration_inputs)
    first = net.blocks[0]
    want = 3 if first.is_conv else 1
    single = np.asarray(x).ndim == want
    tr = network.forward(net, x, None)
    total = ledger_total([(sens, change, _row_norms(a, single))
                          for (sens, change, _), a in zip(rows, tr.inputs)])
    return float(total[0]) if single else total


def expected_bound(net, stats, profile, mode=CONSERVATIVE,
                   calibration_inputs=None):
    """Aggregate expected-drift bound: sum over layers of sensitivity x
    weight-change norm x input-norm RMS. Errors on stats measured on a
    different network."""
    return float(ledger_total(
        ledger(net, stats, profile, mode, calibration_inputs)))


def diagnostics(net, stats, profiles, eval_inputs, epsilon,
                mode=CONSERVATIVE, calibration_inputs=None):
    """Coverage, bound-vs-drift correlation, and drift summaries.

    Coverage is the percentage of (profile, input) pairs whose observed
    drift stays within epsilon. Correlation pairs each profile's aggregate
    bound with its mean observed drift; with fewer than two distinct
    aggregate values it is undefined and reported as such.
    """
    profiles = list(profiles)
    if len(profiles) < 2:
        raise ValueError("diagnostics needs at least two profiles")
    check_fresh(net, stats)
    xs = np.asarray(eval_inputs, dtype=np.float64)
    delta_hats, mean_drifts, all_drifts = [], [], []
    for prof in profiles:
        delta_hats.append(expected_bound(net, stats, prof, mode,
                                         calibration_inputs))
        d = np.atleast_1d(network.logit_drift(net, xs, prof))
        mean_drifts.append(float(np.mean(d)))
        all_drifts.append(d)
    flat = np.concatenate(all_drifts)
    dh = np.asarray(delta_hats)
    md = np.asarray(mean_drifts)
    sx = float(np.std(dh))
    sy = float(np.std(md))
    if sx == 0.0 or sy == 0.0:
        corr, defined = None, False
    else:
        corr = float(np.mean((dh - dh.mean()) * (md - md.mean())) / (sx * sy))
        defined = True
    return {
        "coverage_percent": float(100.0 * np.mean(flat <= epsilon)),
        "pearson_correlation": corr,
        "correlation_defined": defined,
        "mean_drift": float(np.mean(flat)),
        "delta_hat_p95": float(np.percentile(dh, 95)),
    }
