"""Desk-scale training loop for elastic stacks on synthetic data.

Each step runs the full-rank view and a rank-sampled compressed view of
the same parameters through network.forward once each, over the batch
stacked on an augmented copy, and assembles a four-term objective (task
cross-entropy and self-distillation on the batch rows, augmentation
consistency on the augmented ones, and a drift cap). Its gradient at
each view's logits is written out in numpy, carried back through the
blocks by one network.backward sweep, and turned into factor and bias
gradients of the served slices; a quantized slice's gradient
passes to the stored factor unchanged. No budget enters training: plan
and select apply it at serving time. The compressed view truncates
every layer to a hard sampled rank; rank sampling anneals from uniform
toward the deployment profiles, and the regularizer weights ramp up
linearly. Parameters take SGD-with-momentum steps. Certificate
coefficients are refreshed periodically and smoothed with an EMA; factors
are re-orthogonalized on a fixed cadence.

Checkpoints store the network as its manifest, every momentum buffer,
the RNG state, the digest of the run's config and its seed, so a run
resumed under that config and seed reproduces the original loss
trajectory bit for bit.
"""

from dataclasses import dataclass, field, replace
import csv
import json
import sys

import numpy as np

from . import certificate, cost, elastic, manifest, network, quant

# what every run shares: the task, the network, the optimizer, the
# deployment profiles and the refresh cadence; TrainConfig holds the rest
DIM = 16
HIDDEN = (32, 32)
CLASSES = 2
N_TRAIN = 2000
N_EVAL = 500
BATCH_SIZE = 64
MOMENTUM = 0.9
PROFILES = (4, 16, 32)
PROFILE_NAMES = ("tiny", "med", "max")
AUG_SIGMA = 0.05
EMA_DECAY = 0.9
REFRESH_EVERY = 10
REORTHO_EVERY = 50
CLIP_NORM = 2.0
CALIB_SIZE = 64


def _is_number(v, integer=False):
    """True for an int, or a float unless integer is set, that a float64
    holds finitely; bools are neither."""
    kinds = (int, np.integer) if integer \
        else (int, float, np.integer, np.floating)
    return isinstance(v, kinds) and not isinstance(v, bool) \
        and abs(v) <= sys.float_info.max


@dataclass(frozen=True)
class LossWeights:
    """Objective weights plus the drift tolerance and warmup fraction."""

    self_distill: float = 0.5
    aug_consistency: float = 0.2
    drift_cap: float = 0.2
    epsilon: float = 0.15
    warmup_frac: float = 0.15

    def __post_init__(self):
        for name in ("self_distill", "aug_consistency", "drift_cap",
                     "epsilon", "warmup_frac"):
            if not _is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got "
                                 f"{getattr(self, name)!r}")
        for name in ("self_distill", "aug_consistency", "drift_cap"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be non-negative")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if not 0.0 <= self.warmup_frac <= 1.0:
            raise ValueError("warmup_frac must be in [0, 1]")


@dataclass(frozen=True)
class RankSampler:
    """Annealed distribution over ranks 1..k_max: uniform early, profiles
    late. t_anneal >= 1, and profiles holds distinct ranks in [1, k_max]
    in ascending order."""

    k_max: int
    t_anneal: int
    profiles: tuple


def gamma_schedule(sampler, t):
    """Uniform-component weight at step t >= 0: max(0, 1 - t / t_anneal)."""
    return max(0.0, 1.0 - float(t) / float(sampler.t_anneal))


def rank_probabilities(sampler, t):
    """Probability of each rank in [1, k_max] at step t."""
    gamma = gamma_schedule(sampler, t)
    n = sampler.k_max
    p = np.full(n, gamma / n)
    for prof in sampler.profiles:
        p[prof - 1] += (1.0 - gamma) / len(sampler.profiles)
    return p


def sample_rank(sampler, t, rng):
    """One rank draw from the annealed mixture."""
    ks = np.arange(1, sampler.k_max + 1)
    return int(rng.choice(ks, p=rank_probabilities(sampler, t)))


def lambda_warmup(base, t, warmup_steps):
    """Linear ramp from zero to base over warmup_steps >= 0 steps, then
    constant, at step t >= 0."""
    if warmup_steps == 0:
        return float(base)
    return float(base) * min(1.0, float(t) / float(warmup_steps))


def make_dataset(seed, n_train=N_TRAIN, n_eval=N_EVAL, dim=DIM):
    """Two interleaved Gaussian-mixture classes embedded in dim axes.

    Class centers form an XOR layout in a 2-D plane; the remaining axes
    carry low-power noise and the whole cloud is rotated by a seeded
    orthogonal map, then standardized on the training split; dim >= 3.
    """
    rng = np.random.default_rng(seed)
    n = n_train + n_eval
    y = rng.integers(0, 2, size=n)
    arm = rng.integers(0, 2, size=n)
    centers = np.array([[[0.0, 0.0], [2.2, 2.2]],
                        [[0.0, 2.2], [2.2, 0.0]]])
    plane = centers[y, arm] + 0.5 * rng.standard_normal((n, 2))
    rest = 0.4 * rng.standard_normal((n, dim - 2))
    x = np.concatenate([plane, rest], axis=1)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    x = x @ q.T
    mu = x[:n_train].mean(axis=0)
    sd = x[:n_train].std(axis=0)
    x = (x - mu) / np.where(sd > 0, sd, 1.0)
    return (x[:n_train], y[:n_train].astype(np.int64),
            x[n_train:], y[n_train:].astype(np.int64))


def build_network(seed, dim=DIM, hidden=HIDDEN, classes=CLASSES):
    """Elastic dense stack with ReLU bodies and a linear output layer."""
    rng = np.random.default_rng(seed)
    dims = (int(dim),) + tuple(int(h) for h in hidden) + (int(classes),)
    blocks = []
    for i in range(len(dims) - 1):
        w = rng.standard_normal((dims[i + 1], dims[i])) \
            * np.sqrt(2.0 / dims[i])
        act = network.RELU if i < len(dims) - 2 else network.IDENTITY
        blocks.append(network.Block(
            elastic=elastic.from_dense(w, bias=np.zeros(dims[i + 1])),
            activation=act))
    return network.Network(tuple(blocks))


@dataclass(frozen=True)
class LossTerms:
    """Weighted objective contributions; they sum to total exactly."""

    total: float
    task: float
    self_distill: float
    aug_consistency: float
    drift_cap: float
    drift_surrogate: float

    def as_dict(self):
        return {"task": self.task, "self_distill": self.self_distill,
                "aug_consistency": self.aug_consistency,
                "drift_cap": self.drift_cap}


def _fresh_coeffs(net, calib):
    """One certificate coefficient (sensitivity x alpha) per layer, from
    the sampled proxy at the calibration rows."""
    stats = certificate.calibrate(net, calib)
    rows = certificate.ledgers(net, stats, [None], certificate.SAMPLED,
                               calib)[0]
    return np.array([sens * alpha for sens, _, alpha in rows])


def _log_softmax(z):
    shifted = z - np.max(z, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def _log_softmax_grad(g, logp):
    """Gradient at the logits from g, the gradient at log_softmax's
    output logp."""
    return g - np.exp(logp) * np.sum(g, axis=-1, keepdims=True)


def _kl(logp_teacher, logp_student, scale):
    """KL(teacher || student) of each row times that row's entry of
    scale, with its gradients at both log-probabilities; the teacher is
    not detached."""
    p = np.exp(logp_teacher)
    gap = logp_teacher - logp_student
    sp = scale[:, None] * p
    return np.sum(p * gap, axis=-1) * scale, sp * gap + sp, -sp


def _layer_grads(net, trace, entries, dlogits):
    """u/core/v/bias gradients of one view from the loss's logit gradient.

    Each block's gradient after its weight multiply gives the gradient of
    the served weight u diag(core) v^T; its (k, q) slices differentiate
    that product, and each slice's gradient passes to the stored factor
    unchanged (the identity straight-through estimator), zero past rank
    k.
    """
    out = []
    for blk, (k, q), a, g in zip(
            net.blocks, entries, trace.inputs,
            network.backward(net, trace, entries, dlogits[:, None, :])):
        g = g[:, 0, :]
        lay = blk.elastic
        u, core, v = elastic._served_slices(lay, k, q)
        gw = g.T @ a
        gus = gw @ v
        grads = {name: np.zeros_like(arr)
                 for name, arr in network._factor_arrays(lay)}
        grads["u"][:, :k] = gus * core
        grads["core"][:k] = np.sum(gus * u, axis=0)
        grads["v"][:, :k] = gw.T @ (u * core)
        if lay.bias is not None:
            grads["bias"] = np.sum(g, axis=0)
        out.append(grads)
    return out


def total_loss(net, batch, k, weights, *, coeffs, noise=None, bits=None):
    """Four-term objective at sampled rank k, with parameter gradients.

    batch is (x, y): x holds one input per row and y one label per row.
    coeffs holds one certificate coefficient (sensitivity x alpha) per
    layer; the drift cap scales each layer's tail by it. noise is the
    standard-normal block shaped like x that augmentation consistency
    scales by AUG_SIGMA and adds to the batch; it is needed only when
    weights.aug_consistency is positive.

    With augmentation consistency on, the augmented copy is stacked under
    the batch, and each profile (full, and compressed when a regularizer
    is on) runs once over the stack, through network.forward and
    network.backward. Returns (LossTerms, grads) where grads is a
    per-layer dict of u, core, v and bias gradients, summed over the
    profiles. Any non-finite term aborts the step.
    """
    x, y = batch
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    entries = network.rank_profile(net, k, bits)
    full = network.resolve_profile(net, None)
    b_sz = x.shape[0]
    if weights.aug_consistency > 0.0:
        x = np.concatenate([x, x + AUG_SIGMA * noise])

    tr_full = network.forward(net, x, full)
    logp_f = _log_softmax(tr_full.logits)
    g_f = np.zeros_like(logp_f)
    g_f[np.arange(b_sz), y] = -1.0 / b_sz
    task = float(np.sum(g_f * logp_f))

    sd = aug = 0.0
    tr_comp = None
    if weights.self_distill > 0.0 or weights.aug_consistency > 0.0:
        tr_comp = network.forward(net, x, entries)
        logp_c = _log_softmax(tr_comp.logits)
        # self-distillation weighs the batch rows, augmentation
        # consistency the augmented ones
        row_w = np.repeat([weights.self_distill, weights.aug_consistency],
                          b_sz)[:x.shape[0]] / b_sz
        kl, g_t, g_c = _kl(logp_f, logp_c, row_w)
        g_f += g_t
        sd, aug = float(np.sum(kl[:b_sz])), float(np.sum(kl[b_sz:]))

    # drift surrogate: per layer, the largest stored tail magnitude past
    # the served rank, scaled by the EMA certificate coefficient
    tails = [(i, kk, blk.elastic.factors.core[kk:blk.elastic.k_max])
             for i, (blk, (kk, _)) in enumerate(zip(net.blocks, entries))
             if kk < blk.elastic.k_max]
    cert = surrogate = 0.0
    if weights.drift_cap > 0.0 and tails:
        surrogate = sum(float(np.max(np.abs(t))) * float(coeffs[i])
                        for i, _, t in tails)
        cert = max(surrogate - weights.epsilon, 0.0) * weights.drift_cap

    terms = LossTerms(total=task + sd + aug + cert, task=task,
                      self_distill=sd, aug_consistency=aug,
                      drift_cap=cert, drift_surrogate=surrogate)
    bad = [name for name, v in (("total", terms.total),
                                *terms.as_dict().items())
           if not np.isfinite(v)]
    if bad:
        raise FloatingPointError(
            f"non-finite loss terms {bad}: {terms!r}")

    grads = _layer_grads(net, tr_full, full, _log_softmax_grad(g_f, logp_f))
    if tr_comp is not None:
        comp = _layer_grads(net, tr_comp, entries,
                            _log_softmax_grad(g_c, logp_c))
        grads = [{name: gf[name] + gc[name] for name in gf}
                 for gf, gc in zip(grads, comp)]
    if surrogate > weights.epsilon:
        # the hinge's subgradient reaches each tail's first largest entry
        for i, kk, t in tails:
            j = int(np.argmax(np.abs(t)))
            grads[i]["core"][kk + j] += \
                weights.drift_cap * float(coeffs[i]) * np.sign(t[j])
    return terms, grads


# TrainConfig's integer fields with their smallest values, and its real
# fields that must be positive
_INT_FLOORS = (("steps", 1), ("log_every", 1), ("divergence_patience", 1))
_POSITIVE = ("lr", "divergence_factor")


@dataclass(frozen=True)
class TrainConfig:
    """What a run may change besides its seed; the module constants fix
    the rest. A checkpoint records the digest of the config and the seed
    that wrote it, and resumes only under both. Every numeric field is
    checked for type and range here, so a bad config fails before
    training starts."""

    steps: int = 400
    lr: float = 0.02
    weights: LossWeights = field(default_factory=LossWeights)
    log_every: int = 10
    train_bits: int | None = None
    divergence_factor: float = 10.0
    divergence_patience: int = 100

    def __post_init__(self):
        for name, low in _INT_FLOORS:
            v = getattr(self, name)
            if not (_is_number(v, integer=True) and v >= low):
                raise ValueError(f"{name} must be an integer >= {low}, "
                                 f"got {v!r}")
        for name in _POSITIVE:
            v = getattr(self, name)
            if not (_is_number(v) and v > 0.0):
                raise ValueError(f"{name} must be a positive number, "
                                 f"got {v!r}")
        if self.train_bits is not None and not (
                _is_number(self.train_bits, integer=True)
                and quant.MIN_BITS <= self.train_bits
                <= cost.UNQUANTIZED_BITS):
            raise ValueError(f"train_bits must be null or an integer in "
                             f"[{quant.MIN_BITS}, {cost.UNQUANTIZED_BITS}]"
                             f", got {self.train_bits!r}")

    @property
    def anneal_steps(self):
        return max(1, self.steps // 3)

    @property
    def warmup_steps(self):
        return int(round(self.weights.warmup_frac * self.steps))


@dataclass
class TrainState:
    """Mutable run state; everything here round-trips a checkpoint."""

    step: int
    net: network.Network
    cert_coeffs: np.ndarray
    rng: np.random.Generator
    opt: dict
    metrics: list
    initial_loss: float | None = None
    diverge_streak: int = 0


@dataclass(frozen=True)
class TrainReport:
    """Final logged loss, the evaluated profiles (name -> per-layer (rank,
    bits) pairs), their evaluation, and the calibration statistics of
    the trained net that the evaluation used."""

    final_loss: float
    profiles: dict
    accuracy: dict
    violation_rate: dict
    drift_bound: dict
    mean_drift: dict
    stats: certificate.CalibrationStats


_METRIC_FIELDS = ("step", "total", "task", "self_distill",
                  "aug_consistency", "drift_cap", "delta_hat", "gamma",
                  "lam_sd", "lam_aug", "lam_cert", "k")


def _init_state(seed, calib):
    net = build_network(seed)
    return TrainState(step=0, net=net, cert_coeffs=_fresh_coeffs(net, calib),
                      rng=np.random.default_rng(seed), opt={}, metrics=[])


def _sgd_update(opt, key, arr, grad, lr, momentum):
    buf = opt.get(key)
    if buf is None:
        buf = np.zeros_like(arr)
        opt[key] = buf
    buf *= momentum
    buf += grad
    arr -= lr * buf


def _clip_grads(grads):
    """Global-norm gradient clipping across every array in the step."""
    sq = 0.0
    for layer in grads:
        for g in layer.values():
            sq += float(np.sum(g * g))
    norm = np.sqrt(sq)
    if norm <= CLIP_NORM:
        return grads
    scale = CLIP_NORM / norm
    return [{name: g * scale for name, g in layer.items()}
            for layer in grads]


def _layer_param(blk, name):
    if name == "bias":
        return blk.elastic.bias
    return getattr(blk.elastic.factors, name)


def _reorthogonalize(net):
    """Reset every dense layer to the exact SVD of its current full
    weight; the represented function is unchanged up to roundoff."""
    blocks = []
    for blk in net.blocks:
        lay = blk.elastic
        w = elastic.effective_weight(lay, lay.k_max)
        blocks.append(replace(blk, elastic=elastic.from_dense(w, lay.bias)))
    return network.Network(tuple(blocks))


def _refresh_coeffs(state, calib, decay):
    fresh = _fresh_coeffs(state.net, calib)
    state.cert_coeffs = decay * state.cert_coeffs + (1 - decay) * fresh


def evaluate(net, x, y, profiles, epsilon, stats):
    """Accuracy, drift-violation rate, and certified bound per profile;
    profiles maps each name to its per-layer (rank, bits) pairs, and
    stats are the net's calibration statistics."""
    ledgers = certificate.ledgers(net, stats, list(profiles.values()))
    full = network.forward(net, x, None).logits
    accuracy, violation, bound, mean_drift = {}, {}, {}, {}
    for (name, pairs), rows in zip(profiles.items(), ledgers):
        logits = network.forward(net, x, pairs).logits
        pred = np.argmax(logits, axis=-1)
        drifts = network._drift(logits, full)
        accuracy[name] = float(np.mean(pred == y))
        violation[name] = float(np.mean(drifts > epsilon))
        mean_drift[name] = float(np.mean(drifts))
        bound[name] = float(certificate.ledger_total(rows))
    return accuracy, violation, bound, mean_drift


def train_toy(config, seed, state=None, stop_after=None):
    """Run (or resume) the loop; returns (state, report).

    The per-step draw order is fixed: batch indices, rank, augmentation
    noise.
    Resuming from a checkpoint therefore replays the exact trajectory,
    provided the resumed run uses the same config (every schedule
    constant derives from config.steps). stop_after pauses the loop
    after that step count so a checkpoint can be taken mid-run.
    """
    x_tr, y_tr, x_ev, y_ev = make_dataset(seed)
    calib = x_tr[:CALIB_SIZE]
    if state is None:
        state = _init_state(seed, calib)
    w = config.weights
    sampler = RankSampler(max(b.elastic.k_max for b in state.net.blocks),
                          config.anneal_steps, PROFILES)
    end = config.steps if stop_after is None \
        else min(config.steps, int(stop_after))
    entry_step = state.step

    while state.step < end:
        t = state.step
        rng = state.rng
        idx = rng.integers(0, N_TRAIN, size=BATCH_SIZE)
        k_t = sample_rank(sampler, t, rng)
        noise = rng.standard_normal((BATCH_SIZE, DIM))

        lam_sd = lambda_warmup(w.self_distill, t, config.warmup_steps)
        lam_aug = lambda_warmup(w.aug_consistency, t,
                                config.warmup_steps)
        lam_cert = lambda_warmup(w.drift_cap, t, config.warmup_steps)
        eff = replace(w, self_distill=lam_sd, aug_consistency=lam_aug,
                      drift_cap=lam_cert)

        terms, grads = total_loss(
            state.net, (x_tr[idx], y_tr[idx]), k_t, eff,
            coeffs=state.cert_coeffs, noise=noise, bits=config.train_bits)

        grads = _clip_grads(grads)

        if state.initial_loss is None:
            state.initial_loss = terms.total
        if terms.total > config.divergence_factor * state.initial_loss:
            state.diverge_streak += 1
            if state.diverge_streak >= config.divergence_patience:
                raise RuntimeError(
                    f"diverged: loss {terms.total:.4g} stayed above "
                    f"{config.divergence_factor}x the initial "
                    f"{state.initial_loss:.4g} for "
                    f"{state.diverge_streak} steps; last terms "
                    f"{terms!r}")
        else:
            state.diverge_streak = 0

        for i, blk in enumerate(state.net.blocks):
            for name, grad in grads[i].items():
                _sgd_update(state.opt, f"l{i}:{name}",
                            _layer_param(blk, name), grad, config.lr,
                            MOMENTUM)

        state.step += 1
        if state.step % REORTHO_EVERY == 0:
            state.net = _reorthogonalize(state.net)
            for i in range(len(state.net.blocks)):
                for name in ("u", "core", "v"):
                    state.opt.pop(f"l{i}:{name}", None)
            _refresh_coeffs(state, calib, 0.0)
        elif state.step % REFRESH_EVERY == 0:
            _refresh_coeffs(state, calib, EMA_DECAY)

        if t % config.log_every == 0 or state.step == config.steps:
            gamma = gamma_schedule(sampler, t)
            state.metrics.append({
                "step": t, "total": terms.total, "task": terms.task,
                "self_distill": terms.self_distill,
                "aug_consistency": terms.aug_consistency,
                "drift_cap": terms.drift_cap,
                "delta_hat": terms.drift_surrogate,
                "gamma": gamma, "lam_sd": lam_sd, "lam_aug": lam_aug,
                "lam_cert": lam_cert, "k": k_t})

    if state.step == config.steps and state.step > entry_step:
        # restore the exact-SVD parametrization once the run completes, so
        # exported spectra are genuine singular values again; the function
        # is unchanged up to roundoff, and a paused-then-resumed run hits
        # this at the same step with the same parameters
        state.net = _reorthogonalize(state.net)

    stats = certificate.calibrate(state.net, calib)
    profiles = {name: network.rank_profile(state.net, k, config.train_bits)
                for name, k in zip(PROFILE_NAMES, PROFILES)}
    accuracy, violation, bound, mean_drift = evaluate(
        state.net, x_ev, y_ev, profiles, w.epsilon, stats)
    last = state.metrics[-1] if state.metrics else {}
    report = TrainReport(
        final_loss=float(last.get("total", float("nan"))),
        profiles=profiles, accuracy=accuracy, violation_rate=violation,
        drift_bound=bound, mean_drift=mean_drift, stats=stats)
    return state, report


def write_metrics_csv(metrics, path):
    """Metrics rows to CSV with a fixed column order."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_METRIC_FIELDS)
        writer.writeheader()
        for row in metrics:
            writer.writerow(row)


def save_checkpoint(state, path, config_digest, seed):
    """Serialize the full run state, with the digest of the config and the
    seed that produced it, to one .npz archive; the network is stored as
    its manifest's bytes."""
    arrays = {"cert_coeffs": state.cert_coeffs,
              "model": np.frombuffer(manifest._dumps(
                  manifest.network_to_doc(state.net)), dtype=np.uint8)}
    for j, buf in enumerate(state.opt.values()):
        arrays[f"opt{j}"] = buf
    meta = {
        "config_digest": config_digest,
        "seed": int(seed),
        "step": state.step,
        "rng": state.rng.bit_generator.state,
        "initial_loss": state.initial_loss,
        "diverge_streak": state.diverge_streak,
        "metrics": state.metrics,
        "opt_keys": list(state.opt),
    }
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(),
                                   dtype=np.uint8)
    with manifest._atomic_write(path) as tmp, open(tmp, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path, config_digest, seed):
    """Rebuild a TrainState saved by save_checkpoint, bit for bit.

    Only the config and seed that wrote a checkpoint replay its
    trajectory, so a checkpoint whose stored digest differs from
    config_digest, or that stores none (an older trainer wrote it), or
    whose stored seed differs from seed, is refused with a ValueError. A
    stored network that fails the manifest's payload or fingerprint
    checks raises ManifestError.
    """
    with np.load(path) as zf:
        data = {key: zf[key] for key in zf.files}
    meta = json.loads(bytes(data["meta"]).decode())
    if not isinstance(meta, dict):
        raise ValueError("checkpoint meta is not a JSON object")
    stored = meta.get("config_digest")
    if stored is None:
        raise ValueError("checkpoint records no config digest; an older "
                         "trainer wrote it, so train from scratch")
    if stored != config_digest:
        raise ValueError(f"checkpoint was written under config {stored}, "
                         f"not this run's {config_digest}")
    if meta.get("seed") != seed:
        raise ValueError(f"checkpoint was written at seed "
                         f"{meta.get('seed')}, not this run's seed {seed}")
    net = manifest.net_from_doc(manifest._loads(bytes(data["model"])))
    opt = {key: data[f"opt{j}"] for j, key in enumerate(meta["opt_keys"])}
    rng = np.random.default_rng()
    rng.bit_generator.state = meta["rng"]
    return TrainState(step=meta["step"], net=net,
                      cert_coeffs=data["cert_coeffs"], rng=rng,
                      opt=opt, metrics=meta["metrics"],
                      initial_loss=meta["initial_loss"],
                      diverge_streak=meta["diverge_streak"])
