"""Compute and memory accounting plus a fitted latency/energy proxy.

Multiply-add counts and byte footprints of the path network.forward
executes at each operating point, both read from elastic: FLOPs from
elastic.served_flops (the cheaper of the staged factors and the rebuilt
weight, the one elastic.runs_staged picks) and bytes from the factor
slices of elastic._rank_slices at the profile's bit width. A
nonnegative-least-squares latency model is fitted over (FLOPs, bytes)
features. No hardware is touched: device tables are synthesized from a
planted linear model with multiplicative log-normal noise, clearly
labeled as such, so the fit/predict loop stays testable on a desk.

Bytes are rounded up per tensor. Unquantized factors are counted at 32
bits.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import elastic, network

ACTIVATION_BITS = 8
# an unquantized factor's bits, and so the widest stored width: a wider one
# would cost more bytes than the float factor
UNQUANTIZED_BITS = 32
# log-normal sigma of the synthetic device table's measurement noise
_SYNTH_NOISE_SIGMA = 0.03


@dataclass(frozen=True)
class LayerCost:
    flops: int
    weight_bytes: int
    activation_bytes: int

    def __post_init__(self):
        if min(self.flops, self.weight_bytes, self.activation_bytes) < 0:
            raise ValueError("costs must be non-negative")


def _tensor_bytes(count, bits):
    return -(-count * bits // 8)


def bytes_of(layer, k, q=None):
    """Weight bytes of a layer at rank k and bit width q: its rank-k
    factor slices (u, core, v) at q bits per value, q None counting 32-bit
    floats. Each slice is rounded up to whole bytes on its own."""
    bits = UNQUANTIZED_BITS if q is None else int(q)
    return sum(_tensor_bytes(t.size, bits)
               for t in elastic._rank_slices(layer, k))


def layer_cost(layer, k, q=None, spatial=None):
    """Full accounting for one layer at one operating point.

    Dense layers need no spatial size; conv layers require
    spatial=(H, W) of the feature map. FLOPs are those of the path
    network.forward executes: the fewer of elastic.served_flops' two
    counts per output position, times H*W for a conv layer. Activation
    bytes cover one input read plus one output write at ACTIVATION_BITS.
    """
    positions = 1
    if layer.kind == elastic.CONV_TUCKER2:
        if spatial is None:
            raise ValueError("conv layers need spatial=(H, W)")
        positions = spatial[0] * spatial[1]
    act_elems = (layer.in_features + layer.out_features) * positions
    return LayerCost(flops=int(min(elastic.served_flops(layer, k))
                               * positions),
                     weight_bytes=int(bytes_of(layer, k, q)),
                     activation_bytes=int(_tensor_bytes(act_elems,
                                                        ACTIVATION_BITS)))


def profile_costs(net, profile, spatial=None):
    """Per-layer LayerCost list for one profile of a network."""
    entries = network.resolve_profile(net, profile)
    return [layer_cost(b.elastic, k, q, spatial)
            for b, (k, q) in zip(net.blocks, entries)]


@dataclass(frozen=True)
class DeviceTable:
    """Per-profile latency (and optional energy) measurements."""

    device: str
    entries: tuple

    def __post_init__(self):
        for pid, lat, energy in self.entries:
            if not lat > 0.0:
                raise ValueError(f"latency for {pid} must be positive")
            if energy is not None and not energy > 0.0:
                raise ValueError(f"energy for {pid} must be positive")


def synth_device_table(cost_rows, device="synthetic-device", seed=0):
    """Draw a synthetic latency and energy table from a planted linear model.

    Per-layer compute and memory coefficients are log-uniform, a global
    kernel-launch intercept is added, and every profile's clean value is
    scaled by exp(_SYNTH_NOISE_SIGMA * z). Returns (table, planted) where
    planted holds the latency model's true coefficients for
    plant-and-recover checks.
    """
    rows = [list(r) for r in cost_rows]
    if not rows:
        raise ValueError("need at least one profile")
    n_layers = len(rows[0])
    if any(len(r) != n_layers for r in rows):
        raise ValueError("ragged cost rows")
    # coefficient ranges sized so desk-scale feature counts contribute on
    # the order of the intercept: the grid's latency variation must carry
    # signal, not just noise
    rng = np.random.default_rng(seed)
    intercept = 10.0 ** rng.uniform(-2.0, -1.0)
    comp = 10.0 ** rng.uniform(-4.0, -3.0, n_layers)
    mem = 10.0 ** rng.uniform(-4.0, -3.0, n_layers)
    e_intercept = 10.0 ** rng.uniform(-1.0, 0.0)
    e_comp = 10.0 ** rng.uniform(-4.0, -3.0, n_layers)
    e_mem = 10.0 ** rng.uniform(-4.0, -3.0, n_layers)
    entries = []
    for i, row in enumerate(rows):
        lat = intercept
        en = e_intercept
        for j, c in enumerate(row):
            b = c.weight_bytes + c.activation_bytes
            lat += comp[j] * c.flops + mem[j] * b
            en += e_comp[j] * c.flops + e_mem[j] * b
        lat *= math.exp(_SYNTH_NOISE_SIGMA * rng.standard_normal())
        en *= math.exp(_SYNTH_NOISE_SIGMA * rng.standard_normal())
        entries.append((f"p{i:04d}", float(lat), float(en)))
    table = DeviceTable(device=device, entries=tuple(entries))
    planted = {"intercept": float(intercept),
               "comp": tuple(float(v) for v in comp),
               "mem": tuple(float(v) for v in mem)}
    return table, planted


def nnls(a, b):
    """Nonnegative least squares, active-set style.

    Minimizes ||a x - b||_2 subject to x >= 0 in at most 3n + 10 outer
    steps. Returns (x, residual_norm). Deterministic: ties in the gradient
    pick the lowest index.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = a.shape
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    tol = 10.0 * np.finfo(float).eps * np.linalg.norm(a, 1) * max(m, n)
    for _ in range(3 * n + 10):
        w = a.T @ (b - a @ x)
        w[passive] = -np.inf
        j = int(np.argmax(w))
        if w[j] <= tol:
            break
        passive[j] = True
        while True:
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if np.all(z[passive] > tol):
                x = z
                break
            bad = passive & (z <= tol)
            # largest feasible step toward z that keeps x nonnegative
            alpha = np.min(x[bad] / (x[bad] - z[bad]))
            x = x + alpha * (z - x)
            passive &= x > tol
            x[~passive] = 0.0
    return x, float(np.linalg.norm(b - a @ x))


def _design_matrix(cost_rows):
    rows = [list(r) for r in cost_rows]
    n_layers = len(rows[0])
    feats = []
    for row in rows:
        feat = [1.0]
        for c in row:
            feat.append(float(c.flops))
            feat.append(float(c.weight_bytes + c.activation_bytes))
        feats.append(feat)
    return np.asarray(feats), n_layers


@dataclass(frozen=True)
class CostModel:
    device: str
    intercept: float
    comp: tuple
    mem: tuple
    r_squared: float
    mape_percent: float

    def __post_init__(self):
        if self.intercept < 0.0 or min(self.comp + self.mem, default=0) < 0:
            raise ValueError("coefficients must be non-negative")
        if len(self.comp) != len(self.mem):
            raise ValueError("comp and mem lengths differ")


def fit_cost_model(table, cost_rows, target="latency"):
    """Fit the linear latency (or energy) proxy on a profile grid.

    Needs at least as many profiles as coefficients (1 + 2 per layer) and
    every feature column to vary. Goodness of fit is reported on the grid
    itself as R^2 and mean absolute percentage error.
    """
    rows = [list(r) for r in cost_rows]
    if len(rows) != len(table.entries):
        raise ValueError("cost rows do not match the table entries")
    if target == "latency":
        y = np.array([e[1] for e in table.entries])
    elif target == "energy":
        if any(e[2] is None for e in table.entries):
            raise ValueError("table has no energy measurements")
        y = np.array([e[2] for e in table.entries])
    else:
        raise ValueError("target must be latency or energy")
    x_mat, n_layers = _design_matrix(rows)
    if x_mat.shape[0] < x_mat.shape[1]:
        raise ValueError("underdetermined: need at least as many profiles "
                         "as coefficients")
    if np.any(np.all(x_mat[:, 1:] == 0.0, axis=0)):
        raise ValueError("all-zero feature column")
    coef, _ = nnls(x_mat, y)
    pred = x_mat @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    mape = float(100.0 * np.mean(np.abs(pred - y) / y))
    return CostModel(device=table.device, intercept=float(coef[0]),
                     comp=tuple(float(c) for c in coef[1::2]),
                     mem=tuple(float(c) for c in coef[2::2]),
                     r_squared=r2, mape_percent=mape)


def predict(model, cost_row):
    """Latency estimate of one profile under a fitted model."""
    row = list(cost_row)
    if len(row) != len(model.comp):
        raise ValueError("profile layer count does not match the model")
    total = model.intercept
    for j, c in enumerate(row):
        total += model.comp[j] * c.flops
        total += model.mem[j] * (c.weight_bytes + c.activation_bytes)
    return float(total)


def write_device_table(table, path):
    """CSV export: header profile_id,latency_ms,energy_mj; energy blank
    when absent. The device id is not part of the format."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["profile_id", "latency_ms", "energy_mj"])
        for pid, lat, energy in table.entries:
            writer.writerow([pid, repr(float(lat)),
                             "" if energy is None else repr(float(energy))])


def read_device_table(path, device="imported"):
    entries = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:2] != ["profile_id", "latency_ms"]:
            raise ValueError("unrecognized device table header")
        for row in reader:
            if not row:
                continue
            if len(row) < 2:
                raise ValueError(f"device table row {row[0]!r} has no "
                                 f"latency_ms")
            energy = float(row[2]) if len(row) > 2 and row[2] else None
            entries.append((row[0], float(row[1]), energy))
    return DeviceTable(device=device, entries=tuple(entries))
