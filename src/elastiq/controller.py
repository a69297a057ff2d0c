"""Budget-driven allocation of per-layer ranks and bit-widths.

A budget token names a deployment target (latency, size, energy, device).
This module turns such tokens into deployable per-layer (rank, bits)
profiles: a greedy allocator trades certificate mass against predicted
cost over per-layer menus, holding one menu position per layer; a
monotonicity pass guarantees that looser budgets never shrink any layer;
a runtime selector gates the resulting lattice by predicted latency and
certified drift; and an audit counts the lattice's predicted-latency
drops and drift-bound rises.
"""

import dataclasses
import math
from dataclasses import dataclass

from . import certificate, cost

OK = "ok"
CERT_WARNING = "cert_warning"
INFEASIBLE = "infeasible"

# numeric stand-in for "unquantized" when bit-widths are compared or
# averaged; matches the float32 accounting used by the cost module
_UNQUANTIZED_ORD = 32

_TARGETS = ("latency_target", "bytes_target", "energy_target")


def _q_ord(q):
    return _UNQUANTIZED_ORD if q is None else int(q)


@dataclass(frozen=True)
class BudgetToken:
    """Deployment target: any subset of latency (ms), weight bytes, and
    energy (mJ) caps, tied to one device id."""

    device: str
    latency_target: float | None = None
    bytes_target: int | None = None
    energy_target: float | None = None

    def __post_init__(self):
        if not isinstance(self.device, str) or not self.device:
            raise ValueError("device id must be a non-empty string")
        present = 0
        for name in _TARGETS:
            value = getattr(self, name)
            if value is None:
                continue
            value = float(value)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be positive and finite")
            present += 1
        if present == 0:
            raise ValueError("budget token needs at least one target")


def precedes(tighter, looser):
    """Non-strict partial order on budget tokens.

    True when both tokens name the same device and every target present
    on the first is present on the second with an equal or larger value.
    Targets only the second token carries do not block the relation.
    """
    if tighter.device != looser.device:
        return False
    for name in _TARGETS:
        a = getattr(tighter, name)
        if a is None:
            continue
        b = getattr(looser, name)
        if b is None or float(a) > float(b):
            return False
    return True


@dataclass(frozen=True)
class Profile:
    """Per-layer (rank, bits) assignment. bits None keeps float factors."""

    pairs: tuple
    name: str = ""

    def __post_init__(self):
        pairs = []
        for entry in self.pairs:
            k, q = entry
            k = int(k)
            if k < 1:
                raise ValueError("ranks must be at least 1")
            if q is not None:
                q = int(q)
                if not 2 <= q <= _UNQUANTIZED_ORD:
                    raise ValueError("bit-widths must lie in [2, 32]")
            pairs.append((k, q))
        object.__setattr__(self, "pairs", tuple(pairs))


def _check_menu(menu, where):
    menu = [(int(k), None if q is None else int(q)) for k, q in menu]
    if not menu:
        raise ValueError(f"{where}: menu is empty")
    keys = [(k, _q_ord(q)) for k, q in menu]
    if any(b <= a for a, b in zip(keys, keys[1:])):
        raise ValueError(f"{where}: menu must be strictly ascending")
    return menu


def _check_menus(menus, n_layers):
    menus = list(menus)
    if len(menus) != n_layers:
        raise ValueError("menu count does not match the layer count")
    return [_check_menu(menu, f"layer {i}") for i, menu in enumerate(menus)]


def enforce_monotone(profiles):
    """Minimal upward correction of a budget-ordered profile chain.

    Each layer's rank and bit sequences are replaced by their running
    maxima (bits None counts as 32), so every adjacent pair ends up
    componentwise ordered and no assignment ever decreases. Returns the
    corrected profiles as a tuple; build_lattice has already checked that
    the budgets behind them are ordered.
    """
    profiles = list(profiles)
    if not profiles:
        raise ValueError("profile chain is empty")
    n = len(profiles[0].pairs)
    if any(len(p.pairs) != n for p in profiles):
        raise ValueError("profiles disagree on the layer count")
    cur_k = [0] * n
    cur_q = [(2, 2)] * n  # (ordinal, stored value); overwritten below
    out = []
    for pos, prof in enumerate(profiles):
        pairs = []
        for ell, (k, q) in enumerate(prof.pairs):
            if pos == 0:
                cur_k[ell] = k
                cur_q[ell] = (_q_ord(q), q)
            else:
                if k < cur_k[ell]:
                    k = cur_k[ell]
                else:
                    cur_k[ell] = k
                if _q_ord(q) < cur_q[ell][0]:
                    q = cur_q[ell][1]
                else:
                    cur_q[ell] = (_q_ord(q), q)
            pairs.append((k, q))
        out.append(dataclasses.replace(prof, pairs=tuple(pairs)))
    return tuple(out)


def certificate_mass(net, stats, menus, mode=certificate.CONSERVATIVE,
                     calibration_inputs=None):
    """Per-layer, per-menu-entry certified drift contribution.

    mass[ell][i] multiplies the layer's logit sensitivity, the weight
    change the entry causes, and the calibrated input-norm scale. The
    table drives greedy allocation; certified reports always come from
    the certificate module itself.
    """
    menus = _check_menus(menus, len(net.blocks))
    rows = certificate.ledger(net, stats, None, mode, calibration_inputs)
    table = []
    for ell, ((sens, _, alpha), menu) in enumerate(zip(rows, menus)):
        table.append(certificate.ledger_terms(
            [(sens, certificate.compression_gain(net, ell, k, q), alpha)
             for k, q in menu]))
    return table


@dataclass(frozen=True)
class KnapsackResult:
    """Greedy allocation outcome.

    trace lists the applied upgrades as (layer index, new menu position);
    feasible is False when even the all-minimum profile exceeds the
    budget, in which case that minimum profile is returned.
    """

    profile: Profile
    feasible: bool
    trace: tuple
    predicted: dict


def _within_budget(predicted, budget):
    if budget.latency_target is not None \
            and predicted["latency_ms"] > budget.latency_target:
        return False
    if budget.bytes_target is not None \
            and predicted["weight_bytes"] > budget.bytes_target:
        return False
    if budget.energy_target is not None \
            and predicted["energy_mj"] > budget.energy_target:
        return False
    return True


def greedy_knapsack(net, menus, budget, benefit, cost_model=None,
                    energy_model=None, spatial=None, name=""):
    """Benefit-per-cost menu allocation under a budget token.

    Starts every layer at its smallest menu entry and repeatedly applies
    the feasible single-step upgrade with the largest drop in
    certificate mass per unit of predicted cost (latency when a latency
    model is given, otherwise energy, otherwise weight bytes); free or
    cost-neutral upgrades rank highest, and ratio ties go to the lowest
    layer index. benefit[ell][i] is the certificate mass of layer ell at
    menu entry i, as built by certificate_mass. Each menu entry is
    priced once with cost.layer_cost.
    """
    n = len(net.blocks)
    menus = _check_menus(menus, n)
    benefit = [list(map(float, b)) for b in benefit]
    if [len(b) for b in benefit] != [len(m) for m in menus]:
        raise ValueError("benefit table does not match the menus")
    if budget.latency_target is not None and cost_model is None:
        raise ValueError("latency target needs a fitted cost model")
    if budget.energy_target is not None and energy_model is None:
        raise ValueError("energy target needs a fitted energy model")
    for model in (cost_model, energy_model):
        if model is not None and model.device != budget.device:
            raise ValueError("budget device does not match the model")

    if cost_model is not None:
        objective = "latency_ms"
    elif energy_model is not None:
        objective = "energy_mj"
    else:
        objective = "weight_bytes"

    priced = [[cost.layer_cost(blk.elastic, k, q, spatial) for k, q in menu]
              for blk, menu in zip(net.blocks, menus)]

    def predicted_at(position):
        rows = [priced[ell][i] for ell, i in enumerate(position)]
        return {"weight_bytes": int(sum(r.weight_bytes for r in rows)),
                "latency_ms": None if cost_model is None
                else cost.predict(cost_model, rows),
                "energy_mj": None if energy_model is None
                else cost.predict(energy_model, rows)}

    def profile_at(position):
        return Profile(tuple(menus[ell][i] for ell, i in enumerate(position)),
                       name=name)

    position = [0] * n
    predicted = predicted_at(position)
    if not _within_budget(predicted, budget):
        return KnapsackResult(profile_at(position), False, (), predicted)

    trace = []
    while True:
        best = None
        for ell, pos in enumerate(position):
            if pos + 1 >= len(menus[ell]):
                continue
            trial = list(position)
            trial[ell] = pos + 1
            trial_pred = predicted_at(trial)
            if not _within_budget(trial_pred, budget):
                continue
            dbenefit = benefit[ell][pos] - benefit[ell][pos + 1]
            dcost = trial_pred[objective] - predicted[objective]
            ratio = math.inf if dcost <= 0.0 else dbenefit / dcost
            key = (-ratio, ell)
            if best is None or key < best[0]:
                best = (key, ell, trial, trial_pred)
        if best is None:
            break
        _, ell, position, predicted = best
        trace.append((ell, position[ell]))
    return KnapsackResult(profile_at(position), True, tuple(trace),
                          predicted)


@dataclass(frozen=True)
class ProfileLattice:
    """Budget-ordered deployable profile chain with per-profile costs.

    Profiles must grow componentwise along the chain; that total order
    is what makes runtime downshifts safe. energy is optional. spatial is
    the (H, W) conv layers were priced at; dense nets have none.
    """

    profiles: tuple
    predicted_latency: tuple
    weight_bytes: tuple
    drift_bound: tuple
    energy: tuple | None = None
    device: str | None = None
    spatial: tuple | None = None

    def __post_init__(self):
        profiles = tuple(self.profiles)
        if not profiles:
            raise ValueError("lattice needs at least one profile")
        object.__setattr__(self, "profiles", profiles)
        for name in ("predicted_latency", "weight_bytes", "drift_bound",
                     "energy"):
            value = getattr(self, name)
            if value is None:
                continue
            value = tuple(value)
            if len(value) != len(profiles):
                raise ValueError(f"{name} does not match the profiles")
            if any(v < 0 for v in value):
                raise ValueError(f"{name} entries must be non-negative")
            object.__setattr__(self, name, value)
        n = len(profiles[0].pairs)
        if any(len(p.pairs) != n for p in profiles):
            raise ValueError("profiles disagree on the layer count")
        for a, b in zip(profiles, profiles[1:]):
            for (ka, qa), (kb, qb) in zip(a.pairs, b.pairs):
                if kb < ka or _q_ord(qb) < _q_ord(qa):
                    raise ValueError(
                        "lattice profiles must grow componentwise")

    def __len__(self):
        return len(self.profiles)


def build_lattice(net, menus, budgets, benefit, stats, cost_model,
                  energy_model=None, spatial=None,
                  mode=certificate.CONSERVATIVE, calibration_inputs=None):
    """Greedy profiles at each budget level, ordered and priced.

    Checks that the budgets are ordered tightest first, runs the greedy
    allocator per budget, raises the chain to monotonicity with
    enforce_monotone, then attaches predicted latency, weight bytes, the
    aggregate drift bound, and optional energy. Three budgets are named
    tiny/med/max, any other count s1, s2, ....
    """
    budgets = list(budgets)
    if not 1 <= len(budgets) <= 8:
        raise ValueError("lattice supports 1 to 8 budget levels")
    for a, b in zip(budgets, budgets[1:]):
        if not precedes(a, b):
            raise ValueError("budgets must be ordered tightest first")
    names = ("tiny", "med", "max") if len(budgets) == 3 \
        else tuple(f"s{j + 1}" for j in range(len(budgets)))
    profiles = enforce_monotone(
        greedy_knapsack(net, menus, budget, benefit, cost_model,
                        energy_model, spatial, name=label).profile
        for budget, label in zip(budgets, names))
    lat, wbytes, drift, energy = [], [], [], []
    for prof in profiles:
        rows = cost.profile_costs(net, prof, spatial)
        lat.append(cost.predict(cost_model, rows))
        wbytes.append(int(sum(r.weight_bytes for r in rows)))
        drift.append(certificate.expected_bound(
            net, stats, prof, mode, calibration_inputs))
        if energy_model is not None:
            energy.append(cost.predict(energy_model, rows))
    return ProfileLattice(
        profiles=profiles,
        predicted_latency=tuple(lat),
        weight_bytes=tuple(wbytes),
        drift_bound=tuple(drift),
        energy=tuple(energy) if energy_model is not None else None,
        device=cost_model.device,
        spatial=None if spatial is None else tuple(spatial))


@dataclass(frozen=True)
class SelectionResult:
    index: int
    profile: Profile
    status: str
    predicted_latency: float
    drift_bound: float


def select_runtime(lattice, budget, epsilon):
    """Fastest profile that honors both the budget and the certificate.

    Scans the whole lattice for profiles meeting every present cost
    target with drift bound at most epsilon and returns the one with the
    smallest predicted latency (ties to the lower index). When only the
    certificate blocks, the overall fastest profile is returned with a
    cert_warning status; when no profile can meet the cost targets at
    all, the fastest is returned flagged infeasible.
    """
    if lattice.device is not None and budget.device != lattice.device:
        raise ValueError("budget device does not match the lattice")
    if budget.energy_target is not None and lattice.energy is None:
        raise ValueError("lattice carries no energy predictions")
    epsilon = float(epsilon)
    n = len(lattice)

    def cost_ok(j):
        if budget.latency_target is not None \
                and lattice.predicted_latency[j] > budget.latency_target:
            return False
        if budget.bytes_target is not None \
                and lattice.weight_bytes[j] > budget.bytes_target:
            return False
        if budget.energy_target is not None \
                and lattice.energy[j] > budget.energy_target:
            return False
        return True

    order = sorted(range(n), key=lambda j: (lattice.predicted_latency[j],
                                            j))
    feasible = [j for j in order
                if cost_ok(j) and lattice.drift_bound[j] <= epsilon]
    if feasible:
        j = feasible[0]
        status = OK
    else:
        j = order[0]
        status = CERT_WARNING if any(cost_ok(i) for i in range(n)) \
            else INFEASIBLE
    return SelectionResult(j, lattice.profiles[j], status,
                           float(lattice.predicted_latency[j]),
                           float(lattice.drift_bound[j]))


@dataclass(frozen=True)
class MonotoneAudit:
    """Adjacent-pair scan results over a budget-ordered lattice."""

    latency_events: int
    drift_events: int
    pairs: int
    violation_percent: float


def audit_monotone(lattice):
    """Count order inversions along a ProfileLattice.

    An event is a predicted-latency DROP or a drift-bound RISE from one
    budget point to the next looser one; violation_percent is the share
    of the 2 * pairs checks that found one.
    """
    lat, drift = lattice.predicted_latency, lattice.drift_bound
    latency = sum(b < a for a, b in zip(lat, lat[1:]))
    rises = sum(b > a for a, b in zip(drift, drift[1:]))
    pairs = len(lattice) - 1
    checks = 2 * pairs
    percent = 100.0 * (latency + rises) / checks if checks else 0.0
    return MonotoneAudit(latency, rises, pairs, percent)
