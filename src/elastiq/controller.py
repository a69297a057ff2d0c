"""Budget-driven allocation of per-layer ranks and bit-widths.

A budget token names a deployment target (latency, size, energy, device).
This module turns such tokens into deployable per-layer (rank, bits)
profiles: a greedy allocator trades certificate mass against predicted
cost over per-layer menus, a monotonicity pass guarantees that looser
budgets never shrink any layer, and a runtime selector gates the
resulting lattice by predicted latency and certified drift.
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


def tied_groups(net):
    """Per-layer tied-budget labels (None where a layer is untied)."""
    return tuple(b.elastic.group_id for b in net.blocks)


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


def _group_members(groups):
    """Group layers by tied label; untied layers form singleton groups.

    Result preserves layer order via each group's lead (lowest) index.
    """
    members = {}
    order = []
    for i, gid in enumerate(groups):
        key = ("layer", i) if gid is None else ("group", gid)
        if key not in members:
            members[key] = []
            order.append(key)
        members[key].append(i)
    return [members[key] for key in order]


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

    trace lists the applied upgrades as (lead layer index, new menu
    position); feasible is False when even the all-minimum profile
    exceeds the budget, in which case that minimum profile is returned.
    """

    profile: Profile
    feasible: bool
    trace: tuple
    predicted: dict


def _predicted_costs(net, entries, cost_model, energy_model, spatial):
    rows = cost.profile_costs(net, entries, spatial)
    out = {"weight_bytes": int(sum(r.weight_bytes for r in rows))}
    out["latency_ms"] = (None if cost_model is None
                         else cost.predict(cost_model, rows))
    out["energy_mj"] = (None if energy_model is None
                        else cost.predict(energy_model, rows))
    return out


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
    layer index. Tied-budget groups (tied_groups) step as one unit and
    must share identical menus. benefit[ell][i] is the certificate mass
    of layer ell at menu entry i, as built by certificate_mass.
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
    grouped = _group_members(tied_groups(net))
    for members in grouped:
        first = menus[members[0]]
        if any(menus[m] != first for m in members[1:]):
            raise ValueError("tied-group layers must share one menu")

    if cost_model is not None:
        objective = "latency_ms"
    elif energy_model is not None:
        objective = "energy_mj"
    else:
        objective = "weight_bytes"

    position = [0] * len(grouped)

    def entries_at(position):
        ent = [None] * n
        for g, members in enumerate(grouped):
            for m in members:
                ent[m] = menus[m][position[g]]
        return ent

    predicted = _predicted_costs(net, entries_at(position), cost_model,
                                 energy_model, spatial)
    if not _within_budget(predicted, budget):
        prof = Profile(tuple(entries_at(position)), name=name)
        return KnapsackResult(prof, False, (), predicted)

    trace = []
    while True:
        best = None
        for g, members in enumerate(grouped):
            pos = position[g]
            if pos + 1 >= len(menus[members[0]]):
                continue
            trial = list(position)
            trial[g] = pos + 1
            trial_pred = _predicted_costs(
                net, entries_at(trial), cost_model, energy_model, spatial)
            if not _within_budget(trial_pred, budget):
                continue
            dbenefit = sum(benefit[m][pos] - benefit[m][pos + 1]
                           for m in members)
            dcost = trial_pred[objective] - predicted[objective]
            ratio = math.inf if dcost <= 0.0 else dbenefit / dcost
            key = (-ratio, members[0])
            if best is None or key < best[0]:
                best = (key, g, trial, trial_pred)
        if best is None:
            break
        _, g, position, predicted = best
        trace.append((grouped[g][0], position[g]))
    prof = Profile(tuple(entries_at(position)), name=name)
    return KnapsackResult(prof, True, tuple(trace), predicted)


@dataclass(frozen=True)
class ProfileLattice:
    """Budget-ordered deployable profile chain with per-profile costs.

    Profiles must grow componentwise along the chain; that total order
    is what makes runtime downshifts safe. measured_latency carries
    synthetic-device observations when available; energy is optional.
    spatial is the (H, W) conv layers were priced at; dense nets have none.
    """

    profiles: tuple
    predicted_latency: tuple
    weight_bytes: tuple
    drift_bound: tuple
    measured_latency: tuple | None = None
    energy: tuple | None = None
    device: str | None = None
    spatial: tuple | None = None

    def __post_init__(self):
        profiles = tuple(self.profiles)
        if not profiles:
            raise ValueError("lattice needs at least one profile")
        object.__setattr__(self, "profiles", profiles)
        for name in ("predicted_latency", "weight_bytes", "drift_bound",
                     "measured_latency", "energy"):
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
    tiny/med/max, any other count s1, s2, ...; no measured latencies are
    attached.
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
    """Adjacent-pair scan results over a budget-ordered chain."""

    accuracy_events: int
    latency_events: int
    drift_events: int
    pairs: int
    violation_percent: float


def audit_monotone(subject, metrics=None):
    """Count order inversions along an ordered profile chain.

    subject is a ProfileLattice (its predicted latency and drift bound
    feed the scan) or a plain profile sequence; metrics(i, profile) may
    supply or override per-point values for the keys accuracy, latency,
    and drift. An event is an accuracy or latency DROP, or a drift RISE,
    from one budget point to the next looser one; only keys present at
    every point are scanned.
    """
    if isinstance(subject, ProfileLattice):
        profiles = subject.profiles
        rows = [{"latency": subject.predicted_latency[i],
                 "drift": subject.drift_bound[i]}
                for i in range(len(subject))]
    else:
        profiles = list(subject)
        rows = [{} for _ in profiles]
        if metrics is None:
            raise ValueError("profile sequences need a metrics callable")
    if metrics is not None:
        for i, prof in enumerate(profiles):
            extra = metrics(i, prof)
            if extra:
                rows[i].update(extra)
    keys = [key for key in ("accuracy", "latency", "drift")
            if all(key in row for row in rows)]
    counts = dict.fromkeys(("accuracy", "latency", "drift"), 0)
    pairs = max(len(profiles) - 1, 0)
    for prev, nxt in zip(rows, rows[1:]):
        for key in keys:
            if key == "drift":
                counts[key] += nxt[key] > prev[key]
            else:
                counts[key] += nxt[key] < prev[key]
    total = sum(counts[key] for key in keys)
    checks = pairs * len(keys)
    percent = 100.0 * total / checks if checks else 0.0
    return MonotoneAudit(counts["accuracy"], counts["latency"],
                         counts["drift"], pairs, percent)
