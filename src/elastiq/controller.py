"""Budget-driven allocation of per-layer ranks and bit-widths.

A budget token names a deployment target (latency, size, energy, device).
This module turns such tokens into deployable per-layer (rank, bits)
profiles: a snapper projects continuous proposals onto per-layer menus, a
monotonicity pass guarantees that looser budgets never shrink any layer,
a greedy allocator trades certificate mass against predicted cost, a tiny
learned policy maps budget embeddings to menu choices, and a runtime
selector gates profiles by predicted latency and certified drift.
"""

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import certificate, cost, network

OK = "ok"
CERT_WARNING = "cert_warning"
INFEASIBLE = "infeasible"
EVAL = "eval"

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
    """Per-layer (rank, bits) assignment. bits None keeps float factors.

    group_consistent records whether layers sharing a tied-budget group
    carry equal ranks; every profile emitted by this module has it True.
    """

    pairs: tuple
    name: str = ""
    group_consistent: bool = True

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


def make_profile(net, entries, name=""):
    """Validated profile for a concrete network.

    Checks every rank against its layer's [k_min, k_max] window and
    records whether tied groups ended up rank-consistent.
    """
    entries = list(entries)
    if len(entries) != len(net.blocks):
        raise ValueError("entry count does not match the layer count")
    pairs = []
    for blk, entry in zip(net.blocks, entries):
        k, q = entry
        k = int(k)
        lay = blk.elastic
        if not lay.k_min <= k <= lay.k_max:
            raise ValueError(
                f"k={k} outside [{lay.k_min}, {lay.k_max}]")
        pairs.append((k, q))
    consistent = True
    seen = {}
    for gid, (k, _) in zip(tied_groups(net), pairs):
        if gid is None:
            continue
        if gid in seen and seen[gid] != k:
            consistent = False
        seen.setdefault(gid, k)
    return Profile(tuple(pairs), name=name, group_consistent=consistent)


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


def _group_members(groups, n_layers):
    """Group layers by tied label; untied layers form singleton groups.

    Result preserves layer order via each group's lead (lowest) index.
    """
    if groups is None:
        groups = (None,) * n_layers
    groups = list(groups)
    if len(groups) != n_layers:
        raise ValueError("group labels do not match the layer count")
    members = {}
    order = []
    for i, gid in enumerate(groups):
        key = ("layer", i) if gid is None else ("group", gid)
        if key not in members:
            members[key] = []
            order.append(key)
        members[key].append(i)
    return [members[key] for key in order]


def _entry_distance(entry, proposal, beta):
    k_hat, q_hat = proposal
    k, q = entry
    return abs(k - float(k_hat)) + beta * abs(_q_ord(q) - _q_ord_f(q_hat))


def _q_ord_f(q_hat):
    return float(_UNQUANTIZED_ORD) if q_hat is None else float(q_hat)


def snap(proposals, menus, beta=1.0, drift=None, tolerances=None,
         groups=None, name=""):
    """Project continuous per-layer (rank, bits) proposals onto menus.

    Per layer the nearest menu entry under |k - k_hat| + beta*|q - q_hat|
    wins (bits None counts as 32); distance ties go to the larger entry.
    When per-entry drift contributions and per-layer tolerances are
    given, entries whose drift exceeds the tolerance are skipped, which
    escalates the choice toward larger, safer entries. Layers sharing a
    tied-budget group receive one common rank, chosen by the summed
    distance across the group.
    """
    proposals = list(proposals)
    menus = _check_menus(menus, len(proposals))
    beta = float(beta)
    if beta < 0.0:
        raise ValueError("beta must be non-negative")
    if (drift is None) != (tolerances is None):
        raise ValueError("drift gating needs both drift and tolerances")
    if drift is not None:
        drift = [list(map(float, d)) for d in drift]
        if [len(d) for d in drift] != [len(m) for m in menus]:
            raise ValueError("drift table does not match the menus")
        if np.isscalar(tolerances):
            tolerances = [float(tolerances)] * len(menus)
        else:
            tolerances = list(map(float, tolerances))
            if len(tolerances) != len(menus):
                raise ValueError("tolerance count does not match layers")

    def feasible(ell):
        menu = menus[ell]
        if drift is None:
            return list(range(len(menu)))
        keep = [i for i in range(len(menu))
                if drift[ell][i] <= tolerances[ell]]
        return keep

    chosen = [None] * len(menus)
    for members in _group_members(groups, len(menus)):
        if len(members) == 1:
            ell = members[0]
            ids = feasible(ell)
            if not ids:
                raise ValueError(
                    f"no feasible entry in layer {ell}'s menu")
            best = min(ids, key=lambda i: (
                _entry_distance(menus[ell][i], proposals[ell], beta),
                -menus[ell][i][0], -_q_ord(menus[ell][i][1])))
            chosen[ell] = menus[ell][best]
            continue
        per_layer = {}
        common = None
        for ell in members:
            options = {}
            for i in feasible(ell):
                k = menus[ell][i][0]
                cand = (
                    _entry_distance(menus[ell][i], proposals[ell], beta),
                    -_q_ord(menus[ell][i][1]), i)
                if k not in options or cand < options[k]:
                    options[k] = cand
            per_layer[ell] = options
            ks = set(options)
            common = ks if common is None else common & ks
        if not common:
            lead = members[0]
            raise ValueError(
                f"no feasible entry in layer {lead}'s menu shared by "
                "its tied group")
        best_k = min(common, key=lambda k: (
            sum(per_layer[ell][k][0] for ell in members), -k))
        for ell in members:
            idx = per_layer[ell][best_k][2]
            chosen[ell] = menus[ell][idx]
    return Profile(tuple(chosen), name=name, group_consistent=True)


@dataclass(frozen=True)
class MonotoneResult:
    """Corrected profile chain plus the positions that were raised."""

    profiles: tuple
    corrected: tuple


def enforce_monotone(profiles, budgets=None):
    """Minimal upward correction of a budget-ordered profile chain.

    Each layer's rank and bit sequences are replaced by their running
    maxima (bits None counts as 32), so every adjacent pair ends up
    componentwise ordered and no assignment ever decreases. The optional
    budget grid is only validated for ordering.
    """
    profiles = list(profiles)
    if not profiles:
        raise ValueError("profile chain is empty")
    n = len(profiles[0].pairs)
    if any(len(p.pairs) != n for p in profiles):
        raise ValueError("profiles disagree on the layer count")
    if budgets is not None:
        budgets = list(budgets)
        if len(budgets) != len(profiles):
            raise ValueError("budget grid does not match the profiles")
        for a, b in zip(budgets, budgets[1:]):
            if not precedes(a, b):
                raise ValueError("budget grid is not ordered")
    cur_k = [0] * n
    cur_q = [(2, 2)] * n  # (ordinal, stored value); overwritten below
    out = []
    corrected = []
    for pos, prof in enumerate(profiles):
        pairs = []
        changed = False
        for ell, (k, q) in enumerate(prof.pairs):
            if pos == 0:
                cur_k[ell] = k
                cur_q[ell] = (_q_ord(q), q)
            else:
                if k < cur_k[ell]:
                    k, changed = cur_k[ell], True
                else:
                    cur_k[ell] = k
                if _q_ord(q) < cur_q[ell][0]:
                    q, changed = cur_q[ell][1], True
                else:
                    cur_q[ell] = (_q_ord(q), q)
            pairs.append((k, q))
        out.append(dataclasses.replace(prof, pairs=tuple(pairs)))
        if changed:
            corrected.append(pos)
    return MonotoneResult(tuple(out), tuple(corrected))


def certificate_mass(net, stats, menus, mode=certificate.CONSERVATIVE,
                     calibration_inputs=None):
    """Per-layer, per-menu-entry certified drift contribution.

    mass[ell][i] multiplies the layer's logit sensitivity, the weight
    change the entry causes, and the calibrated input-norm scale. The
    table drives snapping tolerances and greedy allocation; certified
    reports always come from the certificate module itself.
    """
    menus = _check_menus(menus, len(net.blocks))
    rows = certificate.ledger(net, stats, None, mode, calibration_inputs)
    table = []
    for ell, ((sens, _, alpha), menu) in enumerate(zip(rows, menus)):
        table.append(certificate.ledger_terms(
            [(sens, certificate.compression_gain(net, ell, k, q), alpha)
             for k, q in menu]))
    return table


def layer_tolerances(net, stats, epsilon, profile,
                     mode=certificate.CONSERVATIVE,
                     calibration_inputs=None):
    """Split a global drift tolerance across layers.

    Each layer receives epsilon times its share of the aggregate bound
    at the reference profile; when that bound is zero (reference equals
    the full model) the split is uniform.
    """
    epsilon = float(epsilon)
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    rows = certificate.ledger(net, stats, profile, mode, calibration_inputs)
    terms = certificate.ledger_terms(rows)
    total = certificate.ledger_total(rows)
    n = len(terms)
    if total <= 0.0:
        return [epsilon / n] * n
    return [epsilon * t / total for t in terms]


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


def _predicted_costs(net, entries, cost_model, energy_model, spatial,
                     activation_bits):
    rows = cost.profile_costs(net, entries, spatial, activation_bits)
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
                    energy_model=None, spatial=None,
                    activation_bits=cost.ACTIVATION_BITS, groups=None,
                    name=""):
    """Benefit-per-cost menu allocation under a budget token.

    Starts every layer at its smallest menu entry and repeatedly applies
    the feasible single-step upgrade with the largest drop in
    certificate mass per unit of predicted cost (latency when a latency
    model is given, otherwise energy, otherwise weight bytes); free or
    cost-neutral upgrades rank highest, and ratio ties go to the lowest
    layer index. Tied-budget groups step as one unit and must share
    identical menus. benefit[ell][i] is the certificate mass of layer
    ell at menu entry i, as built by certificate_mass.
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
    if groups is None:
        groups = tied_groups(net)
    grouped = _group_members(groups, n)
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
                                 energy_model, spatial, activation_bits)
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
                net, entries_at(trial), cost_model, energy_model,
                spatial, activation_bits)
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
    """

    profiles: tuple
    predicted_latency: tuple
    weight_bytes: tuple
    drift_bound: tuple
    measured_latency: tuple | None = None
    energy: tuple | None = None
    device: str | None = None

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
                  energy_model=None, spatial=None, measured_latency=None,
                  names=None, groups=None,
                  activation_bits=cost.ACTIVATION_BITS,
                  mode=certificate.CONSERVATIVE, calibration_inputs=None):
    """Greedy profiles at each budget level, ordered and priced.

    Runs the greedy allocator per budget, raises the chain to
    monotonicity, then attaches predicted latency, weight bytes, the
    aggregate drift bound, and optional energy and measured latencies.
    Three budgets get the default names tiny/med/max.
    """
    budgets = list(budgets)
    if not 1 <= len(budgets) <= 8:
        raise ValueError("lattice supports 1 to 8 budget levels")
    for a, b in zip(budgets, budgets[1:]):
        if not precedes(a, b):
            raise ValueError("budgets must be ordered tightest first")
    if names is None:
        names = ("tiny", "med", "max") if len(budgets) == 3 \
            else tuple(f"s{j + 1}" for j in range(len(budgets)))
    names = tuple(names)
    if len(names) != len(budgets):
        raise ValueError("names do not match the budget levels")
    profiles = []
    for budget, label in zip(budgets, names):
        result = greedy_knapsack(
            net, menus, budget, benefit, cost_model, energy_model,
            spatial, activation_bits, groups, name=label)
        profiles.append(result.profile)
    profiles = list(enforce_monotone(profiles).profiles)
    lat, wbytes, drift, energy = [], [], [], []
    for prof in profiles:
        rows = cost.profile_costs(net, prof, spatial, activation_bits)
        lat.append(cost.predict(cost_model, rows))
        wbytes.append(int(sum(r.weight_bytes for r in rows)))
        drift.append(certificate.expected_bound(
            net, stats, prof, mode, calibration_inputs))
        if energy_model is not None:
            energy.append(cost.predict(energy_model, rows))
    return ProfileLattice(
        profiles=tuple(profiles),
        predicted_latency=tuple(lat),
        weight_bytes=tuple(wbytes),
        drift_bound=tuple(drift),
        measured_latency=None if measured_latency is None
        else tuple(measured_latency),
        energy=tuple(energy) if energy_model is not None else None,
        device=cost_model.device)


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


def downshift(lattice, current, event=None):
    """One step toward the tightest profile; index 0 absorbs."""
    current = int(current)
    if not 0 <= current < len(lattice):
        raise ValueError("profile index out of range")
    del event  # cause of the shift; recorded by callers, not used here
    return max(current - 1, 0)


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


@dataclass
class PolicyHead:
    """Two-layer perceptron from budget embeddings to per-layer menu
    logits.

    The input concatenates three normalized budget scalars, a learned
    4-dimensional device embedding, and an optional input summary; the
    output holds one logit per menu entry, laid out layer by layer.
    Mutable by design: training updates its arrays in place.
    """

    w_budget: np.ndarray
    w_device: np.ndarray
    w_summary: np.ndarray | None
    b_hidden: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray
    device_embeddings: dict
    menus: tuple
    references: dict = field(default_factory=dict)

    @property
    def summary_dim(self):
        return 0 if self.w_summary is None else self.w_summary.shape[1]

    def layer_slices(self):
        sizes = [len(menu) for menu in self.menus]
        stops = np.cumsum(sizes)
        return tuple((int(stop - size), int(stop))
                     for size, stop in zip(sizes, stops))


_DEVICE_DIM = 4


def init_policy(menus, devices, hidden=16, summary_dim=0, seed=0,
                references=None):
    """Random policy head over the given per-layer menus and devices."""
    menus = tuple(tuple(m) for m in _check_menus(menus, len(menus)))
    devices = list(devices)
    if not devices:
        raise ValueError("policy needs at least one device id")
    hidden = int(hidden)
    if hidden < 1:
        raise ValueError("hidden width must be positive")
    refs = {"latency": 1.0, "bytes": 1.0, "energy": 1.0}
    if references:
        unknown = set(references) - set(refs)
        if unknown:
            raise ValueError(f"unknown reference keys {sorted(unknown)}")
        refs.update({k: float(v) for k, v in references.items()})
    if any(v <= 0.0 for v in refs.values()):
        raise ValueError("reference scales must be positive")
    rng = np.random.default_rng(seed)
    out_dim = sum(len(menu) for menu in menus)
    in_scal, in_dev = 3, _DEVICE_DIM

    def init(rows, cols):
        return rng.normal(0.0, 1.0 / math.sqrt(cols), (rows, cols))

    return PolicyHead(
        w_budget=init(hidden, in_scal),
        w_device=init(hidden, in_dev),
        w_summary=init(hidden, summary_dim) if summary_dim else None,
        b_hidden=np.zeros(hidden),
        w_out=init(out_dim, hidden),
        b_out=np.zeros(out_dim),
        device_embeddings={d: rng.normal(0.0, 0.5, in_dev)
                           for d in devices},
        menus=menus,
        references=refs)


def _budget_scalars(head, budget):
    refs = head.references
    return np.array([
        0.0 if budget.latency_target is None
        else budget.latency_target / refs["latency"],
        0.0 if budget.bytes_target is None
        else budget.bytes_target / refs["bytes"],
        0.0 if budget.energy_target is None
        else budget.energy_target / refs["energy"]])


def policy_leaves(head, device_ids):
    """Shared tape leaves for one or more differentiable policy passes."""
    leaves = {
        "w_budget": network.Var(head.w_budget),
        "w_device": network.Var(head.w_device),
        "b_hidden": network.Var(head.b_hidden),
        "w_out": network.Var(head.w_out),
        "b_out": network.Var(head.b_out),
    }
    if head.w_summary is not None:
        leaves["w_summary"] = network.Var(head.w_summary)
    for dev in device_ids:
        if dev not in head.device_embeddings:
            raise ValueError(f"unknown device {dev!r}")
        leaves[f"device:{dev}"] = network.Var(head.device_embeddings[dev])
    return leaves


def policy_tape(head, budget, summary=None, leaves=None):
    """Differentiable forward pass: per-layer logit nodes plus leaves."""
    if leaves is None:
        leaves = policy_leaves(head, (budget.device,))
    if f"device:{budget.device}" not in leaves:
        raise ValueError(f"unknown device {budget.device!r}")
    if (summary is None) != (head.w_summary is None):
        raise ValueError("summary must match the head's summary width")
    scal = network.Var(_budget_scalars(head, budget).reshape(3, 1))
    dev = network.v_reshape(leaves[f"device:{budget.device}"],
                            (_DEVICE_DIM, 1))
    pre = network.v_add(network.v_matmul(leaves["w_budget"], scal),
                        network.v_matmul(leaves["w_device"], dev))
    if head.w_summary is not None:
        summary = np.asarray(summary, dtype=np.float64)
        if summary.shape != (head.summary_dim,):
            raise ValueError("summary must match the head's summary "
                             "width")
        s_col = network.Var(summary.reshape(-1, 1))
        pre = network.v_add(pre,
                            network.v_matmul(leaves["w_summary"], s_col))
    hidden = head.b_hidden.shape[0]
    pre = network.v_add(pre, network.v_reshape(leaves["b_hidden"],
                                               (hidden, 1)))
    act = network.v_relu(pre)
    out = network.v_add(network.v_matmul(leaves["w_out"], act),
                        network.v_reshape(leaves["b_out"], (-1, 1)))
    flat = network.v_reshape(out, (out.value.size,))
    slices = [network.v_gather(flat, np.arange(start, stop))
              for start, stop in head.layer_slices()]
    return slices, leaves


@dataclass(frozen=True)
class TrainMode:
    """Gumbel-softmax sampling mode with a positive temperature."""

    tau: float = 1.0

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ValueError("temperature must be positive")


@dataclass(frozen=True)
class PolicyChoice:
    """Per-layer menu picks; probs holds the soft (relaxed)
    distributions in training mode and is None in eval mode."""

    indices: tuple
    pairs: tuple
    probs: tuple | None


def policy_forward(head, budget, summary=None, mode=EVAL, rng=None):
    """Menu choice per layer: argmax in eval, Gumbel-perturbed sample
    plus the softened distribution in training mode."""
    slices, _ = policy_tape(head, budget, summary)
    indices, pairs, probs = [], [], []
    if mode == EVAL:
        for menu, node in zip(head.menus, slices):
            i = int(np.argmax(node.value))
            soft = np.exp(node.value - node.value.max())
            soft /= soft.sum()
            indices.append(i)
            pairs.append(menu[i])
            probs.append(soft)
        return PolicyChoice(tuple(indices), tuple(pairs), tuple(probs))
    if not isinstance(mode, TrainMode):
        raise ValueError("mode must be EVAL or a TrainMode")
    if rng is None:
        raise ValueError("training mode needs a random generator")
    for menu, node in zip(head.menus, slices):
        noisy = node.value + rng.gumbel(size=node.value.size)
        i = int(np.argmax(noisy))
        soft = noisy / mode.tau
        soft = np.exp(soft - soft.max())
        soft /= soft.sum()
        indices.append(i)
        pairs.append(menu[i])
        probs.append(soft)
    return PolicyChoice(tuple(indices), tuple(pairs), tuple(probs))


def _expected_assignment(menu, logits_node, tau):
    scaled = network.v_scale(logits_node, 1.0 / tau)
    probs = network.v_exp(network.v_log_softmax(scaled, axis=-1))
    kvals = network.Var(np.array([float(k) for k, _ in menu]))
    qvals = network.Var(np.array([_q_ord_f(q) for _, q in menu]))
    return (network.v_sum(network.v_mul(probs, kvals)),
            network.v_sum(network.v_mul(probs, qvals)))


def isotonic_hinge(head, tighter, looser, lam_iso, summary=None,
                   tau=1.0):
    """Penalty when a looser budget is assigned smaller expected ranks
    or bits than a tighter one, with gradients for the head's arrays.

    Expected assignments come from the softmax relaxation at temperature
    tau. Returns (value, grads) where grads maps each leaf name to an
    array shaped like the corresponding parameter (device rows under
    'device:<id>'); monotone assignments give value 0 and zero grads.
    """
    if not precedes(tighter, looser):
        raise ValueError("budget pair must be ordered tightest first")
    lam_iso = float(lam_iso)
    tau = float(tau)
    if tau <= 0.0:
        raise ValueError("temperature must be positive")
    leaves = policy_leaves(head, (tighter.device,))
    lo, _ = policy_tape(head, tighter, summary, leaves)
    hi, _ = policy_tape(head, looser, summary, leaves)
    total = None
    for menu, node_lo, node_hi in zip(head.menus, lo, hi):
        k_lo, q_lo = _expected_assignment(menu, node_lo, tau)
        k_hi, q_hi = _expected_assignment(menu, node_hi, tau)
        term = network.v_add(
            network.v_relu(network.v_sub(k_lo, k_hi)),
            network.v_relu(network.v_sub(q_lo, q_hi)))
        total = term if total is None else network.v_add(total, term)
    total = network.v_scale(total, lam_iso)
    network.backprop(total)
    grads = {name: (np.zeros_like(leaf.value) if leaf.grad is None
                    else leaf.grad)
             for name, leaf in leaves.items()}
    return float(total.value), grads


def input_summary(net, x):
    """Mean-pooled activation entering the final block of the full
    model; conv stacks also pool over the spatial axes."""
    trace = network.forward(net, x, None)
    arr = np.asarray(trace.inputs[-1], dtype=np.float64)
    if net.blocks[-1].is_conv:
        spatial = (arr.ndim - 2, arr.ndim - 1)
        arr = arr.mean(axis=spatial)
    return arr if arr.ndim == 1 else arr.mean(axis=0)
