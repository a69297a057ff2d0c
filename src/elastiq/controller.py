"""Budget-driven allocation of per-layer ranks and bit-widths.

A budget token names a deployment target (latency, size, energy, device).
This module turns such tokens into deployable per-layer (rank, bits)
profiles: an exact allocator minimizes certificate mass over per-layer
menus under one cost target, in device-table prices or weight bytes; a
lattice plans one level per budget, each on a single budget axis, from
the loosest to the tightest, nesting every level under the looser one,
so looser budgets never shrink any layer and every feasible level meets
its own budget; a runtime selector gates the lattice by predicted
latency and certified drift, under any mix of targets; and an audit
counts the lattice's predicted-latency drops and drift-bound rises.

The planner (allocate, build_lattice) trusts its caller, the plan
command, which checks its budget flags and builds the menus. Budget
tokens, which flags build, check themselves. ProfileLattice trusts its
callers: a stored lattice is checked once, where a manifest's lattice
section is decoded (manifest.lattice_from_doc, and manifest._lattice
against the model), and build_lattice's levels hold by construction.
"""

import math
from dataclasses import dataclass

from . import certificate, cost

OK = "ok"
CERT_WARNING = "cert_warning"
INFEASIBLE = "infeasible"

_TARGETS = ("latency_target", "bytes_target", "energy_target")
# the most levels, and so budgets, one lattice holds
_MAX_LEVELS = 8


def _q_ord(q):
    # "unquantized" compares as the cost module's float accounting
    return cost.UNQUANTIZED_BITS if q is None else int(q)


def _at_or_below(entry, bound):
    """Componentwise order of (k, q) pairs, bits None counting as 32."""
    return entry[0] <= bound[0] and _q_ord(entry[1]) <= _q_ord(bound[1])


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


@dataclass(frozen=True)
class Profile:
    """Per-layer (rank, bits) assignment. bits None keeps float factors."""

    pairs: tuple
    name: str = ""


def certificate_mass(net, stats, menus):
    """Per-layer, per-menu-entry certified drift contribution.

    mass[ell][i] multiplies the layer's conservative logit sensitivity at
    the full profile, the weight change the entry causes, and the
    calibrated input-norm scale. The table is allocate's objective;
    certified reports always come from the certificate module itself.
    """
    rows = certificate.ledgers(net, stats, [None])[0]
    return [[sens * certificate.weight_change(blk, k, q) * alpha
             for k, q in menu]
            for blk, (sens, _, alpha), menu in zip(net.blocks, rows, menus)]


def allocate(net, menus, budget, benefit, table=None, name="", upper=None):
    """Least certificate mass under a one-target budget token, exactly.

    Trusts its caller: menus ascend strictly, benefit[ell][i] is the
    certificate mass of layer ell at menu entry i (certificate_mass), and
    the token sets exactly one target: latency or energy, priced by the
    cost.DeviceTable table of its device, or weight bytes (cost.bytes_of;
    table None). upper, when given, holds the looser level's (k, q) per
    layer and admits only entries at or below it in rank and in width
    (bits None counts as 32), so its own entry always qualifies.

    The sweep extends partial assignments layer by layer, accumulating
    cost in cost.profile_price's order, so a final cost is exactly the
    profile's price. After each layer it keeps, in order of cost, only
    assignments within the budget whose mass is below every cheaper one's.
    Prices are positive and float addition is monotone, so no dropped
    assignment completes to a better one. Mass ties go to the cheaper
    assignment.

    Returns (Profile, feasible). When no admitted assignment fits, every
    layer takes its first admitted entry and feasible is False.
    """
    (target,) = [t for t in _TARGETS if getattr(budget, t) is not None]
    column = {"latency_target": cost.LATENCY,
              "energy_target": cost.ENERGY}.get(target)
    cap = getattr(budget, target)
    steps, allowed = [], []
    for ell, (blk, menu) in enumerate(zip(net.blocks, menus)):
        steps.append([cost.bytes_of(blk.elastic, k, q) if column is None
                      else table.price(ell, (k, q), column)
                      for k, q in menu])
        allowed.append([i for i, entry in enumerate(menu)
                        if upper is None or _at_or_below(entry, upper[ell])])

    states = [(0 if column is None else table.overhead[column], 0.0, ())]
    for ell in range(len(net.blocks)):
        grown = [(total + steps[ell][i], mass + benefit[ell][i], picks + (i,))
                 for total, mass, picks in states for i in allowed[ell]]
        grown.sort()
        states = []
        for state in grown:
            if state[0] > cap:
                break
            if not states or state[1] < states[-1][1]:
                states.append(state)
    feasible = bool(states)
    picks = states[-1][2] if feasible else [a[0] for a in allowed]
    return Profile(tuple(menu[i] for menu, i in zip(menus, picks)),
                   name=name), feasible


@dataclass(frozen=True)
class ProfileLattice:
    """Budget-ordered deployable profile chain with per-profile costs.

    Profiles grow componentwise along the chain; that total order is
    what makes runtime downshifts safe. energy is optional. The profiles
    and columns are stored as tuples.
    """

    profiles: tuple
    predicted_latency: tuple
    weight_bytes: tuple
    drift_bound: tuple
    energy: tuple | None = None
    device: str | None = None

    def __post_init__(self):
        for name in ("profiles", "predicted_latency", "weight_bytes",
                     "drift_bound", "energy"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(getattr(self, name)))

    def __len__(self):
        return len(self.profiles)

    def meets(self, j, budget):
        """True when level j meets every cost target budget sets."""
        for target, values in (("latency_target", self.predicted_latency),
                               ("bytes_target", self.weight_bytes),
                               ("energy_target", self.energy)):
            cap = getattr(budget, target)
            if cap is not None and values[j] > cap:
                return False
        return True


def build_lattice(net, menus, budgets, benefit, stats, table):
    """Exact nested profiles at each budget level, ordered and priced.

    Trusts its caller with the budgets: 1 to 8 one-target tokens on the
    table's device, all on one axis and ordered tightest first, as the
    plan command checks its flags. Allocates from the loosest budget to
    the tightest, passing each level's pairs to the next as its upper
    bound: the chain grows componentwise by construction, and every
    feasible level meets its own budget. Attaches each level's price on
    the cost.DeviceTable table (latency, and energy when the table prices
    it), its weight bytes and the conservative aggregate drift bound, all
    levels' ledgers built in one certificate.ledgers pass. Three budgets
    are named tiny/med/max, any other count s1, s2, .... Returns
    (lattice, ledgers), the ledgers in level order, so a caller can store
    the rows the bounds were summed from without building them again.
    """
    names = ("tiny", "med", "max") if len(budgets) == 3 \
        else tuple(f"s{j + 1}" for j in range(len(budgets)))
    profiles, upper = [], None
    for budget, label in zip(budgets[::-1], names[::-1]):
        prof, _ = allocate(net, menus, budget, benefit, table, label, upper)
        profiles.insert(0, prof)
        upper = prof.pairs
    energy = tuple(cost.profile_price(table, p.pairs, cost.ENERGY)
                   for p in profiles) if table.has_energy else None
    ledgers = certificate.ledgers(net, stats, [p.pairs for p in profiles])
    return ProfileLattice(
        profiles=profiles,
        predicted_latency=tuple(cost.profile_price(table, p.pairs)
                                for p in profiles),
        weight_bytes=tuple(sum(cost.bytes_of(b.elastic, k, q)
                               for b, (k, q) in zip(net.blocks, p.pairs))
                           for p in profiles),
        drift_bound=tuple(float(certificate.ledger_total(rows))
                          for rows in ledgers),
        energy=energy,
        device=table.device), ledgers


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
    order = sorted(range(n), key=lambda j: (lattice.predicted_latency[j],
                                            j))
    feasible = [j for j in order if lattice.meets(j, budget)
                and lattice.drift_bound[j] <= epsilon]
    if feasible:
        j = feasible[0]
        status = OK
    else:
        j = order[0]
        status = CERT_WARNING if any(lattice.meets(i, budget)
                                     for i in range(n)) else INFEASIBLE
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
