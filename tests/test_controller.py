"""Budget tokens, profiles, menu snapping, certificate mass, exact
allocation, the nested profile lattice, and runtime profile selection."""

import itertools

import numpy as np
import pytest

from elastiq import certificate, cli, controller, cost, elastic, network
from bounds import expected_bound
from oracles import exhaustive_allocation
from test_cli import _cli_output, _small_model


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _dense_net(seed, dims, acts=None):
    rng = _rng(seed)
    acts = acts or [network.RELU] * (len(dims) - 2) + [network.IDENTITY]
    blocks = []
    for i in range(len(dims) - 1):
        w = rng.standard_normal((dims[i + 1], dims[i]))
        layer = elastic.from_dense(w)
        blocks.append(network.Block(elastic=layer, activation=acts[i]))
    return network.Network(tuple(blocks))


def _token(device="dev", lat=None, size=None, energy=None):
    return controller.BudgetToken(device=device, latency_target=lat,
                                  bytes_target=size, energy_target=energy)


def _hand_table(net, menus, lat, energy=None, device="dev"):
    """A device table pricing every menu entry by hand: lat and energy are
    (comp, mem, overhead) triples, and layer ell's entry costs comp[ell] *
    flops + mem[ell] * (weight + activation bytes) of its layer_cost."""
    def price(model, ell, c):
        if model is None:
            return None
        comp, mem, _ = model
        return float(comp[ell] * c.flops
                     + mem[ell] * (c.weight_bytes + c.activation_bytes))

    layers = []
    for ell, (blk, menu) in enumerate(zip(net.blocks, menus)):
        rows = {(k, q): cost.layer_cost(blk.elastic, k, q) for k, q in menu}
        layers.append({entry: (price(lat, ell, c), price(energy, ell, c))
                       for entry, c in rows.items()})
    return cost.DeviceTable(device, (float(lat[2]), None if energy is None
                                     else float(energy[2])), tuple(layers))


class TestBudgetToken:
    def test_needs_at_least_one_target(self):
        with pytest.raises(ValueError, match="at least one target"):
            controller.BudgetToken(device="dev")

    def test_rejects_nonpositive_targets(self):
        for bad in (0.0, -1.0, float("inf")):
            with pytest.raises(ValueError, match="positive"):
                _token(lat=bad)

    def test_rejects_blank_device(self):
        with pytest.raises(ValueError, match="device"):
            controller.BudgetToken(device="", latency_target=1.0)


class TestProfile:
    def test_profiles_run_through_network_forward(self):
        net = _dense_net(4, (6, 5, 4))
        prof = controller.Profile(((2, 8), (3, None)))
        x = _rng(5).standard_normal((1, 6))
        drift = network.logit_drift(net, x, prof.pairs)
        assert np.isfinite(drift).all()

    def test_entry_count_checked(self):
        net = _dense_net(2, (6, 5, 4))
        x = _rng(3).standard_normal((1, 6))
        with pytest.raises(ValueError, match="layer count"):
            network.logit_drift(net, x, controller.Profile(((1, 4),)).pairs)


class TestSnap:
    """Menu snapping: a planned profile holds only entries of each layer's
    menu."""

    def test_membership_holds_for_random_proposals(self):
        rng = _rng(11)
        for case in range(20):
            dims = [int(d) for d in rng.integers(4, 9, size=3)]
            net = _dense_net(100 + case, dims,
                             acts=[network.IDENTITY] * 2)
            menus, benefit = [], []
            for blk in net.blocks:
                ks = sorted(rng.choice(np.arange(1, blk.elastic.k_max + 1),
                                       size=min(3, blk.elastic.k_max),
                                       replace=False))
                menus.append([(int(k), int(rng.choice([2, 4, 8, 16])))
                              for k in ks])
                benefit.append(sorted(rng.uniform(0, 5, len(ks)))[::-1])
            top = _menu_bytes(net, [m[-1] for m in menus])
            size = int(rng.integers(1, top + 2))
            prof, _ = controller.allocate(net, menus, _token(size=size),
                                          benefit)
            for entry, menu in zip(prof.pairs, menus):
                assert entry in menu

def _calibrated(seed, dims, **kw):
    net = _dense_net(seed, dims, **kw)
    xs = _rng(seed + 1000).standard_normal((16, dims[0]))
    return net, certificate.calibrate(net, xs), xs


class TestCertificateMass:
    def test_sums_to_expected_bound_on_unquantized_menus(self):
        net, stats, _ = _calibrated(31, (6, 5, 4))
        menus = [[(k, None) for k in range(1, b.elastic.k_max + 1)]
                 for b in net.blocks]
        mass = controller.certificate_mass(net, stats, menus)
        rng = _rng(32)
        for _ in range(5):
            picks = [int(rng.integers(len(menu))) for menu in menus]
            prof = [menus[ell][i] for ell, i in enumerate(picks)]
            total = sum(mass[ell][i] for ell, i in enumerate(picks))
            bound = expected_bound(net, stats, prof)
            assert total == pytest.approx(bound, rel=1e-9)

    def test_never_exceeds_the_certified_bound(self):
        net, stats, _ = _calibrated(33, (6, 5, 4))
        menus = [[(1, 3), (2, 5), (b.elastic.k_max, 8)]
                 for b in net.blocks]
        mass = controller.certificate_mass(net, stats, menus)
        for picks in itertools.product(*(range(3),) * len(net.blocks)):
            prof = [menus[ell][i] for ell, i in enumerate(picks)]
            total = sum(mass[ell][i] for ell, i in enumerate(picks))
            bound = expected_bound(net, stats, prof)
            assert total <= bound * (1.0 + 1e-12)

    def test_full_entries_carry_zero_mass(self):
        net, stats, _ = _calibrated(34, (6, 5))
        menus = [[(1, None), (net.blocks[0].elastic.k_max, None)]]
        mass = controller.certificate_mass(net, stats, menus)
        assert mass[0][1] == 0.0 and mass[0][0] > 0.0

    def test_stale_statistics_rejected(self):
        net, stats, _ = _calibrated(35, (6, 5))
        other = _dense_net(36, (6, 5))
        with pytest.raises(ValueError, match="stale calibration"):
            controller.certificate_mass(other, stats, [[(1, None)]])


def _hand_net():
    rng = _rng(50)
    blocks = []
    dims = (6, 8, 4)
    for i in range(2):
        w = rng.standard_normal((dims[i + 1], dims[i]))
        blocks.append(network.Block(elastic=elastic.from_dense(w),
                                    activation=network.IDENTITY))
    return network.Network(tuple(blocks))


_HAND_MENUS = [[(1, 4), (2, 4), (3, 4)], [(1, 4), (2, 4), (3, 4)]]
_HAND_BENEFIT = [[10.0, 4.0, 1.0], [8.0, 5.0, 4.0]]


def _menu_bytes(net, entries):
    rows = cost.profile_costs(net, entries)
    return sum(r.weight_bytes for r in rows)


def _random_instance(rng, seed, cross=False):
    """A 2-3 layer dense net with random masses (with ties) and a device
    table with latency and energy prices. Each menu holds 1-4 random
    ascending entries, or with cross=True, 1-2 ranks crossed with 1-2
    widths, as plan's menus cross a rank ladder with widths."""
    n_layers = int(rng.integers(2, 4))
    dims = [int(d) for d in rng.integers(3, 8, size=n_layers + 1)]
    net = _dense_net(seed, dims, acts=[network.IDENTITY] * n_layers)
    menus, benefit = [], []
    for blk in net.blocks:
        ks = range(1, blk.elastic.k_max + 1)
        qs = (3, 4, 8, None)
        if cross:
            ks = sorted(rng.choice(ks, size=min(len(ks), int(
                rng.integers(1, 3))), replace=False))
            qs = [qs[i] for i in sorted(rng.choice(4, size=int(
                rng.integers(1, 3)), replace=False))]
        pool = [(int(k), q) for k in ks for q in qs]
        picks = range(len(pool)) if cross else sorted(rng.choice(
            len(pool), size=min(len(pool), int(rng.integers(1, 5))),
            replace=False))
        menus.append([pool[i] for i in picks])
        benefit.append([float(v) for v in rng.integers(0, 6, len(picks))])
    lat, energy = ((rng.uniform(1e-4, 1e-3, n_layers),
                    rng.uniform(1e-4, 1e-3, n_layers),
                    rng.uniform(0.0, 0.02)) for _ in range(2))
    return net, menus, benefit, _hand_table(net, menus, lat, energy)


def _mass(menus, benefit, pairs):
    """Certificate mass of a planned profile, summed in layer order."""
    mass = 0.0
    for ell, entry in enumerate(pairs):
        mass += benefit[ell][menus[ell].index(entry)]
    return mass


class TestAllocate:
    def test_unbounded_budget_reaches_the_maximum_profile(self):
        net = _hand_net()
        prof, feasible = controller.allocate(
            net, _HAND_MENUS, _token(size=10 ** 9), _HAND_BENEFIT)
        assert prof.pairs == ((3, 4), (3, 4))
        assert feasible

    def test_budget_at_minimum_cost_keeps_the_minimum_profile(self):
        net = _hand_net()
        floor = _menu_bytes(net, [m[0] for m in _HAND_MENUS])
        prof, feasible = controller.allocate(
            net, _HAND_MENUS, _token(size=floor), _HAND_BENEFIT)
        assert prof.pairs == ((1, 4), (1, 4))
        assert feasible

    def test_below_minimum_budget_is_flagged_infeasible(self):
        net = _hand_net()
        floor = _menu_bytes(net, [m[0] for m in _HAND_MENUS])
        prof, feasible = controller.allocate(
            net, _HAND_MENUS, _token(size=floor - 1), _HAND_BENEFIT,
            name="tight")
        assert not feasible
        assert prof.pairs == ((1, 4), (1, 4)) and prof.name == "tight"

    def test_hand_instance_matches_exhaustive_search(self):
        net = _hand_net()
        prof, feasible = controller.allocate(
            net, _HAND_MENUS, _token(size=28), _HAND_BENEFIT)
        best, best_mass = None, None
        for picks in itertools.product(range(3), range(3)):
            entries = [_HAND_MENUS[ell][i]
                       for ell, i in enumerate(picks)]
            if _menu_bytes(net, entries) > 28:
                continue
            mass = sum(_HAND_BENEFIT[ell][i]
                       for ell, i in enumerate(picks))
            if best_mass is None or mass < best_mass:
                best, best_mass = entries, mass
        assert feasible and prof.pairs == tuple(best) == ((2, 4), (2, 4))

    def test_equals_brute_force_on_random_menus(self):
        # every target kind, budgets from below the cheapest assignment
        # to above the dearest, so the infeasible fallback is drawn too
        rng = _rng(51)
        infeasible = 0
        for case in range(40):
            net, menus, benefit, table = _random_instance(rng, 500 + case)
            kind = ("bytes", "latency", "energy")[case % 3]
            column = {"latency": cost.LATENCY,
                      "energy": cost.ENERGY}.get(kind)

            def cost_of(entries):
                if column is None:
                    return sum(r.weight_bytes
                               for r in cost.profile_costs(net, entries))
                return cost.profile_price(table, entries, column)

            costs = [cost_of(entries)
                     for entries in itertools.product(*menus)]
            cap = float(rng.uniform(0.8 * min(costs), 1.1 * max(costs)))
            if kind == "bytes":
                cap = int(cap)
            budget = _token(**{"bytes": {"size": cap},
                               "latency": {"lat": cap},
                               "energy": {"energy": cap}}[kind])
            prof, feasible = controller.allocate(net, menus, budget,
                                                 benefit, table)
            want = exhaustive_allocation(menus, benefit, cost_of, cap)
            if want is None:
                infeasible += 1
                assert not feasible
                assert prof.pairs == tuple(m[0] for m in menus)
                continue
            assert feasible
            assert (_mass(menus, benefit, prof.pairs),
                    cost_of(prof.pairs)) == want[:2]
        assert 0 < infeasible < 40


def _hand_lattice(lat=(0.5, 1.0, 2.0), drift=(0.3, 0.2, 0.1),
                  wbytes=(100, 200, 300), energy=None, device="dev"):
    profiles = tuple(controller.Profile(((k, 4),), name=f"s{k}")
                     for k in (1, 2, 3))
    return controller.ProfileLattice(
        profiles=profiles, predicted_latency=lat, weight_bytes=wbytes,
        drift_bound=drift, energy=energy, device=device)


class TestProfileLattice:
    def test_meets_checks_every_target_the_budget_sets(self):
        lattice = _hand_lattice(energy=(0.1, 0.2, 0.3))
        assert lattice.meets(1, _token(lat=1.0))
        assert not lattice.meets(2, _token(lat=1.0))
        assert lattice.meets(1, _token(lat=1.0, size=200, energy=0.2))
        assert not lattice.meets(1, _token(lat=1.0, size=199))
        assert not lattice.meets(1, _token(energy=0.19))

    def test_columns_are_stored_as_tuples(self):
        lattice = _hand_lattice(lat=[0.5, 1.0, 2.0], energy=[0.1, 0.2, 0.3])
        assert lattice.predicted_latency == (0.5, 1.0, 2.0)
        assert lattice.energy == (0.1, 0.2, 0.3)
        assert isinstance(lattice.profiles, tuple)


class TestSelectRuntime:
    def test_all_feasible_picks_the_fastest(self):
        sel = controller.select_runtime(_hand_lattice(),
                                        _token(lat=10.0), epsilon=1.0)
        assert (sel.index, sel.status) == (0, controller.OK)

    def test_certificate_narrows_the_choice(self):
        sel = controller.select_runtime(_hand_lattice(),
                                        _token(lat=1.5), epsilon=0.25)
        assert (sel.index, sel.status) == (1, controller.OK)

    def test_certificate_blocking_falls_back_with_warning(self):
        sel = controller.select_runtime(_hand_lattice(),
                                        _token(lat=1.5), epsilon=0.15)
        assert sel.status == controller.CERT_WARNING
        assert sel.index == 0

    def test_unreachable_cost_targets_flag_infeasible(self):
        sel = controller.select_runtime(_hand_lattice(),
                                        _token(lat=0.3), epsilon=1.0)
        assert sel.status == controller.INFEASIBLE
        assert sel.index == 0

    def test_latency_tie_takes_the_lower_index(self):
        lattice = _hand_lattice(lat=(1.0, 1.0, 1.0))
        sel = controller.select_runtime(lattice, _token(lat=2.0),
                                        epsilon=1.0)
        assert sel.index == 0

    def test_bytes_target_gates_profiles(self):
        sel = controller.select_runtime(_hand_lattice(),
                                        _token(size=150), epsilon=1.0)
        assert (sel.index, sel.status) == (0, controller.OK)
        sel = controller.select_runtime(_hand_lattice(),
                                        _token(size=50), epsilon=1.0)
        assert sel.status == controller.INFEASIBLE

    def test_energy_target_needs_energy_data(self):
        with pytest.raises(ValueError, match="energy"):
            controller.select_runtime(_hand_lattice(),
                                      _token(energy=1.0), epsilon=1.0)
        lattice = _hand_lattice(energy=(0.1, 0.2, 0.3))
        sel = controller.select_runtime(lattice, _token(energy=0.15),
                                        epsilon=1.0)
        assert (sel.index, sel.status) == (0, controller.OK)

    def test_device_mismatch_rejected(self):
        with pytest.raises(ValueError, match="device"):
            controller.select_runtime(_hand_lattice(),
                                      _token("other", lat=1.0),
                                      epsilon=1.0)

    def test_returns_a_feasible_profile_whenever_one_exists(self):
        rng = _rng(61)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            profiles = tuple(controller.Profile(((k + 1, 4),))
                             for k in range(n))
            lat = tuple(float(v) for v in rng.uniform(0.1, 2.0, n))
            drift = tuple(float(v) for v in rng.uniform(0.0, 1.0, n))
            lattice = controller.ProfileLattice(
                profiles=profiles, predicted_latency=lat,
                weight_bytes=tuple(range(1, n + 1)), drift_bound=drift,
                device="dev")
            target, eps = float(rng.uniform(0.1, 2.0)), \
                float(rng.uniform(0.0, 1.0))
            sel = controller.select_runtime(lattice, _token(lat=target),
                                            eps)
            feasible = [j for j in range(n)
                        if lat[j] <= target and drift[j] <= eps]
            if feasible:
                assert sel.status == controller.OK
                assert sel.index in feasible
                assert lat[sel.index] == min(lat[j] for j in feasible)
            else:
                assert sel.status in (controller.CERT_WARNING,
                                      controller.INFEASIBLE)
                assert lat[sel.index] == min(lat)


class TestAuditMonotone:
    def test_ordered_lattice_reports_zero_events(self):
        audit = controller.audit_monotone(_hand_lattice())
        assert (audit.latency_events, audit.drift_events) == (0, 0)
        assert audit.pairs == 2 and audit.violation_percent == 0.0

    def test_planted_latency_swap_is_one_event(self):
        lattice = _hand_lattice(lat=(0.5, 2.0, 1.0))
        audit = controller.audit_monotone(lattice)
        assert audit.latency_events == 1
        assert audit.drift_events == 0
        assert audit.violation_percent == pytest.approx(100.0 / 4)

    def test_planted_drift_rise_is_one_event(self):
        lattice = _hand_lattice(drift=(0.3, 0.35, 0.1))
        audit = controller.audit_monotone(lattice)
        assert audit.drift_events == 1 and audit.latency_events == 0

    def test_single_point_reports_zero(self):
        profiles = (controller.Profile(((1, 4),)),)
        lattice = controller.ProfileLattice(
            profiles=profiles, predicted_latency=(1.0,),
            weight_bytes=(10,), drift_bound=(0.1,))
        audit = controller.audit_monotone(lattice)
        assert audit.pairs == 0 and audit.violation_percent == 0.0

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="Direction H")
    def test_rank_step_with_rising_weight_change_keeps_drift_monotone(self):
        # the wide 64->96->96->96->10 relu model at seed 0, drawn as the
        # benchmark draws it: W ~ N(0,1)/sqrt(fan_in), then b ~ 0.1 N(0,1)
        rng = np.random.default_rng(0)
        sizes = (64, 96, 96, 96, 10)
        blocks = []
        for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
            w = rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in)
            b = 0.1 * rng.standard_normal(fan_out)
            blocks.append(network.Block(
                elastic=elastic.from_dense(w, bias=b),
                activation=network.RELU if i < 3 else network.IDENTITY))
        net = network.Network(tuple(blocks))
        # at 4 bits, layer 0's certified weight change rises from k 63 to
        # k 64 (0.5907 -> 0.5932)
        lay = net.blocks[0].elastic
        rise = [elastic.residual_norm(lay, k, 4) for k in (63, 64)]
        if not rise[0] < rise[1]:
            pytest.fail(f"layer 0 residual no longer rises: {rise}")
        full = [(b.elastic.k_max, None) for b in net.blocks[1:]]
        chain = [((k, 4), *full) for k in (63, 64)]
        stats = certificate.calibrate(net, _rng(1).standard_normal((32, 64)))
        bound_63, bound_64 = (expected_bound(net, stats, p)
                              for p in chain)
        assert bound_64 <= bound_63


class TestBuildLattice:
    def _setup(self, seed=70, dims=(6, 8, 4)):
        net, stats, _ = _calibrated(seed, dims)
        menus = [[(1, 4), (2, 8), (blk.elastic.k_max, None)]
                 for blk in net.blocks]
        benefit = [[3.0, 1.0, 0.0] for _ in net.blocks]
        n = len(net.blocks)
        table = _hand_table(net, menus, ([1e-4] * n, [2e-4] * n, 0.01),
                            energy=([5e-5] * n, [5e-5] * n, 0.002))
        budgets = (_token(lat=0.5), _token(lat=2.0), _token(lat=50.0))
        return net, stats, menus, benefit, table, budgets

    def test_three_step_lattice_is_ordered_and_named(self):
        net, stats, menus, benefit, table, budgets = self._setup()
        lattice, _ = controller.build_lattice(net, menus, budgets,
                                              benefit, stats, table)
        assert len(lattice) == 3
        assert [p.name for p in lattice.profiles] == \
            ["tiny", "med", "max"]
        assert lattice.device == "dev"
        for a, b in zip(lattice.profiles, lattice.profiles[1:]):
            for (ka, qa), (kb, qb) in zip(a.pairs, b.pairs):
                assert ka <= kb
        lat = lattice.predicted_latency
        assert all(x <= y + 1e-12 for x, y in zip(lat, lat[1:]))
        wb = lattice.weight_bytes
        assert all(x <= y for x, y in zip(wb, wb[1:]))
        drift = lattice.drift_bound
        assert all(x >= y - 1e-12 for x, y in zip(drift, drift[1:]))

    def test_drift_matches_the_certificate_route(self):
        net, stats, menus, benefit, table, budgets = self._setup(71)
        lattice, ledgers = controller.build_lattice(net, menus, budgets,
                                                    benefit, stats, table)
        assert len(ledgers) == len(lattice.profiles)
        for j, prof in enumerate(lattice.profiles):
            # the returned rows are the ones the bound was summed from
            assert ledgers[j] == certificate.ledgers(net, stats,
                                                     [prof.pairs])[0]
            want = expected_bound(net, stats, prof.pairs)
            assert lattice.drift_bound[j] == want

    def test_nested_levels_are_exact_and_within_their_budgets(self):
        # each level is the least-mass assignment within its own budget
        # among those at or below the next looser level; on crossed menus,
        # whose costs grow with rank and width, a budget that admits any
        # assignment admits a nested one
        rng = _rng(76)
        for case in range(20):
            net, menus, benefit, table = _random_instance(
                rng, 700 + case, cross=True)
            stats = certificate.calibrate(
                net, _rng(case).standard_normal((8, net.blocks[0].elastic
                                                 .in_features)))

            def latency(entries):
                return cost.profile_price(table, entries)

            costs = [latency(e) for e in itertools.product(*menus)]
            caps = sorted(float(v) for v in rng.uniform(
                min(costs), max(costs), int(rng.integers(1, 5))))
            lattice, _ = controller.build_lattice(
                net, menus, [_token(lat=c) for c in caps], benefit, stats,
                table)
            upper = None
            for j in reversed(range(len(caps))):
                pairs = lattice.profiles[j].pairs
                assert lattice.predicted_latency[j] <= caps[j]
                assert lattice.meets(j, _token(lat=caps[j]))
                want = exhaustive_allocation(menus, benefit, latency,
                                             caps[j], upper)
                assert (_mass(menus, benefit, pairs),
                        lattice.predicted_latency[j]) == want[:2]
                upper = pairs
            for a, b in zip(lattice.profiles, lattice.profiles[1:]):
                for (ka, qa), (kb, qb) in zip(a.pairs, b.pairs):
                    assert ka <= kb and (32 if qa is None else qa) <= \
                        (32 if qb is None else qb)

    def test_latency_matches_the_cost_route(self):
        net, stats, menus, benefit, table, budgets = self._setup(72)
        lattice, _ = controller.build_lattice(net, menus, budgets,
                                              benefit, stats, table)
        for j, prof in enumerate(lattice.profiles):
            rows = cost.profile_costs(net, list(prof.pairs))
            assert lattice.predicted_latency[j] == \
                cost.profile_price(table, prof.pairs)
            assert lattice.energy[j] == \
                cost.profile_price(table, prof.pairs, cost.ENERGY)
            assert lattice.weight_bytes[j] == \
                sum(r.weight_bytes for r in rows)

    def test_energy_model_populates_the_energy_track(self):
        net, stats, menus, benefit, table, budgets = self._setup(73)
        lattice, _ = controller.build_lattice(net, menus, budgets,
                                              benefit, stats, table)
        assert lattice.energy is not None and len(lattice.energy) == 3
        latency_only = cost.DeviceTable(
            table.device, (table.overhead[0], None),
            tuple({e: (p[0], None) for e, p in prices.items()}
                  for prices in table.layers))
        lattice, _ = controller.build_lattice(net, menus, budgets,
                                              benefit, stats, latency_only)
        assert lattice.energy is None

    def test_selection_composes_with_the_lattice(self):
        net, stats, menus, benefit, table, budgets = self._setup(79)
        lattice, _ = controller.build_lattice(net, menus, budgets,
                                              benefit, stats, table)
        sel = controller.select_runtime(lattice, _token(lat=10 ** 6),
                                        epsilon=10 ** 6)
        assert sel.status == controller.OK
        assert sel.profile is lattice.profiles[sel.index]

    # build_lattice trusts its budgets; plan, which builds them, refuses a
    # chain the lattice cannot nest before any lattice is built
    def _plan_refusal(self, tmp_path, latencies):
        model, cert, out = (tmp_path / n for n in (
            "model.json", "cert.json", "plan.json"))
        _small_model(model)
        code, _, err = _cli_output("certify", model, "--profiles", "2,3:8",
                                   "--epsilon", "1.0", "--out", cert,
                                   "--calib-size", 64)
        assert (code, err) == (cli.EXIT_OK, "")
        code, stdout, err = _cli_output(
            "plan", cert, "--out", out,
            "--latency-ms", ",".join(repr(v) for v in latencies))
        assert (code, stdout) == (cli.EXIT_ERROR, "")
        assert not out.exists()
        return err

    def test_budget_chain_must_be_ordered(self, tmp_path):
        err = self._plan_refusal(tmp_path, (2.0, 0.5))
        assert err == "error: budgets must be ordered tightest first\n"

    def test_step_count_capped(self, tmp_path):
        err = self._plan_refusal(tmp_path,
                                 tuple(float(j + 1) for j in range(9)))
        assert err == "error: lattice supports 1 to 8 budget levels\n"


_POLICY_MENUS = [[(1, 4), (2, 8), (4, None)], [(1, 4), (3, 8)]]
