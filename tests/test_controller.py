"""Budget tokens, snapping, monotonicity, greedy allocation, the policy
head, and runtime profile selection."""

import itertools

import numpy as np
import pytest

from elastiq import certificate, controller, cost, elastic, network
from oracles import _act_apply, greedy_allocation_replay


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _dense_net(seed, dims, acts=None, group_ids=None):
    rng = _rng(seed)
    acts = acts or [network.RELU] * (len(dims) - 2) + [network.IDENTITY]
    group_ids = group_ids or [None] * (len(dims) - 1)
    blocks = []
    for i in range(len(dims) - 1):
        w = rng.standard_normal((dims[i + 1], dims[i]))
        layer = elastic.from_dense(w, group_id=group_ids[i])
        blocks.append(network.Block(elastic=layer, activation=acts[i]))
    return network.Network(tuple(blocks))


def _token(device="dev", lat=None, size=None, energy=None):
    return controller.BudgetToken(device=device, latency_target=lat,
                                  bytes_target=size, energy_target=energy)


def _hand_model(comp, mem, intercept=0.01, device="dev"):
    return cost.CostModel(device=device, intercept=intercept,
                          comp=tuple(comp), mem=tuple(mem),
                          r_squared=1.0, mape_percent=0.0)


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

    def test_precedes_componentwise(self):
        assert controller.precedes(_token(lat=5.0), _token(lat=10.0))
        assert not controller.precedes(_token(lat=10.0), _token(lat=5.0))
        assert controller.precedes(_token(lat=5.0, size=100),
                                   _token(lat=5.0, size=200))

    def test_precedes_requires_same_device(self):
        assert not controller.precedes(_token("a", lat=1.0),
                                       _token("b", lat=2.0))

    def test_precedes_ignores_targets_only_the_looser_side_has(self):
        a = _token(lat=5.0)
        b = _token(lat=10.0, size=100)
        assert controller.precedes(a, b)
        assert not controller.precedes(b, a)

    def test_precedes_is_reflexive_and_antisymmetric(self):
        a = _token(lat=5.0, size=100)
        b = _token(lat=5.0, size=100)
        assert controller.precedes(a, a)
        assert controller.precedes(a, b) and controller.precedes(b, a)
        c = _token(lat=4.0, size=100)
        assert not (controller.precedes(a, c) and controller.precedes(c, a))


class TestProfile:
    def test_make_profile_validates_rank_window(self):
        net = _dense_net(0, (6, 5, 4))
        controller.make_profile(net, [(1, 4), (4, None)])
        with pytest.raises(ValueError, match="outside"):
            controller.make_profile(net, [(6, 4), (5, None)])
        with pytest.raises(ValueError, match="outside"):
            controller.make_profile(net, [(0, 4), (1, None)])
        with pytest.raises(ValueError, match="at least 1"):
            controller.Profile(((0, 4),))

    def test_bit_width_window(self):
        net = _dense_net(1, (6, 5))
        controller.make_profile(net, [(1, 2)])
        controller.make_profile(net, [(1, None)])
        for bad in (1, 33):
            with pytest.raises(ValueError, match="bit-widths"):
                controller.make_profile(net, [(1, bad)])

    def test_entry_count_checked(self):
        net = _dense_net(2, (6, 5, 4))
        with pytest.raises(ValueError, match="entry count"):
            controller.make_profile(net, [(1, 4)])

    def test_tied_group_consistency_flag(self):
        net = _dense_net(3, (6, 6, 6), group_ids=["g", "g"])
        ok = controller.make_profile(net, [(3, 4), (3, 8)])
        assert ok.group_consistent
        bad = controller.make_profile(net, [(3, 4), (2, 4)])
        assert not bad.group_consistent

    def test_profiles_run_through_network_forward(self):
        net = _dense_net(4, (6, 5, 4))
        prof = controller.make_profile(net, [(2, 8), (3, None)])
        x = _rng(5).standard_normal(6)
        drift = network.logit_drift(net, x, prof)
        assert np.isfinite(drift)


class TestSnap:
    def test_on_menu_proposal_is_a_fixed_point(self):
        menus = [[(1, 4), (2, 8), (4, None)]]
        snapped = controller.snap([(2.0, 8.0)], menus)
        assert snapped.pairs == ((2, 8),)

    def test_midpoint_tie_prefers_the_larger_entry(self):
        menus = [[(2, 4), (4, 8)]]
        snapped = controller.snap([(3.0, 6.0)], menus, beta=1.0)
        assert snapped.pairs == ((4, 8),)

    def test_beta_reweights_bit_distance(self):
        menus = [[(2, 4), (4, 8)]]
        # proposal sits on (2, _) in rank but on (_, 8) in bits
        assert controller.snap([(2.0, 8.0)], menus,
                               beta=1.0).pairs == ((4, 8),)
        assert controller.snap([(2.0, 8.0)], menus,
                               beta=0.25).pairs == ((2, 4),)

    def test_unquantized_entries_count_as_32_bits(self):
        menus = [[(3, 16), (3, None)]]
        assert controller.snap([(3.0, 30.0)], menus).pairs == ((3, None),)
        assert controller.snap([(3.0, None)], menus).pairs == ((3, None),)

    def test_violating_entry_escalates_to_the_safer_neighbor(self):
        menus = [[(1, 4), (2, 4), (3, 4)]]
        drift = [[0.9, 0.5, 0.1]]
        snapped = controller.snap([(2.0, 4.0)], menus, drift=drift,
                                  tolerances=[0.4])
        assert snapped.pairs == ((3, 4),)

    def test_no_feasible_entry_raises(self):
        menus = [[(1, 4), (2, 4)]]
        with pytest.raises(ValueError, match="no feasible entry"):
            controller.snap([(1.0, 4.0)], menus, drift=[[0.9, 0.5]],
                            tolerances=[0.1])

    def test_drift_gating_needs_both_tables(self):
        menus = [[(1, 4)]]
        with pytest.raises(ValueError, match="both drift and tolerances"):
            controller.snap([(1.0, 4.0)], menus, drift=[[0.0]])

    def test_membership_holds_for_random_proposals(self):
        rng = _rng(11)
        for _ in range(50):
            menus = []
            for _ in range(rng.integers(1, 4)):
                ks = sorted(rng.choice(np.arange(1, 9), size=3,
                                       replace=False))
                menus.append([(int(k), int(rng.choice([2, 4, 8, 16])))
                              for k in ks])
            proposals = [(float(rng.uniform(0, 10)),
                          float(rng.uniform(2, 32)))
                         for _ in menus]
            snapped = controller.snap(proposals, menus)
            for entry, menu in zip(snapped.pairs, menus):
                assert entry in menu

    def test_tied_group_gets_one_common_rank(self):
        menus = [[(1, 4), (2, 4), (4, 4)],
                 [(1, 8), (2, 8), (4, 8)]]
        snapped = controller.snap([(1.0, 4.0), (4.0, 8.0)], menus,
                                  groups=["g", "g"])
        k0 = snapped.pairs[0][0]
        assert k0 == snapped.pairs[1][0]
        # summed distances: k=1 -> 0+3, k=2 -> 1+2, k=4 -> 3+0; tie at
        # 3 between k=1 and k=4 resolves to the larger rank
        assert k0 == 4
        assert snapped.group_consistent

    def test_tied_group_without_common_feasible_rank_raises(self):
        menus = [[(1, 4), (2, 4)], [(1, 8), (2, 8)]]
        drift = [[0.0, 0.0], [0.9, 0.0]]
        snapped = controller.snap([(1.0, 4.0), (1.0, 8.0)], menus,
                                  drift=drift, tolerances=[0.5, 0.5],
                                  groups=["g", "g"])
        assert snapped.pairs == ((2, 4), (2, 8))
        with pytest.raises(ValueError, match="tied group"):
            controller.snap([(1.0, 4.0), (1.0, 8.0)], menus,
                            drift=[[0.9, 0.0], [0.0, 0.9]],
                            tolerances=[0.5, 0.5], groups=["g", "g"])

    def test_menus_must_be_sorted_and_non_empty(self):
        with pytest.raises(ValueError, match="ascending"):
            controller.snap([(1.0, 4.0)], [[(2, 4), (1, 4)]])
        with pytest.raises(ValueError, match="empty"):
            controller.snap([(1.0, 4.0)], [[]])


class TestEnforceMonotone:
    def _profiles(self, chains):
        # chains[layer] = list over budgets of (k, q)
        n_budgets = len(chains[0])
        out = []
        for j in range(n_budgets):
            pairs = tuple(chain[j] for chain in chains)
            out.append(controller.Profile(pairs, name=f"b{j}"))
        return out

    def test_already_monotone_is_unchanged(self):
        profs = self._profiles([[(1, 4), (2, 4), (3, 8)]])
        result = controller.enforce_monotone(profs)
        assert result.corrected == ()
        assert [p.pairs for p in result.profiles] \
            == [p.pairs for p in profs]

    def test_single_inversion_is_pooled_upward(self):
        profs = self._profiles([[(4, 4), (3, 4), (5, 4)]])
        result = controller.enforce_monotone(profs)
        assert [p.pairs[0][0] for p in result.profiles] == [4, 4, 5]
        assert result.corrected == (1,)

    def test_matches_running_max_oracle(self):
        rng = _rng(21)
        q_pool = [2, 4, 8, 16, None]
        for _ in range(20):
            n_layers, n_budgets = rng.integers(1, 4), rng.integers(2, 7)
            chains = [[(int(rng.integers(1, 9)),
                        q_pool[rng.integers(len(q_pool))])
                       for _ in range(n_budgets)]
                      for _ in range(n_layers)]
            result = controller.enforce_monotone(self._profiles(chains))
            for ell, chain in enumerate(chains):
                got_k = [p.pairs[ell][0] for p in result.profiles]
                want_k = np.maximum.accumulate([k for k, _ in chain])
                assert got_k == list(want_k)
                ords = [32 if q is None else q for _, q in chain]
                want_q = np.maximum.accumulate(ords)
                got_q = [32 if p.pairs[ell][1] is None else p.pairs[ell][1]
                         for p in result.profiles]
                assert got_q == list(want_q)

    def test_output_is_pairwise_monotone(self):
        rng = _rng(22)
        for _ in range(10):
            chains = [[(int(rng.integers(1, 9)),
                        int(rng.choice([2, 4, 8, 16])))
                       for _ in range(6)] for _ in range(3)]
            result = controller.enforce_monotone(self._profiles(chains))
            for a, b in zip(result.profiles, result.profiles[1:]):
                for (ka, qa), (kb, qb) in zip(a.pairs, b.pairs):
                    assert kb >= ka and qb >= qa

    def test_budget_grid_order_is_validated(self):
        profs = self._profiles([[(1, 4), (2, 4)]])
        controller.enforce_monotone(
            profs, budgets=[_token(lat=1.0), _token(lat=2.0)])
        with pytest.raises(ValueError, match="not ordered"):
            controller.enforce_monotone(
                profs, budgets=[_token(lat=2.0), _token(lat=1.0)])

    def test_layer_count_mismatch_rejected(self):
        profs = [controller.Profile(((1, 4),)),
                 controller.Profile(((1, 4), (2, 4)))]
        with pytest.raises(ValueError, match="layer count"):
            controller.enforce_monotone(profs)


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
            bound = certificate.expected_bound(net, stats, prof)
            assert total == pytest.approx(bound, rel=1e-9)

    def test_never_exceeds_the_certified_bound(self):
        net, stats, _ = _calibrated(33, (6, 5, 4))
        menus = [[(1, 3), (2, 5), (b.elastic.k_max, 8)]
                 for b in net.blocks]
        mass = controller.certificate_mass(net, stats, menus)
        for picks in itertools.product(*(range(3),) * len(net.blocks)):
            prof = [menus[ell][i] for ell, i in enumerate(picks)]
            total = sum(mass[ell][i] for ell, i in enumerate(picks))
            bound = certificate.expected_bound(net, stats, prof)
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


class TestLayerTolerances:
    def test_single_layer_gets_the_whole_budget(self):
        net, stats, _ = _calibrated(41, (6, 5))
        tol = controller.layer_tolerances(net, stats, 0.5, [(1, None)])
        assert tol == pytest.approx([0.5])

    def test_shares_are_proportional_and_sum_to_epsilon(self):
        net, stats, _ = _calibrated(42, (6, 5, 4))
        ref = [(1, None), (1, None)]
        tol = controller.layer_tolerances(net, stats, 0.8, ref)
        assert sum(tol) == pytest.approx(0.8, rel=1e-9)
        sens = certificate.lipschitz_proxy(net, profile=ref)
        terms = [sens[ell] * certificate.compression_gain(net, ell, 1)
                 * stats.alpha[ell] for ell in range(2)]
        want = [0.8 * t / sum(terms) for t in terms]
        assert tol == pytest.approx(want, rel=1e-9)

    def test_full_reference_splits_uniformly(self):
        net, stats, _ = _calibrated(43, (6, 5, 4))
        tol = controller.layer_tolerances(net, stats, 0.6, None)
        assert tol == pytest.approx([0.3, 0.3])

    def test_epsilon_must_be_positive(self):
        net, stats, _ = _calibrated(44, (6, 5))
        with pytest.raises(ValueError, match="positive"):
            controller.layer_tolerances(net, stats, 0.0, None)


def _greedy_net():
    rng = _rng(50)
    blocks = []
    dims = (6, 8, 4)
    for i in range(2):
        w = rng.standard_normal((dims[i + 1], dims[i]))
        blocks.append(network.Block(elastic=elastic.from_dense(w),
                                    activation=network.IDENTITY))
    return network.Network(tuple(blocks))


_GREEDY_MENUS = [[(1, 4), (2, 4), (3, 4)], [(1, 4), (2, 4), (3, 4)]]
_GREEDY_BENEFIT = [[10.0, 4.0, 1.0], [8.0, 5.0, 4.0]]


def _menu_bytes(net, entries):
    rows = cost.profile_costs(net, entries)
    return sum(r.weight_bytes for r in rows)


class TestGreedyKnapsack:
    def test_unbounded_budget_reaches_the_maximum_profile(self):
        net = _greedy_net()
        res = controller.greedy_knapsack(
            net, _GREEDY_MENUS, _token(size=10 ** 9), _GREEDY_BENEFIT)
        assert res.profile.pairs == ((3, 4), (3, 4))
        assert res.feasible
        # ratio order: L0 6/7, then L1 3/6, then L0 3/8, then L1 1/7
        assert res.trace == ((0, 1), (1, 1), (0, 2), (1, 2))

    def test_budget_at_minimum_cost_keeps_the_minimum_profile(self):
        net = _greedy_net()
        floor = _menu_bytes(net, [m[0] for m in _GREEDY_MENUS])
        res = controller.greedy_knapsack(
            net, _GREEDY_MENUS, _token(size=floor), _GREEDY_BENEFIT)
        assert res.profile.pairs == ((1, 4), (1, 4))
        assert res.feasible and res.trace == ()

    def test_below_minimum_budget_is_flagged_infeasible(self):
        net = _greedy_net()
        floor = _menu_bytes(net, [m[0] for m in _GREEDY_MENUS])
        res = controller.greedy_knapsack(
            net, _GREEDY_MENUS, _token(size=floor - 1), _GREEDY_BENEFIT)
        assert not res.feasible
        assert res.profile.pairs == ((1, 4), (1, 4))
        assert res.trace == ()

    def test_hand_instance_matches_exhaustive_search(self):
        net = _greedy_net()
        res = controller.greedy_knapsack(
            net, _GREEDY_MENUS, _token(size=28), _GREEDY_BENEFIT)
        assert res.trace == ((0, 1), (1, 1))
        best, best_mass = None, None
        for picks in itertools.product(range(3), range(3)):
            entries = [_GREEDY_MENUS[ell][i]
                       for ell, i in enumerate(picks)]
            if _menu_bytes(net, entries) > 28:
                continue
            mass = sum(_GREEDY_BENEFIT[ell][i]
                       for ell, i in enumerate(picks))
            if best_mass is None or mass < best_mass:
                best, best_mass = entries, mass
        assert res.profile.pairs == tuple(best)

    def test_matches_independent_replay_on_random_instances(self):
        rng = _rng(51)
        for case in range(10):
            dims = [int(d) for d in rng.integers(4, 9, size=4)]
            net = _dense_net(500 + case, dims,
                             acts=[network.IDENTITY] * 3)
            menus, benefit = [], []
            for blk in net.blocks:
                k_max = blk.elastic.k_max
                n_entries = int(rng.integers(2, 5))
                ks = sorted(rng.choice(np.arange(1, k_max + 1),
                                       size=min(n_entries, k_max),
                                       replace=False))
                menus.append([(int(k), int(rng.choice([3, 4, 8])))
                              for k in ks])
                drops = np.sort(rng.uniform(0, 5, len(ks)))[::-1]
                benefit.append([float(v) for v in drops])
            model = _hand_model(rng.uniform(1e-4, 1e-3, 3),
                                rng.uniform(1e-4, 1e-3, 3))
            rows_max = cost.profile_costs(net, [m[-1] for m in menus])
            target = float(rng.uniform(model.intercept,
                                       cost.predict(model, rows_max)))
            budget = _token(lat=target)
            res = controller.greedy_knapsack(net, menus, budget,
                                             benefit, cost_model=model)

            def objective(entries):
                return cost.predict(model,
                                    cost.profile_costs(net, entries))

            def feasible(entries):
                return objective(entries) <= target

            pos, trace, flag = greedy_allocation_replay(
                menus, benefit, [None] * 3, objective, feasible)
            want = tuple(menus[ell][i] for ell, i in enumerate(pos))
            assert res.profile.pairs == want
            assert res.trace == tuple(trace)
            assert res.feasible == flag
            if flag:
                assert res.predicted["latency_ms"] <= target

    def test_tied_groups_step_together(self):
        net = _dense_net(52, (6, 6, 6), acts=[network.IDENTITY] * 2,
                         group_ids=["g", "g"])
        menus = [[(1, 4), (2, 4), (4, 8)]] * 2
        benefit = [[9.0, 5.0, 1.0], [7.0, 3.0, 2.0]]
        res = controller.greedy_knapsack(net, menus,
                                         _token(size=10 ** 9), benefit)
        assert res.profile.pairs == ((4, 8), (4, 8))
        assert res.profile.group_consistent
        assert res.trace == ((0, 1), (0, 2))

    def test_tied_groups_must_share_menus(self):
        net = _dense_net(53, (6, 6, 6), acts=[network.IDENTITY] * 2,
                         group_ids=["g", "g"])
        menus = [[(1, 4), (2, 4)], [(1, 4), (2, 8)]]
        with pytest.raises(ValueError, match="share one menu"):
            controller.greedy_knapsack(net, menus, _token(size=100),
                                       [[1.0, 0.0], [1.0, 0.0]])

    def test_latency_target_requires_a_model(self):
        net = _greedy_net()
        with pytest.raises(ValueError, match="cost model"):
            controller.greedy_knapsack(net, _GREEDY_MENUS,
                                       _token(lat=1.0), _GREEDY_BENEFIT)

    def test_budget_device_must_match_the_model(self):
        net = _greedy_net()
        model = _hand_model((1e-3, 1e-3), (1e-4, 1e-4), device="other")
        with pytest.raises(ValueError, match="device"):
            controller.greedy_knapsack(net, _GREEDY_MENUS,
                                       _token(lat=1.0), _GREEDY_BENEFIT,
                                       cost_model=model)

    def test_benefit_table_shape_checked(self):
        net = _greedy_net()
        with pytest.raises(ValueError, match="benefit table"):
            controller.greedy_knapsack(net, _GREEDY_MENUS,
                                       _token(size=100),
                                       [[1.0], [1.0, 0.5, 0.1]])


def _hand_lattice(lat=(0.5, 1.0, 2.0), drift=(0.3, 0.2, 0.1),
                  wbytes=(100, 200, 300), energy=None, device="dev"):
    profiles = tuple(controller.Profile(((k, 4),), name=f"s{k}")
                     for k in (1, 2, 3))
    return controller.ProfileLattice(
        profiles=profiles, predicted_latency=lat, weight_bytes=wbytes,
        drift_bound=drift, energy=energy, device=device)


class TestProfileLattice:
    def test_requires_componentwise_growth(self):
        profiles = (controller.Profile(((2, 4),)),
                    controller.Profile(((1, 4),)))
        with pytest.raises(ValueError, match="componentwise"):
            controller.ProfileLattice(
                profiles=profiles, predicted_latency=(1.0, 2.0),
                weight_bytes=(1, 2), drift_bound=(0.2, 0.1))

    def test_field_lengths_checked(self):
        profiles = (controller.Profile(((1, 4),)),)
        with pytest.raises(ValueError, match="predicted_latency"):
            controller.ProfileLattice(
                profiles=profiles, predicted_latency=(1.0, 2.0),
                weight_bytes=(1,), drift_bound=(0.1,))

    def test_bits_ordering_checks_unquantized_as_32(self):
        profiles = (controller.Profile(((1, None),)),
                    controller.Profile(((2, 8),)))
        with pytest.raises(ValueError, match="componentwise"):
            controller.ProfileLattice(
                profiles=profiles, predicted_latency=(1.0, 2.0),
                weight_bytes=(1, 2), drift_bound=(0.2, 0.1))


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


class TestDownshift:
    def test_steps_toward_the_tightest_profile(self):
        lattice = _hand_lattice()
        assert controller.downshift(lattice, 2) == 1
        assert controller.downshift(lattice, 1) == 0

    def test_tightest_profile_absorbs(self):
        assert controller.downshift(_hand_lattice(), 0) == 0

    def test_repeated_events_reach_the_floor(self):
        lattice = _hand_lattice()
        j, hops = 2, 0
        while j > 0:
            j = controller.downshift(lattice, j, event="thermal")
            hops += 1
        assert hops == 2

    def test_index_validated(self):
        with pytest.raises(ValueError, match="index"):
            controller.downshift(_hand_lattice(), 3)


class TestAuditMonotone:
    def test_ordered_lattice_reports_zero_events(self):
        audit = controller.audit_monotone(_hand_lattice())
        assert (audit.accuracy_events, audit.latency_events,
                audit.drift_events) == (0, 0, 0)
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

    def test_metrics_callable_supplies_accuracy(self):
        lattice = _hand_lattice()
        accs = [0.7, 0.9, 0.8]
        audit = controller.audit_monotone(
            lattice, metrics=lambda i, p: {"accuracy": accs[i]})
        assert audit.accuracy_events == 1
        assert audit.violation_percent == pytest.approx(100.0 / 6)

    def test_single_point_reports_zero(self):
        profiles = (controller.Profile(((1, 4),)),)
        lattice = controller.ProfileLattice(
            profiles=profiles, predicted_latency=(1.0,),
            weight_bytes=(10,), drift_bound=(0.1,))
        audit = controller.audit_monotone(lattice)
        assert audit.pairs == 0 and audit.violation_percent == 0.0

    def test_plain_sequences_need_metrics(self):
        profiles = [controller.Profile(((1, 4),))] * 2
        with pytest.raises(ValueError, match="metrics"):
            controller.audit_monotone(profiles)
        audit = controller.audit_monotone(
            profiles, metrics=lambda i, p: {"latency": float(i)})
        assert audit.latency_events == 0 and audit.pairs == 1


class TestBuildLattice:
    def _setup(self, seed=70, dims=(6, 8, 4)):
        net, stats, _ = _calibrated(seed, dims)
        menus = [[(1, 4), (2, 8), (blk.elastic.k_max, None)]
                 for blk in net.blocks]
        benefit = [[3.0, 1.0, 0.0] for _ in net.blocks]
        model = _hand_model([1e-4] * len(net.blocks),
                            [2e-4] * len(net.blocks))
        budgets = (_token(lat=0.5), _token(lat=2.0), _token(lat=50.0))
        return net, stats, menus, benefit, model, budgets

    def test_three_step_lattice_is_ordered_and_named(self):
        net, stats, menus, benefit, model, budgets = self._setup()
        lattice = controller.build_lattice(net, menus, budgets,
                                           benefit, stats, model)
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
        net, stats, menus, benefit, model, budgets = self._setup(71)
        lattice = controller.build_lattice(net, menus, budgets,
                                           benefit, stats, model)
        for j, prof in enumerate(lattice.profiles):
            want = certificate.expected_bound(net, stats, prof.pairs)
            assert lattice.drift_bound[j] == pytest.approx(want,
                                                           rel=1e-12)

    def test_latency_matches_the_cost_route(self):
        net, stats, menus, benefit, model, budgets = self._setup(72)
        lattice = controller.build_lattice(net, menus, budgets,
                                           benefit, stats, model)
        for j, prof in enumerate(lattice.profiles):
            rows = cost.profile_costs(net, list(prof.pairs))
            assert lattice.predicted_latency[j] == pytest.approx(
                cost.predict(model, rows), rel=1e-12)
            assert lattice.weight_bytes[j] == \
                sum(r.weight_bytes for r in rows)

    def test_energy_model_populates_the_energy_track(self):
        net, stats, menus, benefit, model, budgets = self._setup(73)
        e_model = _hand_model([5e-5] * len(net.blocks),
                              [5e-5] * len(net.blocks),
                              intercept=0.002)
        lattice = controller.build_lattice(net, menus, budgets,
                                           benefit, stats, model,
                                           energy_model=e_model)
        assert lattice.energy is not None and len(lattice.energy) == 3

    def test_budget_chain_must_be_ordered(self):
        net, stats, menus, benefit, model, _ = self._setup(74)
        bad = (_token(lat=2.0), _token(lat=0.5))
        with pytest.raises(ValueError, match="tight"):
            controller.build_lattice(net, menus, bad, benefit, stats,
                                     model)

    def test_step_count_capped(self):
        net, stats, menus, benefit, model, _ = self._setup(75)
        many = tuple(_token(lat=float(j + 1)) for j in range(9))
        with pytest.raises(ValueError, match="1 to 8"):
            controller.build_lattice(net, menus, many, benefit, stats,
                                     model)

    def test_names_override_checked_and_applied(self):
        net, stats, menus, benefit, model, budgets = self._setup(76)
        lattice = controller.build_lattice(net, menus, budgets,
                                           benefit, stats, model,
                                           names=("a", "b", "c"))
        assert [p.name for p in lattice.profiles] == ["a", "b", "c"]
        with pytest.raises(ValueError, match="names"):
            controller.build_lattice(net, menus, budgets, benefit,
                                     stats, model, names=("a",))

    def test_measured_latency_is_carried_through(self):
        net, stats, menus, benefit, model, budgets = self._setup(77)
        lattice = controller.build_lattice(
            net, menus, budgets, benefit, stats, model,
            measured_latency=(0.4, 0.9, 1.8))
        assert lattice.measured_latency == (0.4, 0.9, 1.8)
        with pytest.raises(ValueError, match="measured_latency"):
            controller.build_lattice(net, menus, budgets, benefit,
                                     stats, model,
                                     measured_latency=(0.4,))

    def test_device_mismatch_rejected(self):
        net, stats, menus, benefit, model, budgets = self._setup(78)
        bad = tuple(controller.BudgetToken(device="other",
                                           latency_target=b.latency_target)
                    for b in budgets)
        with pytest.raises(ValueError, match="device"):
            controller.build_lattice(net, menus, bad, benefit, stats,
                                     model)

    def test_selection_composes_with_the_lattice(self):
        net, stats, menus, benefit, model, budgets = self._setup(79)
        lattice = controller.build_lattice(net, menus, budgets,
                                           benefit, stats, model)
        sel = controller.select_runtime(lattice, _token(lat=10 ** 6),
                                        epsilon=10 ** 6)
        assert sel.status == controller.OK
        assert sel.profile is lattice.profiles[sel.index]


_POLICY_MENUS = [[(1, 4), (2, 8), (4, None)], [(1, 4), (3, 8)]]


class TestPolicyHead:
    def test_initialization_shapes(self):
        head = controller.init_policy(_POLICY_MENUS, ["cpu", "gpu"],
                                      hidden=8, summary_dim=5, seed=1)
        assert head.w_budget.shape == (8, 3)
        assert head.w_device.shape == (8, controller._DEVICE_DIM)
        assert head.w_summary.shape == (8, 5)
        assert head.w_out.shape == (5, 8)
        assert set(head.device_embeddings) == {"cpu", "gpu"}
        assert head.summary_dim == 5
        assert head.layer_slices() == ((0, 3), (3, 5))

    def test_eval_choice_is_deterministic_and_valid(self):
        head = controller.init_policy(_POLICY_MENUS, ["dev"], seed=2)
        budget = _token(lat=1.0)
        a = controller.policy_forward(head, budget)
        b = controller.policy_forward(head, budget)
        assert a.indices == b.indices
        assert a.pairs == tuple(_POLICY_MENUS[ell][i]
                                for ell, i in enumerate(a.indices))
        for ell, menu in enumerate(_POLICY_MENUS):
            assert 0 <= a.indices[ell] < len(menu)
            np.testing.assert_allclose(np.sum(a.probs[ell]), 1.0,
                                       rtol=1e-12)

    def test_sampling_concentrates_on_a_dominant_logit(self):
        head = controller.init_policy([[(1, 4), (2, 4)]], ["dev"],
                                      hidden=2, seed=3)
        head.w_out[:] = 0.0
        head.b_out[:] = np.array([0.0, 5.0])
        rng = _rng(80)
        budget = _token(lat=1.0)
        hits = sum(
            controller.policy_forward(head, budget,
                                      mode=controller.TrainMode(),
                                      rng=rng).indices[0] == 1
            for _ in range(10_000))
        # P(argmax = 1) for logit gap 5 under Gumbel noise is 0.9933
        assert hits / 10_000 > 0.99

    def test_sampling_is_uniform_on_flat_logits(self):
        head = controller.init_policy([[(1, 4), (2, 4), (3, 4),
                                        (4, 4)]], ["dev"], hidden=2,
                                      seed=4)
        head.w_out[:] = 0.0
        head.b_out[:] = 0.0
        rng = _rng(81)
        budget = _token(lat=1.0)
        counts = np.zeros(4)
        for _ in range(10_000):
            choice = controller.policy_forward(
                head, budget, mode=controller.TrainMode(), rng=rng)
            counts[choice.indices[0]] += 1
        # 3 sigma for a fair 4-way draw over 1e4 trials
        np.testing.assert_allclose(counts / 10_000, 0.25, atol=0.013)

    def test_low_temperature_sharpens_soft_weights(self):
        head = controller.init_policy(_POLICY_MENUS, ["dev"], seed=5)
        rng = _rng(82)
        choice = controller.policy_forward(
            head, _token(lat=1.0), mode=controller.TrainMode(tau=1e-3),
            rng=rng)
        for ell, menu in enumerate(_POLICY_MENUS):
            probs = choice.probs[ell]
            np.testing.assert_allclose(np.sum(probs), 1.0, rtol=1e-9)
            assert probs[choice.indices[ell]] > 0.999

    def test_train_mode_requires_a_generator(self):
        head = controller.init_policy(_POLICY_MENUS, ["dev"], seed=6)
        with pytest.raises(ValueError, match="random generator"):
            controller.policy_forward(head, _token(lat=1.0),
                                      mode=controller.TrainMode())

    def test_unknown_device_rejected(self):
        head = controller.init_policy(_POLICY_MENUS, ["cpu"], seed=7)
        with pytest.raises(ValueError, match="device"):
            controller.policy_forward(head, _token("tpu", lat=1.0))

    def test_summary_width_enforced_both_ways(self):
        head = controller.init_policy(_POLICY_MENUS, ["dev"],
                                      summary_dim=3, seed=8)
        with pytest.raises(ValueError, match="summary"):
            controller.policy_forward(head, _token(lat=1.0))
        with pytest.raises(ValueError, match="summary"):
            controller.policy_forward(head, _token(lat=1.0),
                                      summary=np.zeros(2))
        choice = controller.policy_forward(head, _token(lat=1.0),
                                           summary=np.zeros(3))
        assert len(choice.indices) == 2
        plain = controller.init_policy(_POLICY_MENUS, ["dev"], seed=8)
        with pytest.raises(ValueError, match="summary"):
            controller.policy_forward(plain, _token(lat=1.0),
                                      summary=np.zeros(3))

    def test_budget_scalars_use_reference_scales(self):
        head = controller.init_policy(
            _POLICY_MENUS, ["dev"], seed=9,
            references={"latency": 2.0, "bytes": 100.0, "energy": 1.0})
        got = controller._budget_scalars(head,
                                         _token(lat=1.0, size=25))
        np.testing.assert_allclose(got, [0.5, 0.25, 0.0])


def _numpy_hinge(head, tighter, looser, lam, tau=1.0):
    """Plain-array replay of the isotonic penalty forward pass."""
    def scalars(b):
        refs = head.references
        out = []
        for target, key in ((b.latency_target, "latency"),
                            (b.bytes_target, "bytes"),
                            (b.energy_target, "energy")):
            out.append(0.0 if target is None else target / refs[key])
        return np.array(out)

    def logits(b):
        h = (head.w_budget @ scalars(b)
             + head.w_device @ head.device_embeddings[b.device]
             + head.b_hidden)
        return head.w_out @ np.maximum(h, 0.0) + head.b_out

    lt, ll = logits(tighter), logits(looser)
    total = 0.0
    for (start, stop), menu in zip(head.layer_slices(), head.menus):
        ks = np.array([float(k) for k, _ in menu])
        qs = np.array([32.0 if q is None else float(q)
                       for _, q in menu])

        def expect(vec):
            z = vec[start:stop] / tau
            p = np.exp(z - z.max())
            p /= p.sum()
            return p @ ks, p @ qs

        kt, qt = expect(lt)
        kl, ql = expect(ll)
        total += max(kt - kl, 0.0) + max(qt - ql, 0.0)
    return lam * total


class TestIsotonicHinge:
    B1 = controller.BudgetToken(device="dev", latency_target=1.0)
    B2 = controller.BudgetToken(device="dev", latency_target=5.0)

    def test_monotone_assignments_give_zero_value_and_grads(self):
        head = controller.init_policy(_POLICY_MENUS, ["dev"], hidden=6,
                                      seed=1)
        val, grads = controller.isotonic_hinge(head, self.B1, self.B2,
                                               0.3)
        assert val == 0.0
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_identical_budgets_give_zero(self):
        head = controller.init_policy(_POLICY_MENUS, ["dev"], hidden=6,
                                      seed=0)
        val, grads = controller.isotonic_hinge(head, self.B1, self.B1,
                                               0.3)
        assert val == 0.0
        for g in grads.values():
            np.testing.assert_allclose(g, 0.0, atol=1e-15)

    def test_value_matches_a_plain_array_replay(self):
        head = controller.init_policy(_POLICY_MENUS, ["dev"], hidden=6,
                                      seed=0)
        val, _ = controller.isotonic_hinge(head, self.B1, self.B2, 0.3)
        want = _numpy_hinge(head, self.B1, self.B2, 0.3)
        assert val == pytest.approx(want, rel=1e-12)
        assert val > 0.0
        half, _ = controller.isotonic_hinge(head, self.B1, self.B2,
                                            0.3, tau=2.0)
        assert half == pytest.approx(
            _numpy_hinge(head, self.B1, self.B2, 0.3, tau=2.0),
            rel=1e-12)

    def test_gradients_match_central_differences(self):
        head = controller.init_policy(_POLICY_MENUS, ["dev"], hidden=6,
                                      seed=0)
        _, grads = controller.isotonic_hinge(head, self.B1, self.B2,
                                             0.3)
        rng = _rng(90)
        for key, grad in grads.items():
            arr = (head.device_embeddings["dev"]
                   if key == "device:dev" else getattr(head, key))
            picks = rng.choice(arr.size, size=min(4, arr.size),
                               replace=False)
            for flat in picks:
                idx = np.unravel_index(flat, arr.shape)
                keep = arr[idx]
                arr[idx] = keep + 1e-5
                up, _ = controller.isotonic_hinge(head, self.B1,
                                                  self.B2, 0.3)
                arr[idx] = keep - 1e-5
                down, _ = controller.isotonic_hinge(head, self.B1,
                                                    self.B2, 0.3)
                arr[idx] = keep
                fd = (up - down) / 2e-5
                assert grad[idx] == pytest.approx(fd, rel=1e-4,
                                                  abs=1e-10), key

    def test_penalty_scales_linearly_with_its_weight(self):
        head = controller.init_policy(_POLICY_MENUS, ["dev"], hidden=6,
                                      seed=0)
        v1, g1 = controller.isotonic_hinge(head, self.B1, self.B2, 0.3)
        v2, g2 = controller.isotonic_hinge(head, self.B1, self.B2, 0.6)
        assert v2 == pytest.approx(2 * v1, rel=1e-12)
        for key in g1:
            np.testing.assert_allclose(g2[key], 2 * g1[key], rtol=1e-12)

    def test_unordered_budget_pair_rejected(self):
        head = controller.init_policy(_POLICY_MENUS, ["dev"], hidden=6,
                                      seed=0)
        with pytest.raises(ValueError, match="tightest first"):
            controller.isotonic_hinge(head, self.B2, self.B1, 0.3)

    def test_temperature_validated(self):
        head = controller.init_policy(_POLICY_MENUS, ["dev"], hidden=6,
                                      seed=0)
        with pytest.raises(ValueError, match="temperature"):
            controller.isotonic_hinge(head, self.B1, self.B2, 0.3,
                                      tau=0.0)


class TestInputSummary:
    def test_dense_summary_is_the_final_block_input(self):
        dims = (5, 7, 3)
        net = _dense_net(95, dims)
        x = _rng(96).standard_normal(dims[0])
        got = controller.input_summary(net, x)
        blk = net.blocks[0]
        full = elastic.effective_weight(blk.elastic,
                                        blk.elastic.k_max)
        want = _act_apply(blk.activation, full @ x)
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert got.shape == (dims[1],)

    def test_batches_are_mean_pooled(self):
        dims = (5, 7, 3)
        net = _dense_net(97, dims)
        xs = _rng(98).standard_normal((6, dims[0]))
        got = controller.input_summary(net, xs)
        rows = np.stack([controller.input_summary(net, x) for x in xs])
        np.testing.assert_allclose(got, rows.mean(axis=0), rtol=1e-12)

    def test_conv_summary_pools_spatial_axes(self):
        rng = _rng(99)
        first = network.Block(
            elastic=elastic.from_conv(rng.standard_normal((5, 3, 3, 3))),
            activation=network.RELU)
        second = network.Block(
            elastic=elastic.from_conv(rng.standard_normal((5, 5, 3, 3))),
            activation=network.RELU)
        net = network.Network((first, second))
        x = rng.standard_normal((2, 3, 8, 8))
        got = controller.input_summary(net, x)
        assert got.shape == (5,)
