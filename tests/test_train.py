"""Toy training loop: objective terms, schedules, sampling, resume."""

import csv
import os
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import log_softmax
from scipy.stats import chi2

from elastiq import certificate, cli, network, quant, train
from bounds import expected_bound
from oracles import straight_line_objective


def _small_setup(seed, dim=6, hidden=(8,), classes=3, n=12):
    net = train.build_network(seed, dim=dim, hidden=hidden,
                              classes=classes)
    rng = np.random.default_rng(seed + 100)
    x = rng.standard_normal((n, dim))
    y = rng.integers(0, classes, size=n)
    calib = rng.standard_normal((16, dim))
    stats = certificate.calibrate(net, calib)
    coeffs = np.array([sens * alpha for sens, alpha in zip(
        certificate.lipschitz_proxy(net, [None])[0], stats.alpha)])
    return net, x, y, stats, coeffs


def _clamped_ranks(net, k):
    return [min(k, b.elastic.k_max) for b in net.blocks]


class TestLossWeights:
    def test_defaults_inside_documented_box(self):
        w = train.LossWeights()
        assert 0.3 <= w.self_distill <= 1.0
        assert 0.1 <= w.aug_consistency <= 0.5
        assert 0.05 <= w.drift_cap <= 0.5

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            train.LossWeights(self_distill=-0.1)
        with pytest.raises(ValueError, match="non-negative"):
            train.LossWeights(drift_cap=-1.0)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            train.LossWeights(epsilon=0.0)

    def test_warmup_frac_range(self):
        with pytest.raises(ValueError, match="warmup_frac"):
            train.LossWeights(warmup_frac=1.5)


class TestRankSampler:
    def test_gamma_schedule_closed_form(self):
        s = train.RankSampler(8, 100, (4,))
        assert train.gamma_schedule(s, 0) == 1.0
        assert train.gamma_schedule(s, 50) == 0.5
        assert train.gamma_schedule(s, 100) == 0.0
        assert train.gamma_schedule(s, 500) == 0.0

    def test_probabilities_sum_to_one(self):
        s = train.RankSampler(32, 100, (4, 16, 32))
        for t in (0, 17, 50, 99, 100, 1000):
            p = train.rank_probabilities(s, t)
            assert p.shape == (32,)
            assert np.isclose(p.sum(), 1.0, rtol=0, atol=1e-12)
            assert np.all(p >= 0)

    def test_uniform_at_start_chi_squared(self):
        s = train.RankSampler(32, 100, (4, 16, 32))
        rng = np.random.default_rng(123)
        draws = np.array([train.sample_rank(s, 0, rng)
                          for _ in range(10000)])
        counts = np.bincount(draws, minlength=33)[1:]
        expected = 10000 / 32
        stat = np.sum((counts - expected) ** 2 / expected)
        assert stat < chi2.ppf(0.999, df=31)

    def test_profiles_only_after_anneal(self):
        s = train.RankSampler(32, 100, (4, 16, 32))
        rng = np.random.default_rng(7)
        support = {train.sample_rank(s, 100, rng) for _ in range(2000)}
        assert support == {4, 16, 32}
        p = train.rank_probabilities(s, 100)
        off = [p[k - 1] for k in range(1, 33) if k not in s.profiles]
        assert max(off) == 0.0

    def test_half_annealed_mixture_frequencies(self):
        # at gamma = 0.5 the in-profile mass is 0.5*|P|/n + 0.5
        s = train.RankSampler(32, 100, (4, 16, 32))
        assert train.gamma_schedule(s, 50) == 0.5
        p = train.rank_probabilities(s, 50)
        p_in = sum(p[k - 1] for k in s.profiles)
        assert np.isclose(p_in, 0.5 * 3 / 32 + 0.5, rtol=0, atol=1e-12)
        rng = np.random.default_rng(123)
        hits = np.mean([train.sample_rank(s, 50, rng) in s.profiles
                        for _ in range(10000)])
        sigma = np.sqrt(p_in * (1 - p_in) / 10000)
        assert abs(hits - p_in) <= 3 * sigma


class TestLambdaWarmup:
    def test_ramp_points(self):
        assert train.lambda_warmup(0.4, 0, 100) == 0.0
        assert train.lambda_warmup(0.4, 50, 100) == pytest.approx(0.2)
        assert train.lambda_warmup(0.4, 100, 100) == pytest.approx(0.4)
        assert train.lambda_warmup(0.4, 1000, 100) == pytest.approx(0.4)

    def test_zero_warmup_is_constant(self):
        assert train.lambda_warmup(0.4, 0, 0) == pytest.approx(0.4)


class TestMakeDataset:
    def test_shapes_and_dtypes(self):
        x_tr, y_tr, x_ev, y_ev = train.make_dataset(0)
        assert x_tr.shape == (2000, 16) and x_ev.shape == (500, 16)
        assert y_tr.shape == (2000,) and y_ev.shape == (500,)
        assert y_tr.dtype == np.int64
        assert set(np.unique(y_tr)) == {0, 1}

    def test_deterministic(self):
        a = train.make_dataset(42)
        b = train.make_dataset(42)
        for u, v in zip(a, b):
            assert np.array_equal(u, v)

    def test_train_split_standardized(self):
        x_tr, _, x_ev, _ = train.make_dataset(3, n_train=600, n_eval=100,
                                              dim=8)
        assert np.max(np.abs(x_tr.mean(axis=0))) < 1e-9
        assert np.max(np.abs(x_tr.std(axis=0) - 1.0)) < 1e-9
        # eval split reuses the train statistics, not its own
        assert np.max(np.abs(x_ev.mean(axis=0))) > 1e-6


class TestBuildNetwork:
    def test_default_architecture(self):
        net = train.build_network(0)
        assert len(net.blocks) == 3
        dims = [(b.elastic.out_features, b.elastic.in_features)
                for b in net.blocks]
        assert dims == [(32, 16), (32, 32), (2, 32)]
        assert [b.elastic.k_max for b in net.blocks] == [16, 32, 2]
        acts = [b.activation for b in net.blocks]
        assert acts == [network.RELU, network.RELU, network.IDENTITY]
        for b in net.blocks:
            assert np.all(b.elastic.bias == 0.0)

    def test_deterministic(self):
        a = train.build_network(9, dim=5, hidden=(6,), classes=3)
        b = train.build_network(9, dim=5, hidden=(6,), classes=3)
        for ba, bb in zip(a.blocks, b.blocks):
            assert np.array_equal(ba.elastic.factors.u,
                                  bb.elastic.factors.u)
            assert np.array_equal(ba.elastic.factors.core,
                                  bb.elastic.factors.core)


class TestRankProfile:
    def test_clamps_to_each_layer(self):
        net = train.build_network(0)
        assert network.rank_profile(net, 4) == [(4, None), (4, None),
                                                (2, None)]
        assert network.rank_profile(net, 32) == [(16, None), (32, None),
                                                 (2, None)]

    def test_bits_pass_through(self):
        net = train.build_network(0)
        assert network.rank_profile(net, 4, bits=8) == [(4, 8), (4, 8),
                                                        (2, 8)]

    def test_rank_floor(self):
        # rank_profile trusts its callers; the --profiles flag, where a
        # rank enters from outside, refuses one below 1
        for spec in ("0", "-3:8"):
            with pytest.raises(cli.CliError) as err:
                cli._parse_profile_flag(spec)
            assert str(err.value) == (f"bad profile entry {spec!r}: rank "
                                      f"must be at least 1")


class TestTotalLoss:
    def test_full_profile_collapse_to_task(self):
        net, x, y, stats, coeffs = _small_setup(0)
        k = max(b.elastic.k_max for b in net.blocks)
        w = train.LossWeights()
        noise = np.random.default_rng(1).standard_normal(x.shape)
        terms, _ = train.total_loss(net, (x, y), k, w, coeffs=coeffs,
                                    noise=noise)
        assert terms.self_distill == 0.0
        assert terms.aug_consistency == 0.0
        assert terms.drift_cap == 0.0
        assert terms.total == terms.task
        lp = log_softmax(network.forward(net, x).logits, axis=-1)
        ce = -float(np.mean(lp[np.arange(x.shape[0]), y]))
        assert terms.task == pytest.approx(ce, rel=1e-12)

    def test_hinge_exactly_zero_under_tolerance(self):
        net, x, y, stats, coeffs = _small_setup(1)
        w = train.LossWeights(epsilon=1e9)
        noise = np.random.default_rng(1).standard_normal(x.shape)
        terms, _ = train.total_loss(net, (x, y), 2, w, coeffs=coeffs,
                                    noise=noise)
        assert terms.drift_cap == 0.0
        assert terms.drift_surrogate > 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_straight_line_recomputation(self, seed):
        net, x, y, stats, coeffs = _small_setup(seed)
        k = 2
        w = train.LossWeights(epsilon=0.05)
        noise = np.random.default_rng(77).standard_normal(x.shape)
        terms, _ = train.total_loss(net, (x, y), k, w, coeffs=coeffs,
                                    noise=noise)
        total, parts = straight_line_objective(
            net, x, y, _clamped_ranks(net, k), w.self_distill,
            w.aug_consistency, w.drift_cap, w.epsilon, coeffs,
            x_aug=x + 0.05 * noise)
        assert terms.total == pytest.approx(total, rel=1e-10)
        for name in ("task", "self_distill", "aug_consistency",
                     "drift_cap"):
            assert getattr(terms, name) == pytest.approx(
                parts[name], rel=1e-10, abs=1e-12)

    def test_two_class_single_example_recomputation(self):
        net = train.build_network(11, dim=4, hidden=(5,), classes=2)
        x = np.array([[0.3, -0.7, 1.1, 0.2]])
        y = np.array([1])
        calib = np.random.default_rng(8).standard_normal((10, 4))
        stats = certificate.calibrate(net, calib)
        coeffs = np.array([sens * alpha for sens, alpha in zip(
            certificate.lipschitz_proxy(net, [None])[0], stats.alpha)])
        w = train.LossWeights(epsilon=0.05)
        terms, _ = train.total_loss(net, (x, y), 2, w, coeffs=coeffs,
                                    noise=np.zeros((1, 4)))
        total, parts = straight_line_objective(
            net, x, y, _clamped_ranks(net, 2), w.self_distill,
            w.aug_consistency, w.drift_cap, w.epsilon, coeffs,
            x_aug=x)
        assert terms.total == pytest.approx(total, rel=1e-10)
        z = network.forward(net, x).logits[0]
        ce = float(np.log(1.0 + np.exp(z[0] - z[1])))
        assert terms.task == pytest.approx(ce, rel=1e-10)

    def test_weighted_terms_sum_to_total(self):
        net, x, y, stats, coeffs = _small_setup(2)
        w = train.LossWeights(epsilon=0.05)
        noise = np.random.default_rng(4).standard_normal(x.shape)
        terms, _ = train.total_loss(net, (x, y), 2, w, coeffs=coeffs,
                                    noise=noise)
        s = sum(terms.as_dict().values()) + terms.task
        # as_dict holds all four weighted terms, task included
        assert terms.total == pytest.approx(
            terms.task + terms.self_distill + terms.aug_consistency
            + terms.drift_cap, rel=1e-12)
        assert s == pytest.approx(terms.total + terms.task, rel=1e-12)

    def test_gradients_match_finite_differences(self):
        net, x, y, stats, coeffs = _small_setup(4, dim=5, hidden=(7,),
                                                classes=3, n=6)
        k, h = 2, 1e-6
        w = train.LossWeights(epsilon=0.05)
        noise = np.random.default_rng(7).standard_normal(x.shape)

        def run():
            return train.total_loss(net, (x, y), k, w, coeffs=coeffs,
                                    noise=noise)

        terms, grads = run()
        # margins: every nondifferentiable switch sits far from the
        # evaluation point relative to the step size h
        assert abs(terms.drift_surrogate - w.epsilon) > 1e-2
        for blk in net.blocks:
            tail = np.sort(np.abs(
                blk.elastic.factors.core[k:]))[::-1]
            if tail.size > 1:
                assert tail[0] - tail[1] > 1e-2

        def central(get, put, idx):
            base = get()[idx]
            put(idx, base + h)
            tp, _ = run()
            put(idx, base - h)
            tm, _ = run()
            put(idx, base)
            return (tp.total - tm.total) / (2 * h)

        checked = 0
        for i, blk in enumerate(net.blocks):
            f = blk.elastic.factors
            leaves = {"u": f.u, "core": f.core, "v": f.v,
                      "bias": blk.elastic.bias}
            for name, arr in leaves.items():
                coords = list(np.ndindex(*arr.shape))[:6]
                for idx in coords:
                    fd = central(lambda a=arr: a,
                                 lambda j, v, a=arr: a.__setitem__(j, v),
                                 idx)
                    an = grads[i][name][idx]
                    assert an == pytest.approx(fd, rel=1e-4, abs=1e-8), \
                        f"layer {i} {name}[{idx}]"
                    checked += 1
        assert checked >= 40

    def test_each_profile_runs_once_over_the_stacked_batch(self,
                                                           monkeypatch):
        net = train.build_network(0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((train.BATCH_SIZE, train.DIM))
        y = rng.integers(0, train.CLASSES, size=train.BATCH_SIZE)
        noise = rng.standard_normal(x.shape)
        coeffs = np.ones(len(net.blocks))
        calls = Counter()
        for module, name in ((network, "forward"), (network, "backward"),
                             (quant, "round_trip")):
            def counted(*args, _name=name, _fn=getattr(module, name),
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        # full and compressed once each over the batch and its augmented
        # copy; the compressed view quantizes 3 slices of 3 layers in
        # its forward, backward (2 layers) and gradients
        train.total_loss(net, (x, y), 16, train.LossWeights(),
                         coeffs=coeffs, noise=noise, bits=8)
        assert calls == {"forward": 2, "backward": 2, "round_trip": 24}
        # with both regularizers off only the full view runs
        calls.clear()
        train.total_loss(net, (x, y), 16, train.LossWeights(
            self_distill=0.0, aug_consistency=0.0), coeffs=coeffs, bits=8)
        assert calls == {"forward": 1, "backward": 1}

    def test_non_finite_loss_aborts(self):
        net, x, y, stats, coeffs = _small_setup(0)
        net.blocks[0].elastic.factors.u[0, 0] = np.inf
        w = train.LossWeights(epsilon=0.05)
        noise = np.random.default_rng(1).standard_normal(x.shape)
        with np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite"):
                train.total_loss(net, (x, y), 2, w, coeffs=coeffs,
                                 noise=noise)

    def test_drift_cap_requires_stats_or_coeffs(self):
        net, x, y, stats, coeffs = _small_setup(0)
        noise = np.random.default_rng(1).standard_normal(x.shape)
        # the drift cap reads precomputed coefficients, a required keyword
        with pytest.raises(TypeError, match="coeffs"):
            train.total_loss(net, (x, y), 2,
                             train.LossWeights(epsilon=0.05),
                             noise=noise)


class TestSchedules:
    def test_logged_rows_match_closed_forms(self):
        cfg = replace(train.TrainConfig(), steps=60, log_every=5)
        state, _ = train.train_toy(cfg, 3407)
        sampler = train.RankSampler(32, cfg.anneal_steps, train.PROFILES)
        w = cfg.weights
        for row in state.metrics:
            t = row["step"]
            assert row["gamma"] == pytest.approx(
                train.gamma_schedule(sampler, t), rel=1e-12)
            assert row["lam_sd"] == pytest.approx(
                train.lambda_warmup(w.self_distill, t,
                                    cfg.warmup_steps), rel=1e-12)
            assert row["lam_aug"] == pytest.approx(
                train.lambda_warmup(w.aug_consistency, t,
                                    cfg.warmup_steps), rel=1e-12)
            assert row["lam_cert"] == pytest.approx(
                train.lambda_warmup(w.drift_cap, t, cfg.warmup_steps),
                rel=1e-12)

    def test_rank_support_after_anneal(self):
        cfg = replace(train.TrainConfig(), steps=90, log_every=1)
        state, _ = train.train_toy(cfg, 3407)
        late = [row["k"] for row in state.metrics
                if row["step"] >= cfg.anneal_steps]
        assert late and set(late) <= set(train.PROFILES)


class TestTrainToy:
    def test_deterministic_reruns(self):
        cfg = replace(train.TrainConfig(), steps=50)
        sa, ra = train.train_toy(cfg, 3407)
        sb, rb = train.train_toy(cfg, 3407)
        assert sa.metrics == sb.metrics
        assert ra.final_loss == rb.final_loss
        assert ra.accuracy == rb.accuracy

    def test_checkpoint_resume_bit_for_bit(self, tmp_path):
        cfg = replace(train.TrainConfig(), steps=60)
        sa, ra = train.train_toy(cfg, 3407)
        s1, _ = train.train_toy(cfg, 3407, stop_after=30)
        path = str(tmp_path / "ck.npz")
        train.save_checkpoint(s1, path, "cfg", 3407)
        s2 = train.load_checkpoint(path, "cfg", 3407)
        s3, r3 = train.train_toy(cfg, 3407, state=s2)
        rows_a = [r for r in sa.metrics if r["step"] >= 30]
        rows_b = [r for r in s3.metrics if r["step"] >= 30]
        assert rows_a == rows_b
        assert ra.final_loss == r3.final_loss
        assert ra.accuracy == r3.accuracy
        assert ra.violation_rate == r3.violation_rate

    def test_divergence_detector_raises(self):
        cfg = replace(train.TrainConfig(), steps=40,
                      divergence_factor=1e-6, divergence_patience=3)
        with pytest.raises(RuntimeError, match="diverged"):
            train.train_toy(cfg, 3407)

    def test_task_loss_decreases(self):
        cfg = replace(train.TrainConfig(), steps=120)
        state, _ = train.train_toy(cfg, 3407)
        first = state.metrics[0]["task"]
        tail = [r["task"] for r in state.metrics if r["step"] >= 100]
        assert min(tail) < 0.5 * first

    def test_csv_round_trip(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        cfg = replace(train.TrainConfig(), steps=30)
        state, _ = train.train_toy(cfg, 3407)
        train.write_metrics_csv(state.metrics, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(train._METRIC_FIELDS)
        assert len(rows) - 1 == len(state.metrics)
        for parsed, row in zip(rows[1:], state.metrics):
            rec = dict(zip(rows[0], parsed))
            assert int(rec["step"]) == row["step"]
            assert float(rec["total"]) == pytest.approx(row["total"],
                                                        rel=1e-15)
            assert int(rec["k"]) == row["k"]

    def test_report_matches_fresh_evaluation(self):
        cfg = replace(train.TrainConfig(), steps=40)
        state, report = train.train_toy(cfg, 3407)
        x_tr, _, x_ev, y_ev = train.make_dataset(3407)
        stats = certificate.calibrate(state.net, x_tr[:train.CALIB_SIZE])
        assert report.stats == stats
        assert report.profiles == {
            name: network.rank_profile(state.net, k)
            for name, k in zip(train.PROFILE_NAMES, train.PROFILES)}
        acc, viol, bound, drift = train.evaluate(
            state.net, x_ev, y_ev, report.profiles, cfg.weights.epsilon,
            stats)
        assert report.accuracy == acc
        assert report.violation_rate == viol
        assert report.drift_bound == bound
        assert report.mean_drift == drift

    def test_stop_after_caps_progress(self):
        cfg = replace(train.TrainConfig(), steps=80)
        state, _ = train.train_toy(cfg, 3407, stop_after=20)
        assert state.step == 20

    def test_a_fresh_run_draws_the_dataset_once(self, monkeypatch):
        calls, draw = [], train.make_dataset

        def counted(*args, **kwargs):
            calls.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(train, "make_dataset", counted)
        train.train_toy(replace(train.TrainConfig(), steps=2), 3407)
        assert calls == [(3407,)]


class TestEvaluate:
    def test_matches_manual_replay(self):
        net = train.build_network(2, dim=6, hidden=(8,), classes=3)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((40, 6))
        y = rng.integers(0, 3, size=40)
        calib = rng.standard_normal((16, 6))
        eps = 0.5
        stats = certificate.calibrate(net, calib)
        profiles = {name: network.rank_profile(net, k)
                    for name, k in (("small", 2), ("big", 8))}
        acc, viol, bound, drift = train.evaluate(net, x, y, profiles, eps,
                                                 stats)
        for name, entries in profiles.items():
            logits = network.forward(net, x, entries).logits
            d = np.asarray(network.logit_drift(net, x, entries))
            assert acc[name] == pytest.approx(
                float(np.mean(np.argmax(logits, axis=-1) == y)))
            assert viol[name] == pytest.approx(float(np.mean(d > eps)))
            assert drift[name] == pytest.approx(float(np.mean(d)))
            assert bound[name] == pytest.approx(
                expected_bound(net, stats, entries))
        # served-rank ceiling: drift at the widest profile is zero
        assert drift["big"] <= bound["big"] + 1e-12

    def test_one_forward_per_profile_and_one_full(self, monkeypatch):
        net = train.build_network(2, dim=6, hidden=(8,), classes=3)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((40, 6))
        y = rng.integers(0, 3, size=40)
        profiles, forward = [], network.forward

        def counted(net, xs, profile=None):
            if xs is x:
                profiles.append(profile)
            return forward(net, xs, profile)

        monkeypatch.setattr(network, "forward", counted)
        stats = certificate.calibrate(net, rng.standard_normal((16, 6)))
        train.evaluate(net, x, y, {name: network.rank_profile(net, k)
                                   for name, k in zip("abc", (2, 4, 8))},
                       0.5, stats)
        assert len(profiles) == 4 and profiles.count(None) == 1


class TestCheckpoint:
    def test_round_trip_preserves_state(self, tmp_path):
        cfg = replace(train.TrainConfig(), steps=25)
        s1, _ = train.train_toy(cfg, 11, stop_after=25)
        path = str(tmp_path / "ck.npz")
        train.save_checkpoint(s1, path, "cfg", 11)
        s2 = train.load_checkpoint(path, "cfg", 11)
        assert s2.step == s1.step
        # the fingerprint covers activations, residuals and norms too
        assert certificate.network_fingerprint(s2.net) == \
            certificate.network_fingerprint(s1.net)
        for b1, b2 in zip(s1.net.blocks, s2.net.blocks):
            assert np.array_equal(b1.elastic.factors.u,
                                  b2.elastic.factors.u)
            assert np.array_equal(b1.elastic.factors.core,
                                  b2.elastic.factors.core)
            assert np.array_equal(b1.elastic.factors.v,
                                  b2.elastic.factors.v)
            assert np.array_equal(b1.elastic.bias, b2.elastic.bias)
        assert np.array_equal(s1.cert_coeffs, s2.cert_coeffs)
        assert list(s1.opt) == list(s2.opt)
        for key in s1.opt:
            assert np.array_equal(s1.opt[key], s2.opt[key]), key
        # the generators continue identically
        a = s1.rng.integers(0, 1 << 30, 8)
        b = s2.rng.integers(0, 1 << 30, 8)
        assert np.array_equal(a, b)

    def test_initial_loss_and_metrics_survive(self, tmp_path):
        cfg = replace(train.TrainConfig(), steps=30)
        s1, _ = train.train_toy(cfg, 5, stop_after=15)
        path = str(tmp_path / "ck.npz")
        train.save_checkpoint(s1, path, "cfg", 5)
        s2 = train.load_checkpoint(path, "cfg", 5)
        assert s2.initial_loss == s1.initial_loss
        assert s2.diverge_streak == s1.diverge_streak
        assert s2.metrics == s1.metrics
