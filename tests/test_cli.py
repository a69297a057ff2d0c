"""Command-line entry points: import cost (no trainer outside train),
module execution, every documented exit code, the certify -> plan ->
certify round trip, plans from a per-layer device CSV (dense and conv)
and its refusal of an unpriced menu entry, energy
and byte budgets, manifests published as one file through one temporary
file and one rename, only after self-verification, one error line for
every malformed manifest and every drift tolerance that is not finite
and >= 0, plan's refusal of an uncertified ledger, select, report and
audit's refusal of a lattice that fails verification, report's refusal
of conv inputs at another map size, report's diagnostics line and CSV,
the ledger passes and forwards plan and report make, decompose on wide
dense and bottleneck conv models, the whole pipeline on a conv model and
on a sweep of tiny random models, quantized and resumed training (and
one error line for a damaged checkpoint or calibration file, a
calibration file without inputs or with non-finite ones, a stage run
before the one it needs, and a bad flag or config file),
byte-identical reruns across BLAS thread counts, and every option and
every training config field exercised by a test or a benchmark stage."""

import argparse
import base64
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import stat
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastiq import certificate, cli, controller, cost, elastic, manifest
from elastiq import network

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def _run_python(*args, **env_extra):
    env = dict(os.environ, **env_extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=False)


def _cli(*argv):
    return _cli_output(*argv)[0]


def _cli_output(*argv):
    """(exit code, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def test_import_does_not_load_scipy():
    proc = _run_python("-c", "import sys, elastiq; "
                             "print('scipy.special' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_leaves_the_trainer_out():
    # only train imports the trainer
    proc = _run_python("-c", "import sys, elastiq.cli; "
                             "print('elastiq.train' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_module_execution_warns_nothing():
    proc = _run_python("-m", "elastiq.cli")
    assert proc.returncode == cli.EXIT_ERROR
    assert "usage" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def _small_model(path):
    """An elastic 8 -> 6 -> 4 relu stack with an identity head."""
    rng = np.random.default_rng(3)
    dims = (8, 6, 4)
    blocks = tuple(
        network.Block(elastic=elastic.from_dense(
            rng.standard_normal((dims[i + 1], dims[i]))),
            activation=network.RELU if i == 0 else network.IDENTITY)
        for i in range(len(dims) - 1))
    manifest.write_manifest(
        manifest.network_to_doc(network.Network(blocks)), path)


def _planned_small_model(tmp_path):
    model, cert, plan = (tmp_path / n for n in (
        "model.json", "cert.json", "plan.json"))
    _small_model(model)
    assert _cli("certify", model, "--profiles", "2,3:8", "--epsilon", "1.0",
                "--out", cert, "--calib-size", 64) == cli.EXIT_OK
    assert _cli("plan", cert, "--out", plan) == cli.EXIT_OK
    return plan


def test_recertifying_a_planned_manifest_drops_its_lattice(tmp_path):
    plan = _planned_small_model(tmp_path)
    recert = tmp_path / "recert.json"
    assert "lattice" in manifest.read_manifest(plan)
    assert _cli("certify", plan, "--out", recert, "--seed", 7,
                "--calib-size", 64) == cli.EXIT_OK
    assert manifest.verify_manifest(str(recert)) == []
    assert "lattice" not in manifest.read_manifest(recert)
    assert _cli("audit", recert) == cli.EXIT_ERROR


def test_select_exit_codes(tmp_path):
    plan = _planned_small_model(tmp_path)
    doc = manifest.read_manifest(plan)
    lattice = manifest.lattice_from_doc(doc["lattice"])
    lat, drift = lattice.predicted_latency, lattice.drift_bound
    # only the tightest profile meets its own latency, and it has drift
    assert lat[0] < min(lat[1:]) and drift[0] > 0.0

    def select(latency, epsilon):
        return _cli("select", plan, "--latency-ms", repr(latency),
                    "--epsilon", repr(epsilon))

    assert select(lat[0], drift[0]) == cli.EXIT_OK
    assert select(lat[0], drift[0] / 2) == cli.EXIT_CERT_WARNING
    assert select(lat[0] / 2, drift[0]) == cli.EXIT_INFEASIBLE


def _device_csv(tmp_path, cert, energy=True):
    """The device table plain plan synthesizes for cert (device synth0,
    seed 0, conv layers priced at the certified map size), written as
    CSV; energy=False blanks its energy column."""
    doc = manifest.read_manifest(cert)
    net = manifest.net_from_doc(doc)
    spatial = manifest.stats_from_doc(doc["calibration"]).spatial
    table = cost.synth_device_table(net, cli._canonical_menus(net), spatial,
                                    device="synth0", seed=0)
    if not energy:
        table = cost.DeviceTable(
            table.device, (table.overhead[0], None),
            tuple({entry: (price[0], None) for entry, price in prices.items()}
                  for prices in table.layers))
    path = tmp_path / ("device.csv" if energy else "device_no_energy.csv")
    cost.write_device_table(table, path)
    return path


def _plans_alike_from_the_device_csv(tmp_path, cert):
    """plan from the CSV of the table plain plan synthesizes writes the
    same manifest bytes and stdout as plain plan, apart from the path."""
    plan, imported = tmp_path / "plan.json", tmp_path / "imported.json"
    code, out, err = _cli_output(
        "plan", cert, "--out", imported,
        "--device-csv", _device_csv(tmp_path, cert), "--device", "synth0")
    assert (code, err) == (cli.EXIT_OK, "")
    code, out_plain, _ = _cli_output("plan", cert, "--out", plan)
    assert code == cli.EXIT_OK
    assert out.replace(str(imported), "OUT") == \
        out_plain.replace(str(plan), "OUT")
    assert imported.read_bytes() == plan.read_bytes()


def test_plan_from_the_synthesized_device_csv_matches_plain_plan(tmp_path):
    _planned_small_model(tmp_path)
    _plans_alike_from_the_device_csv(tmp_path, tmp_path / "cert.json")


def test_energy_budgets_in_plan_and_select(tmp_path):
    plan = _planned_small_model(tmp_path)
    cert = tmp_path / "cert.json"
    energy = manifest.lattice_from_doc(
        manifest.read_manifest(plan)["lattice"]).energy
    assert min(energy) > 0.0
    assert _cli("select", plan, "--energy-mj",
                repr(2.0 * max(energy))) == cli.EXIT_OK
    assert _cli("select", plan, "--energy-mj",
                repr(min(energy) / 2.0)) == cli.EXIT_INFEASIBLE

    no_energy = _device_csv(tmp_path, cert, energy=False)
    blind = tmp_path / "blind.json"
    code, _, err = _cli_output("plan", cert, "--out", tmp_path / "x.json",
                               "--device-csv", no_energy, "--energy-mj",
                               "1.0")
    assert code == cli.EXIT_ERROR and err.count("\n") == 1
    assert err.startswith("error: energy budgets need a device table")
    assert not (tmp_path / "x.json").exists()
    assert _cli("plan", cert, "--out", blind,
                "--device-csv", no_energy) == cli.EXIT_OK
    code, out, err = _cli_output("select", blind, "--energy-mj", "1.0")
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert err == "error: lattice carries no energy predictions\n"


def test_byte_budgets_in_plan_and_select(tmp_path):
    _planned_small_model(tmp_path)
    cert, plan = tmp_path / "cert.json", tmp_path / "bytes.json"
    code, out, err = _cli_output("plan", cert, "--out", plan,
                                 "--bytes", "60,120,240,600")
    assert (code, err) == (cli.EXIT_OK, "")
    assert "@@ budgets source=flags count=4" in out
    lattice = manifest.lattice_from_doc(
        manifest.read_manifest(plan)["lattice"])
    sizes = lattice.weight_bytes
    assert len(sizes) == 4
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    assert all(size <= budget for size, budget in zip(sizes,
                                                      (60, 120, 240, 600)))
    epsilon = max(lattice.drift_bound)
    code, out, err = _cli_output("select", plan, "--bytes", min(sizes) - 1,
                                 "--epsilon", repr(epsilon))
    assert (code, err) == (cli.EXIT_INFEASIBLE, "")
    code, out, err = _cli_output("select", plan, "--bytes", min(sizes),
                                 "--epsilon", repr(epsilon))
    assert (code, err) == (cli.EXIT_OK, "")
    pick = controller.select_runtime(lattice, controller.BudgetToken(
        device=lattice.device, bytes_target=min(sizes)), epsilon)
    assert pick.status == controller.OK
    assert lattice.weight_bytes[pick.index] == min(sizes)
    assert f"@@ select profile={pick.profile.name} index={pick.index} " \
        in out

    # one budget axis per plan, naming 1 to 8 positive budgets, ordered
    # tightest first
    bad = tmp_path / "bad.json"
    for flags, message in (
            (("--latency-ms", "1.0", "--bytes", "600"),
             "plan takes one budget axis: give one of --latency-ms, "
             "--bytes, --energy-mj"),
            (("--bytes", ","), "--bytes names no budgets"),
            (("--bytes", "a"), "bad --bytes list: 'a'"),
            (("--bytes", "9000,3000"),
             "budgets must be ordered tightest first"),
            (("--bytes", ",".join(str(100 * j) for j in range(1, 10))),
             "lattice supports 1 to 8 budget levels"),
            (("--latency-ms", "1,nan"),
             "latency_target must be positive and finite"),
            (("--bytes", "0,600"),
             "bytes_target must be positive and finite")):
        code, out, err = _cli_output("plan", cert, "--out", bad, *flags)
        assert (code, out, err) == (cli.EXIT_ERROR, "", f"error: {message}\n")
        assert not bad.exists()


def test_audit_exits_4_on_a_latency_inversion(tmp_path):
    plan = _planned_small_model(tmp_path)
    assert _cli("audit", plan) == cli.EXIT_OK
    doc = manifest.read_manifest(plan)
    lattice = manifest.lattice_from_doc(doc["lattice"])
    inverted = dataclasses.replace(
        lattice, predicted_latency=lattice.predicted_latency[::-1])
    doc["lattice"] = manifest.lattice_to_doc(inverted)
    bad = tmp_path / "inverted.json"
    manifest.write_manifest(doc, bad)
    assert _cli("audit", bad) == cli.EXIT_AUDIT_VIOLATIONS


def _sentinels(out, topic):
    """key -> value text of each ``@@ topic`` line of out, in order."""
    return [dict(field.split("=", 1) for field in line.split()[2:])
            for line in out.splitlines() if line.startswith(f"@@ {topic} ")]


def _sentinel(out, topic):
    """key -> value text of the one ``@@ topic`` line of out, or None when
    out holds no such line."""
    lines = _sentinels(out, topic)
    assert len(lines) <= 1, lines
    return lines[0] if lines else None


def _report_probes(tmp_path, plan):
    """Seeded probes written for report --calib, the stored lattice, and
    each level's observed drifts at those probes."""
    doc = manifest.read_manifest(plan)
    net = manifest.net_from_doc(doc)
    lattice = manifest.lattice_from_doc(doc["lattice"])
    xs = np.random.default_rng(11).standard_normal(
        (32, net.blocks[0].elastic.in_features))
    calib = tmp_path / "probes.npz"
    np.savez(calib, x=xs)
    drifts = [network.logit_drift(net, xs, prof.pairs)
              for prof in lattice.profiles]
    return calib, lattice, drifts


def _diagnostics(plan, calib, epsilon):
    code, out, err = _cli_output("report", plan, "--calib", calib,
                                 "--epsilon", repr(epsilon))
    assert (code, err) == (cli.EXIT_OK, "")
    return _sentinel(out, "diagnostics")


def test_report_coverage_is_the_share_of_drifts_within_epsilon(tmp_path):
    plan = _planned_small_model(tmp_path)
    calib, _, drifts = _report_probes(tmp_path, plan)
    flat = np.concatenate(drifts)
    # a tolerance equal to an observed drift counts that drift as covered
    eps = float(np.sort(flat)[2 * len(flat) // 3])
    share = 100.0 * np.mean(flat <= eps)
    assert 0.0 < share < 100.0
    diag = _diagnostics(plan, calib, eps)
    assert float(diag["coverage_percent"]) == share
    assert float(diag["epsilon"]) == eps
    assert float(_diagnostics(plan, calib, float(np.max(flat)))
                 ["coverage_percent"]) == 100.0


def test_report_pearson_correlates_stored_bounds_with_mean_drift(tmp_path):
    plan = _planned_small_model(tmp_path)
    calib, lattice, drifts = _report_probes(tmp_path, plan)
    diag = _diagnostics(plan, calib, 1.0)
    means = [float(np.mean(d)) for d in drifts]
    assert diag["correlation_defined"] == "true"
    assert float(diag["pearson"]) == pytest.approx(
        np.corrcoef(lattice.drift_bound, means)[0, 1], rel=1e-9)


def test_report_identical_levels_leave_the_correlation_undefined(tmp_path):
    _planned_small_model(tmp_path)
    cert, same = tmp_path / "cert.json", tmp_path / "same.json"
    # budgets above the full profile's bytes all plan the same level
    assert _cli("plan", cert, "--out", same,
                "--bytes", "100000,200000,300000") == cli.EXIT_OK
    calib, lattice, _ = _report_probes(tmp_path, same)
    assert len({prof.pairs for prof in lattice.profiles}) == 1
    diag = _diagnostics(same, calib, 1.0)
    assert (diag["pearson"], diag["correlation_defined"]) == ("none", "false")


@pytest.mark.filterwarnings("error")
def test_report_correlation_is_undefined_when_it_overflows(capsys):
    # finite bounds whose spread squares past float64: the Pearson value
    # overflows, and no RuntimeWarning reaches the user
    cli._say_diagnostics([1e200, 3e200], [np.ones(2), 2.0 * np.ones(2)],
                         1.0)
    diag = _sentinel(capsys.readouterr().out, "diagnostics")
    assert (diag["pearson"], diag["correlation_defined"]) == ("none", "false")
    assert diag["mean_drift"] == "1.5"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("conv", [False, True])
def test_overflowing_calibration_inputs_exit_1_with_a_message(tmp_path,
                                                              conv):
    # finite inputs whose squares overflow float64: certify refuses the
    # infinite layer-input norms and report the infinite drifts, each with
    # one line, no warning and no file written
    plan = tmp_path / "plan.json"
    if conv:
        calib, cert = _certified_conv_bottleneck(tmp_path)
        assert _cli("plan", cert, "--out", plan) == cli.EXIT_OK
        shape = np.load(calib)["x"].shape
    else:
        _planned_small_model(tmp_path)
        cert, shape = tmp_path / "cert.json", (4, 8)
    big, out, csv = (tmp_path / n for n in ("big.npz", "out.json",
                                            "report.csv"))
    np.savez(big, x=np.full(shape, 1e200))
    for argv, message in (
            (("certify", cert, "--calib", big, "--epsilon", "1.0",
              "--out", out), "layer input norms overflow float64"),
            (("report", plan, "--calib", big, "--out", csv),
             "logit drift overflows float64")):
        assert _cli_output(*argv) == (
            cli.EXIT_ERROR, "", f"error: {message}; scale the inputs "
                                f"down\n"), argv
    assert not out.exists() and not csv.exists()


def test_report_delta_hat_p95_is_the_stored_bounds_percentile(tmp_path):
    plan = _planned_small_model(tmp_path)
    calib, lattice, _ = _report_probes(tmp_path, plan)
    diag = _diagnostics(plan, calib, 1.0)
    assert float(diag["delta_hat_p95"]) \
        == float(np.percentile(lattice.drift_bound, 95))


def test_report_mean_drift_is_the_mean_of_all_drifts(tmp_path):
    plan = _planned_small_model(tmp_path)
    calib, _, drifts = _report_probes(tmp_path, plan)
    diag = _diagnostics(plan, calib, 1.0)
    assert float(diag["mean_drift"]) == pytest.approx(
        float(np.mean(np.concatenate(drifts))), rel=1e-12)


def test_report_one_level_lattice_prints_no_diagnostics(tmp_path):
    _planned_small_model(tmp_path)
    cert, one = tmp_path / "cert.json", tmp_path / "one.json"
    assert _cli("plan", cert, "--out", one, "--bytes", "100000") \
        == cli.EXIT_OK
    calib, lattice, _ = _report_probes(tmp_path, one)
    assert len(lattice.profiles) == 1
    code, out, err = _cli_output("report", one, "--calib", calib)
    assert (code, err) == (cli.EXIT_OK, "")
    assert out.count("@@ row ") == 1
    assert _sentinel(out, "diagnostics") is None


@pytest.mark.parametrize("command, value", [
    ("certify", "nan"), ("certify", "-1"), ("certify", "inf"),
    ("select", "nan"), ("select", "-0.5"), ("report", "nan"),
    ("report", "-inf"), ("stored", "-1"), ("report", "-1e-3"),
    ("select", "-.5"), ("certify", "-NaN"),
])
def test_drift_tolerance_must_be_finite_and_non_negative(tmp_path, command,
                                                         value):
    plan = _planned_small_model(tmp_path)
    out = tmp_path / "out.json"
    if command == "stored":
        # a tolerance certify stored before it checked one
        doc = json.loads(plan.read_text())
        doc["certificate"]["epsilon"] = value
        plan.write_text(manifest.canonical_json(doc))
        spellings = [("select", plan, "--latency-ms", "1.0")]
    else:
        argv = {"certify": ("certify", tmp_path / "model.json",
                            "--profiles", "2", "--calib-size", 16,
                            "--out", out),
                "select": ("select", plan, "--latency-ms", "1.0"),
                "report": ("report", plan, "--out", out)}[command]
        # a bare negative number is a value, as is the = form
        spellings = [(*argv, f"--epsilon={value}"),
                     (*argv, "--epsilon", value)]
    for argv in spellings:
        code, stdout, err = _cli_output(*argv)
        assert (code, stdout) == (cli.EXIT_ERROR, "")
        assert err == f"error: epsilon must be finite and >= 0, got " \
            f"{float(value)!r}\n"
        assert not out.exists()


def test_bare_negative_budget_reaches_the_budget_check(tmp_path):
    plan = _planned_small_model(tmp_path)
    code, stdout, err = _cli_output("select", plan, "--latency-ms", "-1e3")
    assert (code, stdout) == (cli.EXIT_ERROR, "")
    assert err == "error: latency_target must be positive and finite\n"


@pytest.mark.parametrize("steps", ["-3", "0"])
def test_train_stop_after_must_be_positive(tmp_path, steps):
    out = tmp_path / "run"
    code, stdout, err = _cli_output("train", "--out", out,
                                    "--stop-after", steps)
    assert (code, stdout) == (cli.EXIT_ERROR, "")
    assert err == f"error: --stop-after must be at least 1, got {steps}\n"
    assert not out.exists()


def test_bad_train_configs_exit_1_with_a_message(tmp_path):
    for data, message in (({"stepz": 3}, "unknown config keys: stepz"),
                          ({"use_soft_masks": False},
                           "unknown config keys: use_soft_masks"),
                          ({"weights": {"isotonic": 0.1}},
                           "bad loss weights"),
                          ({"curriculum_frac": 0.5},
                           "unknown config keys: curriculum_frac"),
                          ({"weights": {"budget": 0.3}},
                           "bad loss weights"),
                          ({"hidden": 5}, "unknown config keys: hidden"),
                          ({"log_every": 0},
                           "bad config: log_every must be an integer >= 1"),
                          ({"lr": "x"},
                           "bad config: lr must be a positive number"),
                          ({"momentum": None},
                           "unknown config keys: momentum"),
                          ({"ema_decay": "a"},
                           "unknown config keys: ema_decay"),
                          ({"classes": 1}, "unknown config keys: classes"),
                          ({"train_bits": 40},
                           "bad config: train_bits must be null or an "
                           "integer in [2, 32], got 40"),
                          ({"weights": {"drift_cap": 1e308}, "steps": 2},
                           "non-finite loss terms")):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        code, _, err = _cli_output("train", "--out", tmp_path / "run",
                                   "--config", config)
        assert code == cli.EXIT_ERROR
        assert message in err
        assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_resumed_training_matches_an_uninterrupted_run(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"steps": 60}))
    whole, paused, resumed = (tmp_path / n for n in (
        "whole", "paused", "resumed"))
    code, out_whole, _ = _cli_output("train", "--out", whole,
                                     "--config", config)
    assert code == cli.EXIT_OK
    assert _cli("train", "--out", paused, "--config", config,
                "--stop-after", 20) == cli.EXIT_OK
    code, out_resumed, _ = _cli_output(
        "train", "--out", resumed, "--config", config,
        "--resume", paused / "checkpoint.npz")
    assert code == cli.EXIT_OK
    assert out_resumed.replace(str(resumed), "OUT") == \
        out_whole.replace(str(whole), "OUT")
    for name in ("model.json", "metrics.csv"):
        assert (resumed / name).read_bytes() == (whole / name).read_bytes()
    with np.load(whole / "checkpoint.npz") as a, \
            np.load(resumed / "checkpoint.npz") as b:
        assert a.files == b.files
        for key in a.files:
            assert np.array_equal(a[key], b[key]), key


def _refused_resume(tmp_path, config, checkpoint, *extra):
    """stderr of a resume that must exit 1 with one line and create no
    output directory."""
    run = tmp_path / "run"
    code, out, err = _cli_output("train", "--out", run, "--config", config,
                                 "--resume", checkpoint, *extra)
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (run / "model.json").exists()
    assert not run.exists()
    return err


def test_resume_refuses_a_soft_mask_checkpoint(tmp_path):
    # the trainer with Gumbel soft rank masks wrote l{i}_mask arrays and
    # recorded no config digest
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"steps": 20}))
    assert _cli("train", "--out", tmp_path / "old", "--config", config,
                "--stop-after", 10) == cli.EXIT_OK
    with np.load(tmp_path / "old" / "checkpoint.npz") as zf:
        arrays = {key: zf[key] for key in zf.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    del meta["config_digest"]
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
    arrays["l0_mask"] = np.zeros(16)
    stale = tmp_path / "stale.npz"
    np.savez(stale, **arrays)
    err = _refused_resume(tmp_path, config, stale)
    assert err.startswith("error: cannot resume: checkpoint records no "
                          "config digest")


def test_resume_refuses_a_checkpoint_of_another_config(tmp_path):
    paused, other = tmp_path / "paused.json", tmp_path / "other.json"
    paused.write_text(json.dumps({"steps": 60}))
    other.write_text(json.dumps({"steps": 40, "lr": 0.5}))
    assert _cli("train", "--out", tmp_path / "old", "--config", paused,
                "--stop-after", 20) == cli.EXIT_OK
    err = _refused_resume(tmp_path, other,
                          tmp_path / "old" / "checkpoint.npz")
    assert err.startswith("error: cannot resume: checkpoint was written "
                          "under config ")


def test_resume_refuses_a_checkpoint_of_another_seed(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"steps": 60}))
    assert _cli("train", "--out", tmp_path / "old", "--config", config,
                "--stop-after", 20) == cli.EXIT_OK
    err = _refused_resume(tmp_path, config,
                          tmp_path / "old" / "checkpoint.npz", "--seed", 5)
    assert err == "error: cannot resume: checkpoint was written at seed " \
        "0, not this run's seed 5\n"


def _corrupt_checkpoint(path, how):
    """Rewrite a checkpoint in place: cut short, emptied, with a meta
    record of the wrong shape, or with one base64 character of the stored
    model's first payload changed."""
    data = path.read_bytes()
    if how == "truncated":
        path.write_bytes(data[:min(20000, len(data) // 2)])
        return
    if how == "empty":
        path.write_bytes(b"")
        return
    with np.load(path) as zf:
        arrays = {key: zf[key] for key in zf.files}
    if how == "meta-list":
        meta = json.loads(bytes(arrays["meta"]).decode())
        arrays["meta"] = np.frombuffer(json.dumps([meta]).encode(),
                                       np.uint8)
    else:
        model = bytearray(arrays["model"].tobytes())
        at = model.index(b'"data": "') + len(b'"data": "')
        model[at] = ord("B") if model[at] == ord("A") else ord("A")
        arrays["model"] = np.frombuffer(bytes(model), np.uint8)
    np.savez(path, **arrays)


@pytest.mark.parametrize("how", ["truncated", "empty", "meta-list",
                                 "model-byte"])
def test_resume_from_a_damaged_checkpoint_exits_1(tmp_path, how):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"steps": 20}))
    assert _cli("train", "--out", tmp_path / "old", "--config", config,
                "--stop-after", 10) == cli.EXIT_OK
    ckpt = tmp_path / "old" / "checkpoint.npz"
    _corrupt_checkpoint(ckpt, how)
    err = _refused_resume(tmp_path, config, ckpt)
    assert err.startswith("error: cannot resume: ")
    if how == "model-byte":
        assert err == "error: cannot resume: payload checksum mismatch\n"


@pytest.mark.parametrize("name", ["cut.npz", "empty.npz", "array.npy"])
def test_damaged_calibration_file_exits_1(tmp_path, name):
    model, calib = tmp_path / "model.json", tmp_path / name
    _small_model(model)
    if name == "array.npy":
        np.save(calib, np.zeros((4, 8)))
    else:
        np.savez(calib, x=np.zeros((4, 8)))
        calib.write_bytes(calib.read_bytes()[:100 if name == "cut.npz" else 0])
    code, out, err = _cli_output("certify", model, "--profiles", "2",
                                 "--calib", calib, "--out",
                                 tmp_path / "cert.json")
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert err.startswith("error: cannot load calibration inputs: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "cert.json").exists()


def test_certify_out_writes_one_temporary_file_and_one_rename(
        tmp_path, monkeypatch):
    model, out = tmp_path / "model.json", tmp_path / "cert.json"
    _small_model(model)
    made, moved, synced = [], [], []
    real_mkstemp, real_replace, real_fsync = \
        tempfile.mkstemp, os.replace, os.fsync

    def mkstemp(*args, **kwargs):
        fd, name = real_mkstemp(*args, **kwargs)
        made.append(name)
        return fd, name

    def replace(src, dst):
        moved.append((src, dst))
        real_replace(src, dst)

    def fsync(fd):
        synced.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(tempfile, "mkstemp", mkstemp)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "fsync", fsync)
    assert _cli("certify", model, "--profiles", "2", "--calib-size", 16,
                "--out", out) == cli.EXIT_OK
    assert len(made) == 1
    assert moved == [(made[0], str(out))]
    # the file, then the directory that holds the rename
    assert len(synced) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["cert.json", "model.json"]
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(os.stat(out).st_mode) == 0o666 & ~umask


def test_failed_verification_keeps_the_original(tmp_path, monkeypatch):
    model = tmp_path / "model.json"
    _small_model(model)
    before = model.read_bytes()
    monkeypatch.setattr(manifest, "verify_manifest",
                        lambda *a, **kw: ["planted problem"])
    code, out, err = _cli_output("certify", model, "--profiles", "2",
                                 "--calib-size", 16)
    assert code == cli.EXIT_ERROR
    assert "@@ verify problems=1" in out and "planted problem" in err
    assert model.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


def test_certify_in_place_publishes_one_file(tmp_path):
    model = tmp_path / "model.json"
    _small_model(model)
    code, out, _ = _cli_output("certify", model, "--profiles", "2",
                               "--calib-size", 16)
    assert code == cli.EXIT_OK
    sha = hashlib.sha256(model.read_bytes()).hexdigest()
    assert f"@@ manifest path={model} sha256={sha}\n" in out
    assert manifest.verify_manifest(str(model)) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


def _relu_stack(rng, shapes):
    """Raw relu stack with an identity head: W ~ N(0,1)/sqrt(fan_in) and
    b ~ 0.1 N(0,1) drawn in layer order; shapes are (fan_out, fan_in, ...)
    and fan_in is the product of all but the first dimension."""
    weights, biases = [], []
    for shape in shapes:
        weights.append(rng.standard_normal(shape)
                       / np.sqrt(np.prod(shape[1:])))
        biases.append(0.1 * rng.standard_normal(shape[0]))
    acts = [network.RELU] * (len(shapes) - 1) + [network.IDENTITY]
    return weights, biases, acts


def _write_wide_raw(path):
    # the 64->96->96->96->10 model the benchmark's wide workload draws at
    # seed 5, whose full-rank reconstruction a Gram-matrix SVD could not
    # bring under decompose's 1e-7 limit
    sizes = (64, 96, 96, 96, 10)
    weights, biases, acts = _relu_stack(np.random.default_rng(5),
                                        list(zip(sizes[1:], sizes)))
    manifest.write_manifest(manifest.raw_model_to_doc(
        weights, biases, acts, seed=5, source="test"), path)


def test_decompose_wide_dense_model(tmp_path):
    raw = tmp_path / "raw.json"
    _write_wide_raw(raw)
    assert _cli("decompose", raw, "--out", tmp_path / "el.json") \
        == cli.EXIT_OK


def _edited_copy(src, dst, edit):
    """Copy the manifest at src to dst with edit applied to its JSON form."""
    doc = json.loads(src.read_text())
    edit(doc)
    dst.write_text(manifest.canonical_json(doc))
    return dst


def _refiled(src, dst, layer, kind):
    """Copy the raw manifest at src to dst with one layer's kind changed."""
    return _edited_copy(src, dst, lambda doc: doc["topology"]["layers"][
        layer].update(kind=kind))


def _with_nan(src, dst, layer, name):
    """Copy the manifest at src to dst with a NaN as the first entry of one
    layer's payload, its byte count and checksum intact and an elastic
    model's fingerprint recomputed: what a writer without the finite
    check would publish."""
    doc = manifest.read_manifest(src)
    arr = doc["model"]["layers"][layer][name]
    arr.flat[0] = np.nan
    text = json.loads(src.read_text())
    if "fingerprint" in text:
        text["fingerprint"] = certificate.network_fingerprint(
            manifest.net_from_doc(doc, check_fingerprint=False))
    raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    text["model"]["layers"][layer][name].update(
        data=base64.b64encode(raw).decode("ascii"),
        sha256=hashlib.sha256(raw).hexdigest())
    dst.write_text(manifest.canonical_json(text))
    return dst


def test_decompose_refusals_exit_1_and_write_nothing(tmp_path, monkeypatch):
    raw, el = tmp_path / "raw.json", tmp_path / "el.json"
    weights, biases, acts = _relu_stack(np.random.default_rng(0),
                                        [(4, 3, 3, 3), (2, 4, 1, 1)])
    manifest.write_manifest(manifest.raw_model_to_doc(
        weights, biases, acts), raw)
    dense, empty = tmp_path / "dense.json", tmp_path / "empty.json"
    manifest.write_manifest(manifest.raw_model_to_doc(*_relu_stack(
        np.random.default_rng(1), [(4, 3), (2, 4)])), dense)
    manifest.write_manifest(manifest.raw_model_to_doc(
        [np.ones((4, 3)), np.ones((0, 4))]), empty)

    def faulty(name, weights, **extra):
        path = tmp_path / name
        manifest.write_manifest(manifest.raw_model_to_doc(weights, **extra),
                                path)
        return path
    dense_eyes = [np.eye(4, 3), np.eye(2, 4)]
    # each file is refused as it is read, before any layer is factorized,
    # and fails verification: a layer fault names its index, and a
    # non-finite payload is refused as its bytes decode
    cases = (
        (faulty("long_bias.json", dense_eyes, biases=[np.ones(5), None]),
         "layer 0: bias must be 1-D with one entry per output",
         "raw model: "),
        (faulty("swish.json", dense_eyes, activations=["swish", "identity"]),
         "layer 0: unknown activation 'swish'", "raw model: "),
        (faulty("even_kernel.json", [np.ones((4, 3, 2, 2))]),
         "layer 0: same-padded conv needs odd kernel sides", "raw model: "),
        (faulty("skip_3_to_4.json", dense_eyes, residuals=[True, False]),
         "layer 0: skip connection needs matching width", "raw model: "),
        (faulty("widths_4_5.json", [np.eye(4, 3), np.eye(2, 5)]),
         "layer 1: input width differs from the previous output width",
         "raw model: "),
        (_refiled(raw, tmp_path / "conv_as_dense.json", 1, "dense"),
         "layer 1: a dense weight must be 2-D, got shape (2, 4, 1, 1)",
         "raw model: "),
        (_refiled(dense, tmp_path / "dense_as_conv.json", 1, "conv"),
         "layer 1: a conv weight must be 4-D, got shape (2, 4)",
         "raw model: "),
        (faulty("dense_then_conv.json",
                [np.eye(4, 3), np.ones((2, 4, 3, 3))]),
         "layer 1: mixing conv and dense blocks is not supported",
         "raw model: "),
        (faulty("conv_then_dense.json",
                [np.ones((4, 3, 3, 3)), np.eye(2, 4)]),
         "layer 1: mixing conv and dense blocks is not supported",
         "raw model: "),
        (_refiled(dense, tmp_path / "lstm.json", 0, "lstm"),
         "layer 0: unknown layer kind 'lstm'", "raw model: "),
        (empty, "layer 1: the weight of shape (0, 4) is empty",
         "raw model: "),
        (_edited_copy(dense, tmp_path / "short.json",
                      lambda doc: doc["model"]["layers"].pop()),
         "topology and model layer counts differ", "raw model: "),
        (_with_nan(dense, tmp_path / "nan.json", 1, "weight"),
         "payload holds a non-finite value", ""),
    )
    for path, message, section in cases:
        assert _cli_output("decompose", path, "--out", el) == (
            cli.EXIT_ERROR, "", f"error: {message}\n"), path
        assert not el.exists()
        assert manifest.verify_manifest(str(path)) == [section + message]
    # a limit below the rounding error of every reconstruction
    monkeypatch.setattr(cli, "_DECOMPOSE_RECON_LIMIT", 0.0)
    code, out, err = _cli_output("decompose", raw, "--out", el)
    assert code == cli.EXIT_ERROR and out.count("@@ layer ") == 2
    worst = max(float(_sentinel(line, "layer")["recon_rel"])
                for line in out.splitlines())
    assert worst > 0.0
    assert err == (f"error: full-rank reconstruction error {worst!r} "
                   f"exceeds 0.0\n")
    assert not el.exists()


def test_plan_builds_ledgers_twice_and_report_none(tmp_path, monkeypatch):
    raw, el, cert, plan = (tmp_path / n for n in (
        "raw.json", "el.json", "cert.json", "plan.json"))
    _write_wide_raw(raw)
    assert _cli("decompose", raw, "--out", el) == cli.EXIT_OK
    assert _cli("certify", el, "--profiles", "8,16:8", "--epsilon", "1.0",
                "--out", cert, "--calib-size", 16) == cli.EXIT_OK
    calls, at_verify = [], []
    ledgers, proxy = certificate.ledgers, certificate.lipschitz_proxy
    verify = manifest.verify_manifest

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    def verify_counted(*args, **kwargs):
        at_verify.append(calls.count("ledgers"))
        return verify(*args, **kwargs)

    monkeypatch.setattr(certificate, "ledgers", counted(ledgers, "ledgers"))
    monkeypatch.setattr(manifest, "verify_manifest", verify_counted)
    # one pass prices the planner's menus; one gives the lattice its
    # bounds and the certificate section its rows
    assert _cli("plan", cert, "--out", plan) == cli.EXIT_OK
    assert at_verify == [2]
    calls.clear()
    at_verify.clear()
    monkeypatch.setattr(certificate, "lipschitz_proxy",
                        counted(proxy, "lipschitz_proxy"))
    assert _cli("report", plan) == cli.EXIT_OK
    # report builds no ledger; verifying the manifest it read recomputes
    # the sensitivities once
    assert calls == ["lipschitz_proxy"] and at_verify == [0]


def test_report_runs_one_forward_per_level_and_one_full(tmp_path,
                                                        monkeypatch):
    plan = _planned_small_model(tmp_path)
    levels = len(manifest.lattice_from_doc(
        manifest.read_manifest(plan)["lattice"]).profiles)
    profiles, forward = [], network.forward

    def counted(net, x, profile=None):
        profiles.append(profile)
        return forward(net, x, profile)

    monkeypatch.setattr(network, "forward", counted)
    assert _cli("report", plan) == cli.EXIT_OK
    assert len(profiles) == levels + 1 and levels >= 2
    assert profiles.count(None) == 1


def _write_conv_bottleneck(tmp_path):
    """Raw 3x3 8->16->16->8 stack, then a 1x1 8->4 bottleneck whose input
    unfolding has rank 4 < c_in = 8, and 16 calibration maps of 8x8."""
    w, b, _ = _relu_stack(np.random.default_rng(0),
                          [(16, 8, 3, 3), (16, 16, 3, 3), (8, 16, 3, 3)])
    w2, b2, _ = _relu_stack(np.random.default_rng(0), [(4, 8, 1, 1)])
    raw, calib = tmp_path / "raw.json", tmp_path / "calib.npz"
    manifest.write_manifest(manifest.raw_model_to_doc(
        w + w2, b + b2, [network.RELU] * 3 + [network.IDENTITY]), raw)
    np.savez(calib, x=np.random.default_rng(1).standard_normal((16, 8, 8, 8)))
    return raw, calib


def _certified_conv_bottleneck(tmp_path):
    """The bottleneck stack decomposed and certified at its 8x8 maps;
    returns the calibration file and the certified manifest."""
    raw, calib = _write_conv_bottleneck(tmp_path)
    el, cert = tmp_path / "el.json", tmp_path / "cert.json"
    assert _cli("decompose", raw, "--out", el) == cli.EXIT_OK
    assert _cli("certify", el, "--profiles", "2,4:8", "--epsilon", "1.0",
                "--out", cert, "--calib", calib) == cli.EXIT_OK
    return calib, cert


def test_conv_bottleneck_decomposes_and_certifies(tmp_path):
    _, cert = _certified_conv_bottleneck(tmp_path)
    assert manifest.verify_manifest(str(cert)) == []


def test_conv_plan_from_the_synthesized_device_csv_matches_plain_plan(
        tmp_path):
    _, cert = _certified_conv_bottleneck(tmp_path)
    _plans_alike_from_the_device_csv(tmp_path, cert)


def test_conv_model_plans_selects_and_audits(tmp_path, monkeypatch):
    calib, cert = _certified_conv_bottleneck(tmp_path)
    plan = tmp_path / "plan.json"
    # plan reads no inputs: conv FLOPs take the map size certify recorded
    code, _, err = _cli_output("plan", cert, "--out", plan, "--calib", calib)
    assert code == cli.EXIT_ERROR and err.count("\n") == 1
    assert "unrecognized arguments: --calib" in err and not plan.exists()
    priced, layer_cost = set(), cost.layer_cost

    def recorded(layer, k, q=None, spatial=None):
        priced.add(spatial)
        return layer_cost(layer, k, q, spatial)

    monkeypatch.setattr(cost, "layer_cost", recorded)
    code, out, _ = _cli_output("plan", cert, "--out", plan)
    assert code == cli.EXIT_OK and "@@ verify problems=0" in out
    assert priced == {(8, 8)}
    assert manifest.verify_manifest(str(plan)) == []
    doc = manifest.read_manifest(plan)
    assert doc["calibration"]["spatial"] == [8, 8]
    assert "spatial" not in doc["lattice"]
    lattice = manifest.lattice_from_doc(doc["lattice"])
    assert _cli("select", plan, "--latency-ms",
                repr(lattice.predicted_latency[1]), "--epsilon",
                repr(lattice.drift_bound[1])) == cli.EXIT_OK
    assert _cli("audit", plan) == cli.EXIT_OK


def test_plan_refuses_a_conv_manifest_without_a_map_size(tmp_path):
    # a conv manifest certified before the calibration section recorded
    # the map size
    _, cert = _certified_conv_bottleneck(tmp_path)
    plan = tmp_path / "plan.json"
    doc = json.loads(cert.read_text())
    del doc["calibration"]["spatial"]
    cert.write_text(manifest.canonical_json(doc))
    code, out, err = _cli_output("plan", cert, "--out", plan)
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert err == ("error: calibration statistics record no feature-map "
                   "size (an older certify wrote them); run certify "
                   "again\n")
    assert not plan.exists()


def test_report_refuses_maps_of_another_size(tmp_path):
    calib, cert = _certified_conv_bottleneck(tmp_path)
    plan, small, csv = (tmp_path / n for n in ("plan.json", "small.npz",
                                               "report.csv"))
    assert _cli("plan", cert, "--out", plan) == cli.EXIT_OK
    np.savez(small, x=np.random.default_rng(2).standard_normal(
        (4, 8, 6, 6)))
    code, out, err = _cli_output("report", plan, "--calib", small,
                                 "--out", csv)
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert err == ("error: inputs are 6x6 maps, but the lattice's bounds "
                   "hold at the certified 8x8\n")
    assert not csv.exists()
    assert _cli("report", plan, "--calib", calib) == cli.EXIT_OK


def test_conv_report_accuracy_is_top1_agreement_over_channels(tmp_path):
    calib, cert = _certified_conv_bottleneck(tmp_path)
    plan = tmp_path / "plan.json"
    assert _cli("plan", cert, "--out", plan) == cli.EXIT_OK
    code, out, err = _cli_output("report", plan, "--calib", calib)
    assert (code, err) == (cli.EXIT_OK, "")
    doc = manifest.read_manifest(plan)
    net = manifest.net_from_doc(doc)
    with np.load(calib) as data:
        xs = data["x"]
    z_full = network.forward(net, xs, None).logits
    rows = _sentinels(out, "row")
    profiles = manifest.lattice_from_doc(doc["lattice"]).profiles
    assert [r["profile"] for r in rows] == [p.name for p in profiles]
    # the argmax over the last axis picks a map column, not a class, and
    # disagrees with the class argmax at some level
    by_column = []
    for prof, row in zip(profiles, rows):
        z = network.forward(net, xs, prof.pairs).logits
        assert float(row["accuracy_percent"]) == float(100.0 * np.mean(
            np.argmax(z, 1) == np.argmax(z_full, 1)))
        by_column.append(float(100.0 * np.mean(
            np.argmax(z, -1) == np.argmax(z_full, -1))))
    assert by_column != [float(r["accuracy_percent"]) for r in rows]


def test_plan_refuses_an_uncertified_ledger(tmp_path):
    model, sampled, plan = (tmp_path / n for n in (
        "model.json", "sampled.json", "plan.json"))
    _small_model(model)
    assert _cli("certify", model, "--mode", "poweriter", "--profiles",
                "2,3:8", "--epsilon", "1.0", "--out", sampled,
                "--calib-size", 16) == cli.EXIT_OK
    before = sampled.read_bytes()
    for out in (("--out", plan), ()):
        code, stdout, err = _cli_output("plan", sampled, *out)
        assert (code, stdout) == (cli.EXIT_ERROR, "")
        assert err == ("error: the poweriter ledger is not certified; "
                       "run certify --mode conservative\n")
    assert not plan.exists()
    assert sampled.read_bytes() == before


def _edit_json(*path, edit):
    """A plan.json edit applying edit to the node at path."""
    def apply(plan):
        doc = json.loads(plan.read_text())
        node = doc
        for key in path:
            node = node[key]
        edit(node)
        plan.write_text(manifest.canonical_json(doc))
    return apply


def _swap_stored_pairs(profiles):
    profiles["tiny"]["pairs"], profiles["med"]["pairs"] = \
        profiles["med"]["pairs"], profiles["tiny"]["pairs"]


def _sampled_ledger(plan):
    """plan's lattice beside a sampled (poweriter) ledger of its levels,
    carrying that ledger's bounds, as a planner that read sampled ledgers
    wrote it."""
    doc = manifest.read_manifest(plan)
    net = manifest.net_from_doc(doc)
    stats = manifest.stats_from_doc(doc["calibration"])
    lattice = manifest.lattice_from_doc(doc["lattice"])
    named = {prof.name: prof.pairs for prof in lattice.profiles}
    xs = np.random.default_rng(5).standard_normal((16, 8))
    ledgers = certificate.ledgers(net, stats, named.values(),
                                  certificate.SAMPLED, xs)
    doc["certificate"] = manifest.certificate_section(
        stats, named, ledgers, certificate.SAMPLED, epsilon=1.0)
    doc["lattice"] = manifest.lattice_to_doc(dataclasses.replace(
        lattice, drift_bound=[certificate.ledger_total(r) for r in ledgers]))
    manifest.write_manifest(doc, plan)


def _ledger_of_max_as_tiny(plan):
    """plan whose certificate entry tiny carries max's pairs and ledger,
    and whose lattice gives tiny max's bound."""
    doc = json.loads(plan.read_text())
    entries = doc["certificate"]["profiles"]
    entries["tiny"] = entries["max"]
    doc["lattice"]["drift_bound"][0] = entries["max"]["delta_hat"]
    plan.write_text(manifest.canonical_json(doc))


_FAILS = "manifest fails verification: lattice profile"


@pytest.mark.parametrize("edit, message", [
    (_edit_json("lattice", "drift_bound",
                edit=lambda bounds: bounds.__setitem__(0, "0.001")),
     f"{_FAILS} tiny: drift bound disagrees with the certificate ledger"),
    (_edit_json("lattice", "weight_bytes",
                edit=lambda sizes: sizes.__setitem__(0, sizes[0] + 8)),
     f"{_FAILS} tiny: weight_bytes 22 != recomputed 14"),
    (_edit_json("profiles", edit=_swap_stored_pairs),
     f"{_FAILS} tiny: pairs disagree with its stored profile; lattice "
     f"profile med: pairs disagree with its stored profile; certificate "
     f"med: pairs disagree with its stored profile; certificate tiny: "
     f"pairs disagree with its stored profile"),
    (_ledger_of_max_as_tiny,
     "manifest fails verification: certificate tiny: pairs disagree with "
     "its stored profile"),
    (_edit_json("lattice", "profiles", 0,
                edit=lambda level: level.update(name="small")),
     f"{_FAILS} small: not among the stored profiles"),
    (_sampled_ledger,
     "the poweriter ledger is not certified; run certify --mode "
     "conservative"),
], ids=["drift-bound", "weight-bytes", "swapped-pairs",
        "ledger-of-another-profile", "renamed-level", "sampled-ledger"])
def test_readers_refuse_a_lattice_that_fails_verification(tmp_path, edit,
                                                          message):
    plan = _planned_small_model(tmp_path)
    select = ("select", plan, "--latency-ms", "1e9", "--epsilon", "1e9")
    assert _cli(*select) == cli.EXIT_OK
    edit(plan)
    for argv in (select, ("report", plan), ("audit", plan)):
        code, stdout, err = _cli_output(*argv)
        assert (code, stdout, err) == (
            cli.EXIT_ERROR, "", f"error: {message}\n"), argv[0]


def test_report_out_writes_the_rows_it_prints(tmp_path):
    plan, table = _planned_small_model(tmp_path), tmp_path / "report.csv"
    code, out, err = _cli_output("report", plan, "--out", table)
    assert (code, err) == (cli.EXIT_OK, "")
    assert f"@@ csv path={table}\n" in out
    printed = _sentinels(out, "row")
    with open(table, newline="") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == cli._REPORT_COLUMNS
        written = list(reader)
    assert len(written) == len(printed) == 3
    for row, line in zip(written, printed):
        assert row == line
        for key in ("accuracy_percent", "predicted_latency_ms",
                    "drift_bound", "coverage_percent", "violation_percent"):
            assert float(row[key]) == float(line[key])


@pytest.mark.parametrize("flags", [(), ("--latency-ms", "1,100")],
                         ids=["auto", "latency"])
def test_device_table_without_a_menu_entry_exits_1(tmp_path, flags):
    # the small model's layer 1 menu holds rank 1 at 4 bits; the full
    # profile, which prices the automatic budgets, does not
    _planned_small_model(tmp_path)
    cert, out = tmp_path / "cert.json", tmp_path / "out.json"
    table = _device_csv(tmp_path, cert)
    lines = table.read_text().splitlines(keepends=True)
    table.write_text("".join(line for line in lines
                             if not line.startswith("1,1,4,")))
    code, stdout, err = _cli_output("plan", cert, "--device-csv", table,
                                    "--out", out, *flags)
    assert (code, stdout) == (cli.EXIT_ERROR, "")
    assert err == ("error: device table has no price for layer 1 at rank "
                   "1, 4 bits\n")
    assert not out.exists()


def _refused_inputs(tmp_path):
    """Beside _planned_small_model's files: a plan of a ledger certified
    without epsilon, a 2-step training run, a conv model, the conv
    bottleneck decomposed and planned, a JSON-array config and calibration
    files whose x is 0-d, holds nan or inf, or lacks the batch axis (one
    8-wide row, one 8-channel 8x8 map); returns them by name."""
    model = tmp_path / "model.json"
    paths = {name: tmp_path / name for name in (
        "noeps.json", "noeps_plan.json", "conv.json", "array.json",
        "zero_d.npz", "nan.npz", "inf.npz", "one_d.npz", "three_d.npz")}
    assert _cli("certify", model, "--profiles", "2", "--calib-size", 16,
                "--out", paths["noeps.json"]) == cli.EXIT_OK
    assert _cli("plan", paths["noeps.json"], "--out",
                paths["noeps_plan.json"]) == cli.EXIT_OK
    config = tmp_path / "steps.json"
    config.write_text(json.dumps({"steps": 2}))
    assert _cli("train", "--out", tmp_path / "trained", "--config",
                config) == cli.EXIT_OK
    paths["trained.json"] = tmp_path / "trained" / "model.json"
    conv = elastic.from_conv(np.random.default_rng(0).standard_normal(
        (2, 3, 3, 3)))
    manifest.write_manifest(manifest.network_to_doc(network.Network(
        (network.Block(elastic=conv),))), paths["conv.json"])
    bottleneck = tmp_path / "bottleneck"
    bottleneck.mkdir()
    _, conv_cert = _certified_conv_bottleneck(bottleneck)
    paths["conv_el.json"] = bottleneck / "el.json"
    paths["conv_plan.json"] = bottleneck / "plan.json"
    assert _cli("plan", conv_cert, "--out",
                paths["conv_plan.json"]) == cli.EXIT_OK
    paths["array.json"].write_text("[1, 2]")
    np.savez(paths["zero_d.npz"], x=np.float64(1.0))
    np.savez(paths["one_d.npz"], x=np.ones(8))
    np.savez(paths["three_d.npz"], x=np.ones((8, 8, 8)))
    for name, bad in (("nan.npz", np.nan), ("inf.npz", -np.inf)):
        x = np.ones((4, 8))
        x[1, 2] = bad
        np.savez(paths[name], x=x)
    return paths


def test_stray_value_errors_exit_1_with_a_message(tmp_path):
    # errors raised below the CLI reach the user as one line, exit 1
    plan = _planned_small_model(tmp_path)
    model, raw = tmp_path / "model.json", tmp_path / "raw.json"
    cert = tmp_path / "cert.json"
    manifest.write_manifest(manifest.raw_model_to_doc([np.eye(3)]), raw)
    empty, short = tmp_path / "empty.csv", tmp_path / "short.csv"
    empty.write_text("")
    short.write_text("layer,rank,bits,latency_ms,energy_mj\n0,1,4,0.5\n")
    out, run = tmp_path / "out.json", tmp_path / "run"
    missing = tmp_path / "missing.json"
    f = _refused_inputs(tmp_path)
    certify = ("certify", model, "--profiles", "2", "--out", out)
    cases = (
        (("certify", model, "--profiles", "0", "--calib-size", 16),
         "bad profile entry '0': rank must be at least 1"),
        (("certify", raw, "--profiles", "2", "--out", out),
         "manifest does not hold a factorized model"),
        (("decompose", model, "--out", out),
         "manifest does not hold a raw model"),
        (("select", plan, "--latency-ms", "-1"),
         "latency_target must be positive and finite"),
        (("plan", plan, "--device-csv", empty, "--out", out),
         "unrecognized device table header"),
        (("plan", plan, "--device-csv", short, "--out", out),
         "device table row '0,1,4,0.5' needs 5 fields"),
        (("report", plan, "--probes", 0),
         "probe count must be at least 1, got 0"),
        ((*certify, "--calib", f["zero_d.npz"]),
         "calibration file holds no inputs"),
        (("report", plan, "--calib", f["zero_d.npz"], "--out", out),
         "calibration file holds no inputs"),
        ((*certify, "--calib", f["nan.npz"]),
         "calibration inputs must be finite"),
        (("report", plan, "--calib", f["nan.npz"], "--out", out),
         "calibration inputs must be finite"),
        ((*certify, "--calib", f["inf.npz"]),
         "calibration inputs must be finite"),
        (("report", plan, "--calib", f["inf.npz"], "--out", out),
         "calibration inputs must be finite"),
        ((*certify, "--calib", f["one_d.npz"]),
         "calibration x must be 2-D with a leading batch axis, got shape "
         "(8,)"),
        (("report", plan, "--calib", f["one_d.npz"], "--out", out),
         "calibration x must be 2-D with a leading batch axis, got shape "
         "(8,)"),
        (("certify", f["conv_el.json"], "--profiles", "2", "--calib",
          f["three_d.npz"], "--out", out),
         "calibration x must be 4-D with a leading batch axis, got shape "
         "(8, 8, 8)"),
        (("report", f["conv_plan.json"], "--calib", f["three_d.npz"],
          "--out", out),
         "calibration x must be 4-D with a leading batch axis, got shape "
         "(8, 8, 8)"),
        (("plan", model, "--out", out),
         "manifest carries no calibration statistics; run certify first"),
        (("plan", f["trained.json"], "--out", out),
         "manifest carries no certificate; run certify first"),
        (("select", cert, "--latency-ms", "1"),
         "manifest carries no profile lattice; run plan first"),
        (("audit", cert),
         "manifest carries no profile lattice; run plan first"),
        (("select", f["noeps_plan.json"], "--latency-ms", "1"),
         "no epsilon stored in the certificate; pass --epsilon"),
        (("select", plan), "give at least one of --latency-ms, --bytes, "
                           "--energy-mj"),
        (("certify", model, "--profiles", "x", "--calib-size", 16,
          "--out", out), "bad profile entry 'x'"),
        (("certify", model, "--profiles", ",", "--calib-size", 16,
          "--out", out), "--profiles names no profiles"),
        (("certify", model, "--calib-size", 16, "--out", out),
         "manifest stores no profiles; pass --profiles"),
        (("certify", f["conv.json"], "--profiles", "1", "--out", out),
         "synthesized probes cover dense stacks only; conv models need "
         "--calib"),
        # a stored factor holding NaN, its fingerprint consistent: the
        # certificate once blamed the calibration inputs' norms
        (("certify", _with_nan(model, tmp_path / "nan.json", 0, "core"),
          "--profiles", "1", "--out", out),
         "payload holds a non-finite value"),
        (("train", "--out", run, "--config", missing),
         f"cannot read config: [Errno 2] No such file or directory: "
         f"'{missing}'"),
        (("train", "--out", run, "--config", f["array.json"]),
         "config must be a JSON object"),
    )
    for argv, message in cases:
        code, stdout, err = _cli_output(*argv)
        assert (code, stdout, err) == (cli.EXIT_ERROR, "",
                                       f"error: {message}\n"), argv
    assert not out.exists() and not run.exists()


def test_reruns_byte_identical_across_blas_threads(tmp_path):
    raw = tmp_path / "raw.json"
    _write_wide_raw(raw)
    written = {}
    for threads in ("1", "2"):
        d = tmp_path / threads
        d.mkdir()
        for argv in (("decompose", raw, "--out", d / "el.json"),
                     ("certify", d / "el.json", "--profiles", "8,16:8",
                      "--epsilon", "1.0", "--out", d / "cert.json")):
            proc = _run_python("-m", "elastiq.cli", *map(str, argv),
                               OPENBLAS_NUM_THREADS=threads,
                               OMP_NUM_THREADS=threads)
            assert proc.returncode == cli.EXIT_OK, proc.stderr
        written[threads] = {p.name: p.read_bytes()
                            for p in sorted(d.iterdir())}
    assert written["1"] == written["2"]


def test_unknown_layer_kind_exits_1_with_a_message(tmp_path):
    model = tmp_path / "model.json"
    _small_model(model)
    doc = json.loads(model.read_text())
    doc["topology"]["layers"][0]["kind"] = "dense_cp"
    model.write_text(manifest.canonical_json(doc))
    code, out, err = _cli_output("certify", model, "--profiles", "2,3:8",
                                 "--calib-size", 16)
    assert code == cli.EXIT_ERROR
    assert "unknown layer kind 'dense_cp'" in err
    assert "Traceback" not in err and out == ""


def test_tied_layer_group_exits_1_with_a_message(tmp_path):
    model, out = tmp_path / "model.json", tmp_path / "out.json"
    _small_model(model)
    doc = json.loads(model.read_text())
    doc["topology"]["layers"][0]["group_id"] = "g"
    model.write_text(manifest.canonical_json(doc))
    code, stdout, err = _cli_output("certify", model, "--profiles", "2,3:8",
                                    "--calib-size", 16, "--out", out)
    assert (code, stdout) == (cli.EXIT_ERROR, "")
    assert err == "error: tied-budget layer groups are not supported\n"
    assert not out.exists()


def test_rank_windows_are_refused(tmp_path):
    # every manifest written before layers lost their rank windows names
    # k_min and k_max in its topology
    model, out = tmp_path / "model.json", tmp_path / "out.json"
    _small_model(model)
    doc = json.loads(model.read_text())
    doc["topology"]["layers"][0].update(k_min=1, k_max=6)
    model.write_text(manifest.canonical_json(doc))
    code, stdout, err = _cli_output("certify", model, "--profiles", "2",
                                    "--calib-size", 16, "--out", out)
    assert (code, stdout) == (cli.EXIT_ERROR, "")
    assert err == "error: per-layer rank windows (k_min, k_max) are not " \
        "supported\n"
    raw = tmp_path / "raw.json"
    manifest.write_manifest(manifest.raw_model_to_doc([np.eye(3)]), raw)
    code, stdout, err = _cli_output("decompose", raw, "--out", out,
                                    "--k-min", 2)
    assert (code, stdout) == (cli.EXIT_ERROR, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "unrecognized arguments: --k-min 2" in err
    assert not out.exists()


def _drop(*path):
    """A document edit deleting the entry at path."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return edit


_CERTIFY = ("certify", "--profiles", "2", "--calib-size", "16")


@pytest.mark.parametrize("argv, source, edit, message", [
    (_CERTIFY, "model.json", _drop("topology", "layers", 0, "activation"),
     "malformed model (KeyError: 'activation')"),
    (_CERTIFY, "model.json", _drop("model", "layers", 0, "u"),
     "malformed model (KeyError: 'u')"),
    (_CERTIFY, "model.json", lambda doc: doc.update(topology=[]),
     "malformed model (TypeError: list indices must be integers or "
     "slices, not str)"),
    (("decompose",), "raw.json", _drop("topology", "layers", 0, "activation"),
     "malformed raw model (KeyError: 'activation')"),
    (("plan",), "cert.json", _drop("calibration", "alpha"),
     "malformed calibration (KeyError: 'alpha')"),
    (_CERTIFY, "cert.json", _drop("profiles", "r2", "pairs"),
     "malformed profiles (KeyError: 'pairs')"),
    (("select", "--latency-ms", "1.0"), "plan.json",
     lambda doc: doc["certificate"].update(epsilon=[1.0]),
     "malformed certificate (TypeError: float() argument must be a string "
     "or a real number, not 'list')"),
    (("decompose",), "raw.json", lambda doc: doc.update(provenance=[]),
     "malformed provenance (AttributeError: 'list' object has no "
     "attribute 'get')"),
    (("plan",), "cert.json", lambda doc: doc.update(certificate=["x"]),
     "malformed certificate (AttributeError: 'list' object has no "
     "attribute 'get')"),
    (("report",), "plan.json", lambda doc: doc.update(certificate=["x"]),
     "malformed certificate (AttributeError: 'list' object has no "
     "attribute 'get')"),
    (("audit",), "plan.json",
     lambda doc: doc["model"]["layers"][0]["u"].update(data=5),
     "malformed payload (TypeError: argument should be a bytes-like object "
     "or ASCII string, not 'int')"),
    (("plan",), "cert.json",
     lambda doc: doc["model"]["layers"][0]["u"].update(bytes=[1]),
     "malformed payload (TypeError: int() argument must be a string, a "
     "bytes-like object or a real number, not 'list')"),
    (("audit",), "plan.json",
     lambda doc: doc["model"]["layers"][0]["u"].update(
         encoding="sidecar", data={"offset": 0, "length": 1}),
     "unsupported payload encoding 'sidecar'"),
], ids=["topology-activation", "model-u", "topology-list", "raw-activation",
        "calibration-alpha", "profile-pairs", "certificate-epsilon",
        "raw-provenance", "certificate-list", "report-certificate-list",
        "payload-data", "payload-bytes", "sidecar-encoding"])
def test_malformed_manifest_exits_1_with_a_message(tmp_path, argv, source,
                                                   edit, message):
    _planned_small_model(tmp_path)
    manifest.write_manifest(manifest.raw_model_to_doc(
        [np.eye(3), np.ones((2, 3))], activations=["relu", "identity"]),
        tmp_path / "raw.json")
    path, out = tmp_path / source, tmp_path / "out.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(manifest.canonical_json(doc))
    # select and audit write no file, so they take no --out
    extra = () if argv[0] in ("select", "audit") else ("--out", out)
    code, stdout, err = _cli_output(argv[0], path, *argv[1:], *extra)
    assert (code, stdout) == (cli.EXIT_ERROR, "")
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_truncated_profile_payloads_fail_verification(tmp_path):
    _planned_small_model(tmp_path)
    cert, out = tmp_path / "cert.json", tmp_path / "out.json"
    doc = json.loads(cert.read_text())
    doc["profiles"]["r2"]["pairs"].pop()
    cert.write_text(manifest.canonical_json(doc))
    assert manifest.verify_manifest(str(cert)) == [
        "profile r2: 1 pairs for 2 layers",
        "certificate r2: pairs disagree with its stored profile"]
    code, stdout, err = _cli_output("certify", cert, "--out", out,
                                    "--calib-size", 16)
    assert (code, stdout) == (cli.EXIT_ERROR, "")
    assert err == "error: profile length does not match the layer count\n"
    assert not out.exists()


def test_stale_profile_payloads_fail_verification(tmp_path):
    # a profile that still carries the factor payloads older manifests
    # stored beside its pairs
    _planned_small_model(tmp_path)
    cert, out = tmp_path / "cert.json", tmp_path / "out.json"
    doc = manifest.read_manifest(cert)
    doc["profiles"]["r3b8"]["layers"] = [
        {"u": np.zeros((6, 3))}, {"u": np.zeros((4, 3))}]
    manifest.write_manifest(doc, cert)
    problem = "profile r3b8: stores layers besides its pairs"
    assert manifest.verify_manifest(str(cert)) == [problem]
    code, stdout, err = _cli_output("certify", cert, "--out", out,
                                    "--calib-size", 16)
    assert code == cli.EXIT_ERROR
    assert "@@ verify problems=1" in stdout
    assert err == (f"verify: {problem}\n"
                   "error: written manifest failed self-verification\n")
    assert not out.exists()


@pytest.mark.parametrize("source, argv, message", [
    ("model.json", ("--profiles", "4:40"),
     "bad profile entry '4:40': bits must lie in [2, 32]"),
    ("model.json", ("--profiles", "4:1"),
     "bad profile entry '4:1': bits must lie in [2, 32]"),
    ("cert.json", (), "stored bits 40 are not None or a width in [2, 32]"),
], ids=["flag-40", "flag-1", "stored-40"])
def test_widths_outside_2_to_32_exit_1(tmp_path, source, argv, message):
    # a flag's width is refused as a bad flag, a stored one as stored
    _planned_small_model(tmp_path)
    path, out = tmp_path / source, tmp_path / "out.json"
    if source == "cert.json":
        doc = json.loads(path.read_text())
        doc["profiles"]["r2"]["pairs"][0] = [2, 40]
        path.write_text(manifest.canonical_json(doc))
    code, stdout, err = _cli_output("certify", path, *argv, "--out", out,
                                    "--calib-size", 16)
    assert (code, stdout, err) == (cli.EXIT_ERROR, "", f"error: {message}\n")
    assert not out.exists()


def test_certify_stores_profiles_in_a_manifest_without_the_section(
        tmp_path):
    model, out = tmp_path / "model.json", tmp_path / "out.json"
    _small_model(model)
    doc = json.loads(model.read_text())
    del doc["profiles"]
    model.write_text(manifest.canonical_json(doc))
    code, _, err = _cli_output("certify", model, "--profiles", "2",
                               "--out", out, "--calib-size", 16)
    assert (code, err) == (cli.EXIT_OK, "")
    assert manifest.read_manifest(out)["profiles"] == {
        "r2": {"pairs": [[2, None], [2, None]]}}


def test_certify_refuses_profiles_on_a_manifest_that_stores_some(tmp_path):
    _planned_small_model(tmp_path)
    cert, out = tmp_path / "cert.json", tmp_path / "out.json"
    code, stdout, err = _cli_output("certify", cert, "--profiles", "2",
                                    "--out", out, "--calib-size", 16)
    assert (code, stdout) == (cli.EXIT_ERROR, "")
    assert err == ("error: manifest already stores profiles; certify them "
                   "without --profiles\n")
    assert not out.exists()


def _defined_options():
    """Every option string the parser defines, but -h/--help."""
    parser = cli.build_parser()
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    opts = set()
    for p in [parser] + [sp for a in subs for sp in a.choices.values()]:
        for action in p._actions:
            opts |= set(action.option_strings)
    return opts - {"-h", "--help"}


def test_every_option_is_exercised():
    # an option no test and no benchmark stage passes is an option
    # nothing checks
    root = pathlib.Path(__file__).resolve().parent.parent
    text = "\n".join(p.read_text() for p in [
        *sorted((root / "tests").glob("*.py")),
        root / "perfbench" / "workloads.py"])
    missing = sorted(opt for opt in _defined_options()
                     if f'"{opt}"' not in text and f"'{opt}'" not in text)
    assert missing == []


def test_every_config_field_is_exercised():
    # a training setting no test and no benchmark stage sets is a
    # setting nothing checks
    from elastiq import train

    root = pathlib.Path(__file__).resolve().parent.parent
    text = "\n".join(p.read_text() for p in [
        *sorted((root / "tests").glob("*.py")),
        root / "perfbench" / "workloads.py"])
    missing = sorted(f.name for f in dataclasses.fields(train.TrainConfig)
                     if not any(form in text for form in (
                         f'"{f.name}"', f"'{f.name}'", f"{f.name}=")))
    assert missing == []


def test_malformed_stored_pair_exits_1_with_a_message(tmp_path):
    raw, el, cert, out = (tmp_path / n for n in (
        "raw.json", "el.json", "cert.json", "out.json"))
    _write_wide_raw(raw)
    assert _cli("decompose", raw, "--out", el) == cli.EXIT_OK
    assert _cli("certify", el, "--profiles", "8,16:8", "--out", cert,
                "--calib-size", 16) == cli.EXIT_OK
    doc = json.loads(cert.read_text())
    doc["profiles"]["r8"]["pairs"][0] = 5
    cert.write_text(manifest.canonical_json(doc))
    code, stdout, err = _cli_output("certify", cert, "--out", out,
                                    "--calib-size", 16)
    assert (code, stdout) == (cli.EXIT_ERROR, "")
    assert err == "error: stored pair 5 is not a [rank, bits] pair\n"
    assert not out.exists()


def test_quantized_training_verifies(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train_bits": 8, "steps": 20}))
    code, out, err = _cli_output("train", "--out", tmp_path / "run",
                                 "--config", config)
    assert code == cli.EXIT_OK, err
    assert "@@ verify problems=0" in out


def test_quantized_training_evaluates_the_profiles_it_stores(tmp_path):
    config, run = tmp_path / "config.json", tmp_path / "run"
    config.write_text(json.dumps({"train_bits": 4, "steps": 60}))
    code, out, err = _cli_output("train", "--out", run, "--config", config,
                                 "--seed", 0)
    assert code == cli.EXIT_OK, err
    doc = manifest.read_manifest(run / "model.json")
    net = manifest.net_from_doc(doc)
    stats = manifest.stats_from_doc(doc["calibration"])
    evals = _sentinels(out, "eval")
    assert sorted(e["profile"] for e in evals) == sorted(doc["profiles"])
    for e in evals:
        pairs = manifest.pairs_from_doc(
            doc["profiles"][e["profile"]]["pairs"])
        assert {q for _, q in pairs} == {4}
        rows = certificate.ledgers(net, stats, [pairs])[0]
        assert float(e["drift_bound"]) == certificate.ledger_total(rows)


def _tiny_model(data, conv):
    """A 2- or 3-layer relu stack with an identity head: dense widths 3-8,
    or conv channels 2-4 with 1x1 or 3x3 kernels. At most one drawn block
    keeps its width and carries a skip connection. Returns the
    raw_model_to_doc arguments, calibration inputs and the generator."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    n_layers = data.draw(st.integers(2, 3))
    lo, hi = (2, 4) if conv else (3, 8)
    widths = data.draw(st.lists(st.integers(lo, hi), min_size=n_layers + 1,
                                max_size=n_layers + 1))
    skip = data.draw(st.integers(-1, n_layers - 1))
    if skip >= 0:
        widths[skip + 1] = widths[skip]
    if conv:
        sides = data.draw(st.lists(st.sampled_from([1, 3]),
                                   min_size=n_layers, max_size=n_layers))
        shapes = [(c_out, c_in, s, s) for c_in, c_out, s
                  in zip(widths, widths[1:], sides)]
        calib = rng.standard_normal((8, widths[0], 4, 4))
    else:
        shapes = list(zip(widths[1:], widths))
        calib = rng.standard_normal((16, widths[0]))
    residuals = [i == skip for i in range(n_layers)]
    return (*_relu_stack(rng, shapes), residuals), calib, rng


def _normed_net(model, rng):
    """The factorized stack with a frozen affine norm on every relu block;
    raw manifests carry no norms."""
    blocks = []
    for w, b, act, res in zip(*model):
        maker = elastic.from_conv if w.ndim == 4 else elastic.from_dense
        gamma = beta = None
        if act == network.RELU:
            gamma = 0.5 + rng.random(w.shape[0])
            beta = 0.1 * rng.standard_normal(w.shape[0])
        blocks.append(network.Block(elastic=maker(w, bias=b), activation=act,
                                    gamma=gamma, beta=beta, residual=res))
    return network.Network(tuple(blocks))


@given(conv=st.booleans(), normed=st.booleans(), data=st.data())
@settings(derandomize=True, deadline=None, max_examples=20)
def test_pipeline_sweep_on_tiny_models(conv, normed, data):
    """decompose (or a written normed model) -> certify in both modes ->
    plan -> select -> audit -> report on tiny random models with optional
    skip connections: documented exit codes, self-verifying manifests, and
    a conservative bound that never undershoots the observed drift."""
    model, xs, rng = _tiny_model(data, conv)
    k = data.draw(st.integers(1, 3))
    bits = data.draw(st.sampled_from([4, 8]))
    with tempfile.TemporaryDirectory() as tmp:
        raw, calib, el, cert, sampled, plan = (
            os.path.join(tmp, n) for n in (
                "raw.json", "calib.npz", "el.json", "cert.json",
                "sampled.json", "plan.json"))
        np.savez(calib, x=xs)
        if normed:
            manifest.write_manifest(
                manifest.network_to_doc(_normed_net(model, rng)), el)
        else:
            manifest.write_manifest(manifest.raw_model_to_doc(*model), raw)
            assert _cli("decompose", raw, "--out", el) == cli.EXIT_OK
        profiles = f"{k},{k}:{bits},1:{bits}"
        for mode, out in (("conservative", cert), ("poweriter", sampled)):
            code, _, err = _cli_output(
                "certify", el, "--mode", mode, "--profiles", profiles,
                "--epsilon", "1.0", "--out", out, "--calib", calib)
            if conv and mode == "poweriter":
                # the sampled proxy power-iterates dense Jacobians only
                assert (code, err) == (cli.EXIT_ERROR, "error: sampled "
                                       "proxy supports dense stacks only\n")
                assert not os.path.exists(out)
            else:
                assert (code, err) == (cli.EXIT_OK, "")
        assert _cli("plan", cert, "--out", plan) == cli.EXIT_OK
        doc = manifest.read_manifest(plan)
        lattice = manifest.lattice_from_doc(doc["lattice"])
        level = data.draw(st.integers(0, len(lattice.drift_bound) - 1))
        lat, eps = (data.draw(st.sampled_from([0.5, 1.0, 2.0])) * v
                    for v in (lattice.predicted_latency[level],
                              lattice.drift_bound[level]))
        assert _cli("select", plan, "--latency-ms", repr(lat),
                    "--epsilon", repr(eps)) in (
            cli.EXIT_OK, cli.EXIT_CERT_WARNING, cli.EXIT_INFEASIBLE)
        # 4: a planned drift bound can rise with the budget (ROADMAP
        # known defect 2)
        assert _cli("audit", plan) in (cli.EXIT_OK,
                                       cli.EXIT_AUDIT_VIOLATIONS)
        code, out, err = _cli_output("report", plan, "--calib", calib)
        assert (code, err) == (cli.EXIT_OK, "")
        assert out.count("@@ row ") == len(lattice.profiles)
        for path in (el, cert, plan) + (() if conv else (sampled,)):
            assert manifest.verify_manifest(path) == [], path

        net = manifest.net_from_doc(doc)
        stats = manifest.stats_from_doc(doc["calibration"])
        for sec in doc["profiles"].values():
            pairs = manifest.pairs_from_doc(sec["pairs"])
            bound = certificate.pointwise_bound(net, stats, pairs, xs)
            assert np.all(bound >= network.logit_drift(net, xs, pairs))
