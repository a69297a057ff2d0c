"""Tests of the benchmark itself; run with `python3 -m pytest perfbench/tests`.

The smoke runs start the benchmark as a user would, at its shortest length;
with the known-defect tests they take about three minutes in all.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))


def bench(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def wanted(trace):
    return {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    res = result_of(bench(workload, 0, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1
    assert res["failed"] == 0
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == wanted(trace)
    for name, unit in wanted(trace).items():
        if trace == 0 or unit == "s":
            assert res["metrics"][name]["value"] > 0, name


def cli_ok(*argv):
    """cli.main in this process, output swallowed; True on exit code 0."""
    from elastiq import cli
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(a) for a in argv]) == 0


# Known defects that the workloads step around (README.md, known defects).
# Each test states the correct behaviour and is expected to fail; when a
# fix lands it passes, strict xfail turns that into a failure, and the
# workloads and README.md should then take the fixed path back in.

@pytest.mark.xfail(strict=True, reason="svd_full misses decompose's 1e-7 "
                   "full-rank reconstruction limit on this model")
def test_decompose_wide_model_seed_5(tmp_path):
    import workloads
    raw = tmp_path / "raw.json"
    workloads.write_raw(raw, 5, workloads.dense_raw_model(
        5, workloads.WIDE_SIZES))
    assert cli_ok("decompose", raw, "--out", tmp_path / "el.json")


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="plan on a conv model dies: conv layers need "
                   "spatial=(H, W)")
def test_plan_conv_model(tmp_path):
    import workloads
    raw, el, cert = (tmp_path / n for n in ("raw.json", "el.json",
                                             "cert.json"))
    calib = tmp_path / "calib.npz"
    workloads.setup_inputs("conv-stack", tmp_path, 0)
    assert cli_ok("decompose", raw, "--out", el)
    assert cli_ok("certify", el, "--profiles", workloads.CONV_PROFILES,
                  "--epsilon", workloads.LEDGER_EPSILON, "--out", cert,
                  "--calib", calib)
    assert cli_ok("plan", cert, "--out", tmp_path / "plan.json",
                  "--calib", calib)


@pytest.mark.xfail(strict=True, reason="Tucker-2 cannot factorize a conv "
                   "layer with c_in > c_out*kh*kw, such as a 1x1 8->4 "
                   "bottleneck")
def test_decompose_conv_bottleneck(tmp_path):
    import workloads
    w, b, a = workloads.conv_raw_model(0)
    w2, b2, a2 = workloads.conv_raw_model(0, channels=(8, 4), kernel=1)
    raw = tmp_path / "raw.json"
    workloads.write_raw(raw, 0, (w + w2, b + b2, a[:-1] + ["relu"] + a2))
    assert cli_ok("decompose", raw, "--out", tmp_path / "el.json")


@pytest.mark.xfail(strict=True, reason="the lattice plan writes for the "
                   "model trained at seed 34 has a drift bound that rises "
                   "from one level to the next; audit exits 4")
def test_audit_toy_train_seed_34(tmp_path):
    out, cert, plan = tmp_path / "train", tmp_path / "cert.json", \
        tmp_path / "plan.json"
    assert cli_ok("train", "--out", out, "--seed", 34)
    assert cli_ok("certify", out / "model.json", "--epsilon", "1.0",
                  "--out", cert, "--seed", 34)
    assert cli_ok("plan", cert, "--out", plan, "--seed", 34)
    assert cli_ok("audit", plan)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("wide", 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


TOY_SOURCE = """
import time

def leaf(n):
    time.sleep(n)
    return n

def middle(n):
    return leaf(n) + leaf(n)

def top():
    time.sleep(0.001)
    return middle(0.001) + leaf(0.001)
"""


def _toy_module():
    mod = types.ModuleType("toy")
    exec(TOY_SOURCE, mod.__dict__)
    return mod


def test_self_times_sum_to_the_root_wall():
    import tracing
    mod = _toy_module()
    tracer = tracing.Tracer((mod,))
    tracer.install()
    try:
        mod.top()  # outside a root span: not recorded
        with tracer.root("stage.toy"):
            mod.top()
    finally:
        tracer.uninstall()
    table = tracer.table()
    # bare-name calls resolve through the module dict, so all are caught
    assert table["toy.leaf"]["calls"] == 3
    assert table["toy.middle"]["calls"] == 1
    assert tracer.subtree_self_sum(0) == int(tracer.durations()[0])
    assert sum(r["self_s"] for r in table.values()) == pytest.approx(
        tracer.durations()[0] * 1e-9)
    assert mod.top.__name__ == "top" and not hasattr(mod.top, "__wrapped__")
