"""Command-line entry points: import cost, module execution, and the
certify -> plan -> certify round trip."""

import contextlib
import io
import os
import subprocess
import sys

import numpy as np

from elastiq import cli, elastic, manifest, network

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def _run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=False)


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(a) for a in argv])


def test_import_does_not_load_scipy():
    proc = _run_python("-c", "import sys, elastiq; "
                             "print('scipy.special' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_module_execution_warns_nothing():
    proc = _run_python("-m", "elastiq.cli")
    assert proc.returncode == cli.EXIT_ERROR
    assert "usage" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_recertifying_a_planned_manifest_drops_its_lattice(tmp_path):
    rng = np.random.default_rng(3)
    dims = (8, 6, 4)
    blocks = tuple(
        network.Block(elastic=elastic.from_dense(
            rng.standard_normal((dims[i + 1], dims[i]))),
            activation=network.RELU if i == 0 else network.IDENTITY)
        for i in range(len(dims) - 1))
    model, cert, plan, recert = (tmp_path / n for n in (
        "model.json", "cert.json", "plan.json", "recert.json"))
    manifest.write_manifest(
        manifest.network_to_doc(network.Network(blocks)), model)
    assert _cli("certify", model, "--profiles", "2,3:8", "--epsilon", "1.0",
                "--out", cert, "--calib-size", 64) == cli.EXIT_OK
    assert _cli("plan", cert, "--out", plan,
                "--calib-size", 64) == cli.EXIT_OK
    assert "lattice" in manifest.read_manifest(plan)
    assert _cli("certify", plan, "--out", recert, "--seed", 7,
                "--calib-size", 64) == cli.EXIT_OK
    assert manifest.verify_manifest(str(recert)) == []
    assert "lattice" not in manifest.read_manifest(recert)
    assert _cli("audit", recert) == cli.EXIT_ERROR
