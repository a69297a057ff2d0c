"""Command-line entry points: import cost, module execution, the
certify -> plan -> certify round trip, decompose on wide dense and
bottleneck conv models, and byte-identical reruns across BLAS thread
counts."""

import contextlib
import io
import os
import subprocess
import sys

import numpy as np

from elastiq import cli, elastic, manifest, network

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


def test_conv_bottleneck_decomposes_and_certifies(tmp_path):
    # a 3x3 8->16->16->8 stack, then a 1x1 8->4 bottleneck whose input
    # unfolding has rank 4 < c_in = 8
    w, b, _ = _relu_stack(np.random.default_rng(0),
                          [(16, 8, 3, 3), (16, 16, 3, 3), (8, 16, 3, 3)])
    w2, b2, _ = _relu_stack(np.random.default_rng(0), [(4, 8, 1, 1)])
    raw, el, cert = (tmp_path / n for n in ("raw.json", "el.json",
                                             "cert.json"))
    calib = tmp_path / "calib.npz"
    manifest.write_manifest(manifest.raw_model_to_doc(
        w + w2, b + b2, [network.RELU] * 3 + [network.IDENTITY]), raw)
    np.savez(calib, x=np.random.default_rng(1).standard_normal((16, 8, 8, 8)))
    assert _cli("decompose", raw, "--out", el) == cli.EXIT_OK
    assert _cli("certify", el, "--profiles", "2,4:8", "--epsilon", "1.0",
                "--out", cert, "--calib", calib) == cli.EXIT_OK
    assert manifest.verify_manifest(str(cert)) == []


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
