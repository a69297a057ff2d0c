"""Every JSON node of three small manifests, mutated once each by a seeded
choice of a type swap, a deletion, a duplicate, or a "nan" or "inf"
string, and run through verify_manifest and the commands that read such a
file: verification never raises, every command exits 0 to 4, a refusal is
one error line with nothing written at --out, select, report and audit
refuse every file that fails verification, and decompose refuses exactly
the raw files that fail it.

The manifests are a planned dense stack (select, report, audit, plan and
certify), a certified conv stack (plan, certify and audit) and a raw dense
stack (decompose)."""

import collections
import copy
import json
import random

import numpy as np
import pytest

from elastiq import cli, elastic, manifest, network
from test_cli import _cli, _cli_output, _planned_small_model

_SWAPS = (None, True, 7, -1.5, "x", [], {})
_KINDS = ("swap", "delete", "duplicate", "nan", "inf")


def _nodes(node, path=()):
    """The path of every node below node, parents first."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _mutated(doc, path, kind, rng):
    """A copy of doc with the node at path mutated by kind."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    node = parent[key]
    if kind == "delete":
        del parent[key]
    elif kind == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(node))
    elif kind == "duplicate":
        parent[f"{key}2"] = copy.deepcopy(node)
    elif kind == "swap":
        parent[key] = copy.deepcopy(rng.choice(
            [v for v in _SWAPS if type(v) is not type(node)]))
    else:
        parent[key] = kind
    return doc


def _conv_certified(tmp_path):
    """A 2 -> 3 -> 2 channel conv stack (3x3, then 1x1) certified at 4x4
    maps; returns the manifest and its calibration file."""
    rng = np.random.default_rng(4)
    blocks = (network.Block(elastic=elastic.from_conv(
                  rng.standard_normal((3, 2, 3, 3))), activation=network.RELU),
              network.Block(elastic=elastic.from_conv(
                  rng.standard_normal((2, 3, 1, 1)))))
    el, cert = tmp_path / "conv_el.json", tmp_path / "conv_cert.json"
    calib = tmp_path / "conv_calib.npz"
    manifest.write_manifest(
        manifest.network_to_doc(network.Network(blocks), seed=4), el)
    np.savez(calib, x=rng.standard_normal((4, 2, 4, 4)))
    assert _cli("certify", el, "--profiles", "1,2:8", "--epsilon", "1.0",
                "--calib", calib, "--out", cert) == cli.EXIT_OK
    return cert, calib


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """(name, file, argvs) per source manifest; each
    argv names the input as "{in}" and the output as "{out}"."""
    tmp = tmp_path_factory.mktemp("fuzz")
    plan = _planned_small_model(tmp)
    conv, calib = _conv_certified(tmp)
    raw = tmp / "raw.json"
    manifest.write_manifest(manifest.raw_model_to_doc(
        [np.eye(3), np.ones((2, 3))], activations=["relu", "identity"],
        seed=3), raw)
    readers = (("select", "{in}", "--latency-ms", "1e9"),
               ("report", "{in}", "--probes", "8", "--out", "{out}"),
               ("audit", "{in}"))
    return (
        ("plan", plan, readers + (
            ("plan", "{in}", "--out", "{out}"),
            ("certify", "{in}", "--calib-size", "8", "--out", "{out}"))),
        ("conv", conv, (
            ("plan", "{in}", "--out", "{out}"),
            ("certify", "{in}", "--calib", str(calib), "--out", "{out}"),
            ("audit", "{in}"))),
        ("raw", raw, (("decompose", "{in}", "--out", "{out}"),)),
    )


def test_every_mutated_node_is_refused_in_one_line_or_served(sources,
                                                             tmp_path):
    rng = random.Random(0)
    mutated, out = tmp_path / "mutated.json", tmp_path / "out"
    faults, served = [], collections.Counter()
    for name, source, argvs in sources:
        doc = json.loads(source.read_text())
        for path in _nodes(doc):
            kind = rng.choice(_KINDS)
            mutated.write_text(manifest.canonical_json(
                _mutated(doc, path, kind, rng)))
            where = f"{name} {kind} at {list(path)}"
            problems = manifest.verify_manifest(str(mutated))
            for argv in argvs:
                argv = [a.format(**{"in": mutated, "out": out})
                        for a in argv]
                code, _, err = _cli_output(*argv)
                served[argv[0]] += code != cli.EXIT_ERROR
                errors = [line for line in err.splitlines()
                          if line.startswith("error:")]
                if code not in range(5):
                    faults.append(f"{where}: {argv[0]} exits {code}")
                elif code == cli.EXIT_ERROR and (
                        len(errors) != 1 or "Traceback" in err
                        or out.exists()):
                    faults.append(f"{where}: {argv[0]} refuses with "
                                  f"{err!r}, out written: {out.exists()}")
                elif problems and code != cli.EXIT_ERROR and (
                        argv[0] in ("select", "report", "audit")):
                    faults.append(f"{where}: {argv[0]} exits {code} on "
                                  f"{problems}")
                elif argv[0] == "decompose" and \
                        (code == cli.EXIT_ERROR) != bool(problems):
                    faults.append(f"{where}: decompose exits {code}, "
                                  f"verification finds {problems}")
                out.unlink(missing_ok=True)
    assert faults == []
    # some mutations leave a file every command still serves
    assert min(served.values()) > 0, served
