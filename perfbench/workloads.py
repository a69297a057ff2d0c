"""Seeded inputs and CLI stage lists of the three benchmark workloads.

A workload is the raw inputs it generates from the seed, the one-off
preparation its stages need as input, the CLI stages it times in every
pass, and the profiles it serves. README.md says why each workload exists.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from elastiq import elastic, manifest, network

WIDE_SIZES = (64, 96, 96, 96, 10)
WIDE_PROFILES = "4,8:8,16:4,32"
CONV_CHANNELS = (8, 16, 16, 8)
CONV_SIDE = 8
CONV_CALIB_ROWS = 64
CONV_PROFILES = "2,4:8,8:4,16"
LEDGER_EPSILON = "1.0"
# the lattice level (of tiny, med, max) that the timed select asks for
SELECT_LEVEL = 1
# calibration probes of the sampled ledger (the CLI default is 256)
SAMPLED_PROBES = 64
# models per run; model i > 0 is drawn from seed + i * MODEL_SEED_STRIDE.
# Two models halve the part of the spread that comes from data-dependent
# iteration counts; toy-train has one, because training dominates its
# passes and runs a fixed number of steps.
MODELS = {"wide": 2, "conv-stack": 2, "toy-train": 1}
MODEL_SEED_STRIDE = 100003
SERVE_ROWS = 256

# independent streams drawn from one seed
_STREAM_SERVE = 1
_STREAM_CALIB = 2


@dataclass(frozen=True)
class Stage:
    """One CLI command. argv is built when the stage runs, because select
    needs the lattice that plan wrote earlier in the same pass."""

    metric: str
    argv: object
    outputs: tuple = ()
    manifests: tuple = ()
    check_select: bool = False
    # back-to-back runs per pass: more samples of a stage that is a metric
    # of its own (certify_s), or of a cheap stage in a pass that a long one
    # dominates
    repeat: int = 1


@dataclass
class Workload:
    stages: list
    # a conservative certificate: its bounds are checked against drift
    served_manifest: Path
    rows: np.ndarray


def model_seed(seed, i):
    return seed + i * MODEL_SEED_STRIDE


def serve_rows(seed, shape):
    rng = np.random.default_rng((seed, _STREAM_SERVE))
    return rng.standard_normal((SERVE_ROWS, *shape))


def dense_raw_model(seed, sizes):
    """Raw relu stack with an identity head; per layer, W ~ N(0,1)/sqrt(fan_in)
    then b ~ 0.1 N(0,1), drawn in layer order from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        weights.append(rng.standard_normal((fan_out, fan_in))
                       / np.sqrt(fan_in))
        biases.append(0.1 * rng.standard_normal(fan_out))
    acts = [network.RELU] * (len(weights) - 1) + [network.IDENTITY]
    return weights, biases, acts


def conv_raw_model(seed, channels=CONV_CHANNELS, kernel=3):
    """Raw conv stack (3x3, 8->16->16->8 by default), relu with an identity
    head, drawn like dense_raw_model."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for c_in, c_out in zip(channels, channels[1:]):
        weights.append(rng.standard_normal((c_out, c_in, kernel, kernel))
                       / np.sqrt(c_in * kernel * kernel))
        biases.append(0.1 * rng.standard_normal(c_out))
    acts = [network.RELU] * (len(weights) - 1) + [network.IDENTITY]
    return weights, biases, acts


def write_raw(path, seed, model):
    weights, biases, acts = model
    doc = manifest.raw_model_to_doc(weights, biases, acts, seed=seed,
                                    source="perfbench")
    manifest.write_manifest(doc, path)


def write_calib(path, seed, n=CONV_CALIB_ROWS):
    rng = np.random.default_rng((seed, _STREAM_CALIB))
    xs = rng.standard_normal((n, CONV_CHANNELS[0], CONV_SIDE, CONV_SIDE))
    with open(path, "wb") as fh:
        np.savez(fh, x=xs)


def factorize(raw_path, out_path):
    """What `decompose` writes, made with the same library calls but
    without its full-rank reconstruction limit.

    The wide workload's input: `decompose` itself rejects about one wide
    model in six (README.md, known defects), and a workload must not
    fail.
    """
    doc = manifest.read_manifest(raw_path)
    blocks = []
    for entry in manifest.raw_from_doc(doc):
        maker = elastic.from_conv if entry["kind"] == "conv" \
            else elastic.from_dense
        blocks.append(network.Block(
            elastic=maker(entry["weight"], bias=entry["bias"]),
            activation=entry["activation"], residual=entry["residual"]))
    net = network.Network(blocks=tuple(blocks))
    seed = doc.get("provenance", {}).get("seed")
    manifest.write_manifest(
        manifest.network_to_doc(net, seed=seed, source="decompose"),
        out_path)


def select_query(plan_path):
    """The planned lattice, and the (latency budget, epsilon) under which
    select should pick its level SELECT_LEVEL."""
    lattice = manifest.lattice_from_doc(
        manifest.read_manifest(plan_path)["lattice"])
    return (lattice, lattice.predicted_latency[SELECT_LEVEL],
            lattice.drift_bound[SELECT_LEVEL])


def _select_argv(plan):
    def argv():
        _, lat, eps = select_query(plan)
        return ["select", str(plan), "--latency-ms", repr(lat),
                "--epsilon", repr(eps)]
    return argv


def _fixed(*argv):
    return lambda: [str(a) for a in argv]


def _planned_tail(d, cert, seed_flag, audit=True):
    """plan -> select -> report (-> audit) on a certified dense manifest."""
    plan = d / "plan.json"
    report = d / "report.csv"
    stages = [
        Stage("plan_s", _fixed("plan", cert, "--out", plan, *seed_flag),
              outputs=(plan,), manifests=(plan,)),
        Stage("select_s", _select_argv(plan), check_select=True),
        Stage("report_s", _fixed("report", plan, "--out", report,
                                 *seed_flag),
              outputs=(report,)),
    ]
    audit_stage = [Stage("audit_s", _fixed("audit", plan))] if audit else []
    return stages + audit_stage


def setup_inputs(name, d, seed):
    """Write the workload's raw inputs into d (cheap; repeated by set-up
    rounds)."""
    if name == "wide":
        write_raw(d / "raw.json", seed, dense_raw_model(seed, WIDE_SIZES))
    elif name == "conv-stack":
        write_raw(d / "raw.json", seed, conv_raw_model(seed))
        write_calib(d / "calib.npz", seed)
    elif name != "toy-train":
        raise ValueError(f"unknown workload {name!r}")


def prepare(name, d):
    """One-off input the stages need beyond the raw files: the wide
    model's factors. Runs once per model, before any timing."""
    if name == "wide":
        factorize(d / "raw.json", d / "el.json")


def build(name, d, seed):
    """Stage lists of one workload; inputs must already be in d."""
    d = Path(d)
    seed_flag = ("--seed", str(seed))
    if name == "wide":
        el, cert, cert_s = d / "el.json", d / "cert.json", \
            d / "cert_sampled.json"
        certify = Stage(
            "certify_s",
            _fixed("certify", el, "--profiles", WIDE_PROFILES,
                   "--epsilon", LEDGER_EPSILON, "--out", cert, *seed_flag),
            outputs=(cert,), manifests=(cert,), repeat=2)
        certify_sampled = Stage(
            "certify_sampled_s",
            _fixed("certify", el, "--profiles", WIDE_PROFILES,
                   "--mode", "poweriter", "--calib-size", SAMPLED_PROBES,
                   "--epsilon", LEDGER_EPSILON, "--out", cert_s, *seed_flag),
            outputs=(cert_s,), manifests=(cert_s,))
        return Workload([certify, certify_sampled,
                         *_planned_tail(d, cert, seed_flag)],
                        cert, serve_rows(seed, (WIDE_SIZES[0],)))
    if name == "conv-stack":
        raw, calib = d / "raw.json", d / "calib.npz"
        el, cert = d / "el.json", d / "cert.json"
        stages = [
            Stage("decompose_s", _fixed("decompose", raw, "--out", el),
                  outputs=(el,), manifests=(el,)),
            Stage("certify_s",
                  _fixed("certify", el, "--profiles", CONV_PROFILES,
                         "--epsilon", LEDGER_EPSILON, "--out", cert,
                         "--calib", calib),
                  outputs=(cert,), manifests=(cert,), repeat=2),
        ]
        shape = (CONV_CHANNELS[0], CONV_SIDE, CONV_SIDE)
        return Workload(stages, cert, serve_rows(seed, shape))
    if name == "toy-train":
        out = d / "train"
        model, cert = out / "model.json", d / "cert.json"
        train = Stage(
            "train_s", _fixed("train", "--out", out, *seed_flag),
            outputs=(model, out / "checkpoint.npz", out / "metrics.csv"),
            manifests=(model,))
        certify = Stage(
            "certify_s",
            _fixed("certify", model, "--epsilon", LEDGER_EPSILON,
                   "--out", cert, *seed_flag),
            outputs=(cert,), manifests=(cert,))
        # no audit: it exits 4 on a few trained models (README.md, known
        # defects), and a workload must not fail
        tail = _planned_tail(d, cert, seed_flag, audit=False)
        after = [dataclasses.replace(s, repeat=2) for s in [certify, *tail]]
        return Workload([train, *after], cert, serve_rows(seed, (16,)))
    raise ValueError(f"unknown workload {name!r}")


NAMES = tuple(MODELS)


@dataclass
class Served:
    """The loaded servable model and the profiles a workload serves."""

    net: object
    doc: dict
    names: list
    profiles: list


def load_served(wl):
    """read_manifest + net_from_doc of the certified manifest, and the
    uniform profiles certify stored in it (same shapes for every seed)."""
    doc = manifest.read_manifest(wl.served_manifest)
    net = manifest.net_from_doc(doc)
    names = sorted(doc["profiles"])
    return Served(net, doc, names,
                  [manifest.pairs_from_doc(doc["profiles"][n]["pairs"])
                   for n in names])
