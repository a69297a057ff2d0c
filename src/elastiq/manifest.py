"""Self-describing export format for factorized networks.

A manifest is one JSON document carrying everything needed to load, serve,
and independently re-check a compressed model: the stored factors at full
precision, the named profiles, the deployable profile lattice with
predicted costs, the drift-certificate ledger, calibration statistics, and
provenance. A named profile is its per-layer (rank, bits) pairs and
nothing else: every profile serves from the one stored float64 model,
which elastic slices and quantizes on demand.

In memory a document holds each tensor as a numpy array; only the file
holds its payload: the little-endian float64 bytes base64-embedded with
their dtype, shape, byte count and sha256, so a manifest is always
exactly one file. ``_dumps`` (under ``write_manifest``) encodes every
array and ``_loads`` (under ``read_manifest``) decodes and checks every
payload, each exactly once, at the file boundary; a training checkpoint
stores its network as the same bytes.

Rules that keep writes reproducible and reads sound:

* every float is serialized as a 17-significant-digit decimal string,
  which round-trips IEEE binary64 exactly;
* every payload is finite, on write and on read, as ``fmt_float``
  requires of every decimal float;
* JSON is emitted with sorted keys, two-space indentation, ASCII escapes,
  and a trailing newline; no timestamps or environment data are recorded;
* a published file (``_atomic_write``) is written to one temporary name
  in the target directory, fsynced and renamed into place with one
  ``os.replace``, and the directory is fsynced after the rename;
* writing back what ``read_manifest`` returned produces byte-identical
  files.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import os
import tempfile

import numpy as np

from . import certificate
from . import controller
from . import cost
from . import elastic
from . import linalg
from . import network
from . import quant

FORMAT = "elastiq-manifest"
VERSION = 1

KIND_RAW = "raw"
KIND_ELASTIC = "elastic"

_EMBED = "b64"  # the one payload encoding
_F64 = "f64"  # the one payload dtype

_PAYLOAD_KEYS = frozenset(("dtype", "shape", "bytes", "sha256", "data"))
_FACTOR_NAMES = ("u", "core", "v")


class ManifestError(Exception):
    """Raised on malformed, corrupt, or inconsistent manifests."""


@contextlib.contextmanager
def _malformed(section):
    """Report a missing key or a wrongly typed node met while decoding a
    section as one ManifestError naming that section."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, TypeError,
            ValueError) as exc:
        raise ManifestError(f"malformed {section} ({type(exc).__name__}: "
                            f"{exc})") from exc


# ---------------------------------------------------------------------------
# float <-> decimal-string codec


def fmt_float(x):
    """Render a finite float as a decimal string that parses back exactly."""
    x = float(x)
    if not np.isfinite(x):
        raise ManifestError("manifests store finite floats only")
    return format(x, ".17g")


def parse_float(s):
    """Inverse of fmt_float."""
    return float(s)


def _fmt_list(values):
    return [fmt_float(v) for v in values]


def _parse_list(strings):
    return tuple(float(s) for s in strings)


def config_hash(obj):
    """Stable sha256 of a nested plain-python configuration object.

    Floats are rendered through the same 17-digit codec the manifest
    uses; tuples and lists are interchangeable; dict key order is
    irrelevant.
    """

    def plain(node):
        if isinstance(node, dict):
            return {str(k): plain(v) for k, v in node.items()}
        if isinstance(node, (list, tuple)):
            return [plain(v) for v in node]
        if isinstance(node, bool) or node is None:
            return node
        if isinstance(node, (int, np.integer)):
            return int(node)
        if isinstance(node, (float, np.floating)):
            return fmt_float(node)
        if isinstance(node, str):
            return node
        raise ManifestError(f"unhashable config element {type(node).__name__}")

    blob = json.dumps(plain(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# network <-> document


def _topology_layer(blk):
    lay = blk.elastic
    return {
        "kind": lay.kind,
        "in_features": int(lay.in_features),
        "out_features": int(lay.out_features),
        "activation": blk.activation,
        "residual": bool(blk.residual),
    }


def _model_layer(blk):
    lay = blk.elastic
    entry = dict(network._factor_arrays(lay))
    if lay.bias is not None:
        entry["bias"] = lay.bias
    if blk.gamma is not None:
        entry["gamma"] = blk.gamma
        entry["beta"] = blk.beta
    return entry


def _tensor(entry, name, required=True):
    """The array stored under entry[name], or None for an absent optional
    one; anything else where a tensor belongs is refused."""
    if not required and name not in entry:
        return None
    arr = entry[name]
    if not isinstance(arr, np.ndarray):
        raise ManifestError(f"{name} is not a tensor payload")
    return arr


def network_to_doc(net, seed=None, config_digest=None, source=None):
    """Base manifest document for a factorized network.

    Carries topology, full-precision factors, and the parameter
    fingerprint; the named profiles, lattice, certificate, and calibration
    sections are attached by the dedicated helpers.
    """
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "kind": KIND_ELASTIC,
        "topology": {"layers": [_topology_layer(b) for b in net.blocks]},
        "model": {"layers": [_model_layer(b) for b in net.blocks]},
        "fingerprint": certificate.network_fingerprint(net),
        "profiles": {},
        "provenance": {
            "seed": None if seed is None else int(seed),
            "config_hash": config_digest,
            "source": source,
        },
    }
    return doc


def net_from_doc(doc, check_fingerprint=True):
    """Rebuild the full-precision network from an elastic manifest.

    With check_fingerprint the decoded parameters must hash back to the
    manifest's stored fingerprint; a mismatch refuses to load. A topology
    that names a per-layer rank window is refused: a layer serves every
    rank from 1 to its stored rank.
    """
    if doc.get("kind") != KIND_ELASTIC:
        raise ManifestError("manifest does not hold a factorized model")
    with _malformed("model"):
        topo = doc["topology"]["layers"]
        model = doc["model"]["layers"]
        if len(topo) != len(model):
            raise ManifestError("topology and model layer counts differ")
        blocks = []
        for spec, entry in zip(topo, model):
            if spec.get("group_id") is not None:
                raise ManifestError(
                    "tied-budget layer groups are not supported")
            if "k_min" in spec or "k_max" in spec:
                raise ManifestError("per-layer rank windows (k_min, k_max) "
                                    "are not supported")
            factors = linalg.Factors(*(_tensor(entry, name)
                                       for name in _FACTOR_NAMES))
            lay = elastic.ElasticLayer(
                kind=spec["kind"], factors=factors,
                bias=_tensor(entry, "bias", required=False))
            blocks.append(network.Block(
                elastic=lay, activation=spec["activation"],
                gamma=_tensor(entry, "gamma", required=False),
                beta=_tensor(entry, "beta", required=False),
                residual=bool(spec["residual"])))
    net = network.Network(blocks=tuple(blocks))
    if check_fingerprint:
        got = certificate.network_fingerprint(net)
        if got != doc.get("fingerprint"):
            raise ManifestError(
                "decoded parameters do not match the stored fingerprint")
    return net


def raw_model_to_doc(weights, biases=None, activations=None, residuals=None,
                     seed=None, source=None):
    """Manifest document for an undecomposed model (decompose input).

    weights holds one 2-D (dense) or 4-D (conv) array per layer; biases,
    activations, and residual flags are optional per-layer sequences.
    """
    n = len(weights)
    if n == 0:
        raise ManifestError("raw model needs at least one layer")
    biases = [None] * n if biases is None else list(biases)
    activations = [network.IDENTITY] * n if activations is None \
        else list(activations)
    residuals = [False] * n if residuals is None else list(residuals)
    if not len(biases) == len(activations) == len(residuals) == n:
        raise ManifestError("per-layer sequences disagree on layer count")
    layers, payloads = [], []
    for w, b, act, res in zip(weights, biases, activations, residuals):
        w = np.asarray(w, dtype=np.float64)
        if w.ndim not in (2, 4):
            raise ManifestError("raw weights must be 2-D or 4-D")
        layers.append({
            "kind": "conv" if w.ndim == 4 else "dense",
            "activation": str(act),
            "residual": bool(res),
        })
        entry = {"weight": w}
        if b is not None:
            entry["bias"] = np.asarray(b, dtype=np.float64)
        payloads.append(entry)
    return {
        "format": FORMAT,
        "version": VERSION,
        "kind": KIND_RAW,
        "topology": {"layers": layers},
        "model": {"layers": payloads},
        "provenance": {
            "seed": None if seed is None else int(seed),
            "config_hash": None,
            "source": source,
        },
    }


# the weight rank of each raw layer kind
_RAW_NDIM = {"dense": 2, "conv": 4}


def raw_from_doc(doc):
    """Decode a raw manifest into per-layer weight/bias/metadata dicts.

    The topology and model sections list the same layers; a layer's kind
    is dense or conv, and its weight is non-empty and 2-D (dense) or 4-D
    (conv, odd kernel sides); a bias holds one entry per output, the
    activation is known, a skip connection wraps as many outputs as
    inputs, and a layer takes layer 0's kind and the width the one before
    gives. A refusal of one layer names its index.
    """
    if doc.get("kind") != KIND_RAW:
        raise ManifestError("manifest does not hold a raw model")
    out = []
    with _malformed("raw model"):
        topo, model = doc["topology"]["layers"], doc["model"]["layers"]
        if len(topo) != len(model):
            raise ManifestError("topology and model layer counts differ")
        for i, (spec, entry) in enumerate(zip(topo, model)):
            kind, w = spec["kind"], _tensor(entry, "weight")
            ndim = _RAW_NDIM.get(kind)
            if ndim is None:
                raise ManifestError(f"layer {i}: unknown layer kind "
                                    f"{kind!r}")
            if w.ndim != ndim:
                raise ManifestError(f"layer {i}: a {kind} weight must be "
                                    f"{ndim}-D, got shape {w.shape}")
            if w.size == 0:
                raise ManifestError(f"layer {i}: the weight of shape "
                                    f"{w.shape} is empty")
            bias = _tensor(entry, "bias", required=False)
            act, residual = spec["activation"], bool(spec["residual"])
            n_out, n_in = w.shape[:2]
            for bad, why in (
                    (ndim == 4 and not (w.shape[2] % 2 and w.shape[3] % 2),
                     "same-padded conv needs odd kernel sides"),
                    (bias is not None and bias.shape != (n_out,),
                     "bias must be 1-D with one entry per output"),
                    (act not in network._ACT_LIPSCHITZ,
                     f"unknown activation {act!r}"),
                    (residual and n_in != n_out,
                     "skip connection needs matching width"),
                    (out and kind != out[0]["kind"],
                     "mixing conv and dense blocks is not supported"),
                    (out and n_in != out[-1]["weight"].shape[0],
                     "input width differs from the previous output width")):
                if bad:
                    raise ManifestError(f"layer {i}: {why}")
            out.append({
                "kind": kind,
                "weight": w,
                "bias": bias,
                "activation": act,
                "residual": residual,
            })
    return out


# ---------------------------------------------------------------------------
# profiles


def pairs_to_doc(pairs):
    """Serialize per-layer (rank, bits) pairs; bits is None or a width."""
    return [[int(k), None if q is None else int(q)] for k, q in pairs]


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def pairs_from_doc(entries):
    """Per-layer (rank, bits) pairs from their stored form: a list of
    [k, q] entries, k an integer >= 1 and q None or an integer width from
    quant.MIN_BITS to cost.UNQUANTIZED_BITS. Raises ManifestError on
    anything else."""
    if not isinstance(entries, list):
        raise ManifestError(f"stored pairs {entries!r} are not a list")
    pairs = []
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ManifestError(f"stored pair {entry!r} is not a "
                                f"[rank, bits] pair")
        k, q = entry
        if not (_is_int(k) and k >= 1):
            raise ManifestError(f"stored rank {k!r} is not an integer >= 1")
        if not (q is None or (_is_int(q) and quant.MIN_BITS <= q
                              <= cost.UNQUANTIZED_BITS)):
            raise ManifestError(f"stored bits {q!r} are not None or a width "
                                f"in [{quant.MIN_BITS}, "
                                f"{cost.UNQUANTIZED_BITS}]")
        pairs.append((k, q))
    return tuple(pairs)


def add_profile(doc, net, name, pairs):
    """Store one named profile as its per-layer (rank, bits) pairs, and
    return them as a tuple of (k, q) pairs. Its callers hand over checked
    widths (the --profiles parser, TrainConfig, the planner's menus).
    Every profile serves from the model section's factors, so nothing
    else is stored."""
    pairs = tuple(network.resolve_profile(net, list(pairs)))
    doc.setdefault("profiles", {})[str(name)] = {"pairs": pairs_to_doc(pairs)}
    return pairs


# ---------------------------------------------------------------------------
# lattice / calibration / certificate sections


def lattice_to_doc(lattice):
    return {
        "device": lattice.device,
        "profiles": [{"name": p.name, "pairs": pairs_to_doc(p.pairs)}
                     for p in lattice.profiles],
        "predicted_latency": _fmt_list(lattice.predicted_latency),
        "weight_bytes": [int(b) for b in lattice.weight_bytes],
        "drift_bound": _fmt_list(lattice.drift_bound),
        "energy": None if lattice.energy is None
        else _fmt_list(lattice.energy),
    }


@_malformed("lattice")
def lattice_from_doc(sec):
    profiles = tuple(
        controller.Profile(pairs=pairs_from_doc(p["pairs"]), name=p["name"])
        for p in sec["profiles"])
    return controller.ProfileLattice(
        profiles=profiles,
        predicted_latency=_parse_list(sec["predicted_latency"]),
        weight_bytes=tuple(int(b) for b in sec["weight_bytes"]),
        drift_bound=_parse_list(sec["drift_bound"]),
        energy=None if sec.get("energy") is None
        else _parse_list(sec["energy"]),
        device=sec.get("device"))


def stats_to_doc(stats):
    """The calibration section. Only a conv model's section names its
    calibration map size (spatial); a dense model's holds no such entry."""
    sec = {
        "alpha": _fmt_list(stats.alpha),
        "count": int(stats.count),
        "fingerprint": stats.fingerprint,
    }
    if stats.spatial is not None:
        sec["spatial"] = [int(d) for d in stats.spatial]
    return sec


@_malformed("calibration")
def stats_from_doc(sec):
    return certificate.CalibrationStats(
        alpha=_parse_list(sec["alpha"]),
        count=int(sec["count"]),
        fingerprint=sec["fingerprint"],
        spatial=tuple(map(int, sec["spatial"])) if "spatial" in sec
        else None)


def certificate_section(stats, profiles, ledgers,
                        mode=certificate.CONSERVATIVE, epsilon=None):
    """Drift-certificate ledger over named profiles.

    profiles maps each name to its (k, q) pairs, and ledgers holds the
    certificate.ledgers rows of the same profiles, in the same order; the
    section stores, per profile, the rows' sensitivity and weight-change
    columns and their alpha-weighted sum (certificate.ledger_total), which
    is the expected-drift bound. It only serializes: no ledger is built
    here. Only the conservative mode is marked certified — the sampled
    power-iteration proxy can undershoot and is recorded for reference
    only.
    """
    sec = {
        "mode": mode,
        "certified": mode == certificate.CONSERVATIVE,
        "epsilon": None if epsilon is None else fmt_float(epsilon),
        "alpha": _fmt_list(stats.alpha),
        "profiles": {},
    }
    for (name, pairs), rows in zip(profiles.items(), ledgers, strict=True):
        sec["profiles"][str(name)] = {
            "pairs": pairs_to_doc(pairs),
            "sensitivity": _fmt_list([sens for sens, _, _ in rows]),
            "weight_change": _fmt_list([change for _, change, _ in rows]),
            "delta_hat": fmt_float(certificate.ledger_total(rows)),
        }
    return sec


# ---------------------------------------------------------------------------
# canonical serialization


def _serializable(node, path="$"):
    """Deep-copy a document into strictly JSON-plain values.

    Each array becomes its payload: the little-endian float64 bytes,
    base64-embedded, with their dtype, shape, byte count and sha256; an
    array holding a non-finite value is refused. Raw floats are rejected
    everywhere — numbers that matter must already be 17-digit decimal
    strings — so a manifest can never pick up platform- or
    version-dependent float formatting.
    """
    if isinstance(node, np.ndarray):
        arr = np.ascontiguousarray(node, dtype="<f8")
        if not np.isfinite(arr).all():
            raise ManifestError(f"non-finite payload at {path}")
        raw = arr.tobytes()
        return {
            "dtype": _F64,
            "shape": list(node.shape),
            "bytes": len(raw),
            "sha256": hashlib.sha256(raw).hexdigest(),
            "encoding": _EMBED,
            "data": base64.b64encode(raw).decode("ascii"),
        }
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if not isinstance(key, str):
                raise ManifestError(f"non-string key at {path}")
            out[key] = _serializable(value, f"{path}.{key}")
        return out
    if isinstance(node, (list, tuple)):
        return [_serializable(v, f"{path}[{i}]") for i, v in enumerate(node)]
    if isinstance(node, bool) or node is None:
        return node
    if isinstance(node, (int, np.integer)):
        return int(node)
    if isinstance(node, str):
        return node
    if isinstance(node, (float, np.floating)):
        raise ManifestError(
            f"raw float at {path}; serialize it with fmt_float")
    raise ManifestError(f"unserializable {type(node).__name__} at {path}")


def canonical_json(doc):
    """Render a JSON-plain document (no arrays) to the canonical byte
    form: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2,
                      ensure_ascii=True) + "\n"


@contextlib.contextmanager
def _atomic_write(path):
    """Publish a file at path through one sibling temporary file.

    Yields the temporary file's name, created with the mode open() would
    give it, for the body to write and check in place. When the body
    returns, the file is fsynced, one os.replace moves it onto path and
    the directory is fsynced, so the rename itself survives a crash; if
    the body raises, the temporary file goes and path is untouched.
    """
    path = str(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=f".{os.path.basename(path)}.",
                               suffix=".tmp")
    # mkstemp creates the file 0600; give it the mode open() would
    umask = os.umask(0)
    os.umask(umask)
    try:
        os.fchmod(fd, 0o666 & ~umask)
        yield tmp
        # fsync syncs the file, whichever descriptor the body wrote through
        os.fsync(fd)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    finally:
        os.close(fd)
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def sidecar_path(path):
    """Where a manifest's payload sidecar sat when large payloads spilled
    out of the JSON; manifests are one file now, so none is written."""
    return str(path) + ".bin"


def _dumps(doc):
    """A manifest's bytes: every array becomes its payload,
    base64-embedded under ``"encoding": "b64"``."""
    return canonical_json(_serializable(doc)).encode("ascii")


def write_manifest(doc, path):
    """Write a manifest (``_dumps``) as one file and return the bytes
    written.

    The document never mentions its own filename, so rewriting a read
    manifest reproduces the original bytes exactly. The write itself is
    plain; the CLI publishes through ``_atomic_write``.
    """
    data = _dumps(doc)
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def _array(node):
    """json.loads object hook: a payload becomes its float64 array once
    its encoding, byte count, sha256, dtype and shape check out and every
    value is finite; every other object passes through. Only
    base64-embedded payloads are read, so one in any other encoding (such
    as an older manifest's ``"sidecar"``) is refused."""
    if not _PAYLOAD_KEYS <= node.keys():
        return node
    with _malformed("payload"):
        encoding = node.get("encoding")
        if encoding != _EMBED:
            raise ManifestError(f"unsupported payload encoding {encoding!r}")
        raw = base64.b64decode(node["data"], validate=True)
        if len(raw) != int(node["bytes"]):
            raise ManifestError("payload byte count mismatch")
        if hashlib.sha256(raw).hexdigest() != node["sha256"]:
            raise ManifestError("payload checksum mismatch")
        if node["dtype"] != _F64:
            raise ManifestError(f"unknown payload dtype {node['dtype']!r}")
        shape = tuple(int(s) for s in node["shape"])
        flat = np.frombuffer(raw, dtype="<f8")
        if flat.size != np.prod(shape):
            raise ManifestError("payload shape does not match its data")
        if not np.isfinite(flat).all():
            raise ManifestError("payload holds a non-finite value")
        return flat.reshape(shape).astype(np.float64)


def _loads(data):
    """Inverse of _dumps: the document of a manifest's bytes, with every
    payload decoded, and checked once, into its array."""
    try:
        doc = json.loads(data.decode("ascii"), object_hook=_array)
    except ValueError as exc:
        raise ManifestError(f"cannot read manifest: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ManifestError("not a model manifest")
    if doc.get("version") != VERSION:
        raise ManifestError(f"unsupported manifest version "
                            f"{doc.get('version')!r}")
    return doc


def read_manifest(path):
    """Load a manifest file (``_loads``)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ManifestError(f"cannot read manifest: {exc}") from exc
    return _loads(data)


# ---------------------------------------------------------------------------
# self-verification


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@_malformed("profiles")
def _verify_profiles(doc, net, problems):
    for name, sec in sorted(doc.get("profiles", {}).items()):
        extra = sorted(set(sec) - {"pairs"})
        if extra:
            problems.append(f"profile {name}: stores {', '.join(extra)} "
                            f"besides its pairs")
        pairs = pairs_from_doc(sec["pairs"])
        if len(pairs) != len(net.blocks):
            problems.append(f"profile {name}: {len(pairs)} pairs for "
                            f"{len(net.blocks)} layers")
            continue
        for i, (blk, (k, _)) in enumerate(zip(net.blocks, pairs)):
            if k > blk.elastic.k_max:
                problems.append(f"profile {name} layer {i}: rank {k} above "
                                f"the stored rank {blk.elastic.k_max}")


@_malformed("lattice")
def _verify_lattice(doc, net, problems, tol):
    sec = doc.get("lattice")
    if sec is None:
        return
    try:
        lattice = lattice_from_doc(sec)
    except ManifestError as exc:
        problems.append(f"lattice: fails to reconstruct ({exc})")
        return
    cert = doc.get("certificate")
    with _malformed("certificate"):
        certified = cert is not None and cert.get("certified") is True
        ledger_bounds = {} if cert is None else {
            name: parse_float(entry["delta_hat"])
            for name, entry in cert["profiles"].items()}
    if not certified:
        problems.append("lattice: no certified ledger backs its drift "
                        "bounds")
    for j, prof in enumerate(lattice.profiles):
        if prof.name not in doc.get("profiles", {}):
            problems.append(f"lattice profile {prof.name}: not among the "
                            f"stored profiles")
        else:
            stored = pairs_from_doc(doc["profiles"][prof.name]["pairs"])
            if stored != prof.pairs:
                problems.append(f"lattice profile {prof.name}: pairs "
                                f"disagree with its stored profile")
        want = sum(cost.bytes_of(b.elastic, k, q)
                   for b, (k, q) in zip(net.blocks, prof.pairs))
        if int(lattice.weight_bytes[j]) != want:
            problems.append(
                f"lattice profile {prof.name}: weight_bytes "
                f"{lattice.weight_bytes[j]} != recomputed {want}")
    for j, prof in enumerate(lattice.profiles):
        if prof.name in ledger_bounds and not _close(
                lattice.drift_bound[j], ledger_bounds[prof.name], tol):
            problems.append(
                f"lattice profile {prof.name}: drift bound disagrees "
                f"with the certificate ledger")


@_malformed("certificate")
def _verify_certificate(doc, net, problems, tol, calibration_inputs):
    sec = doc.get("certificate")
    if sec is None:
        return
    conservative = sec.get("mode") == certificate.CONSERVATIVE
    if bool(sec.get("certified")) != conservative:
        problems.append("certificate: only the conservative mode may be "
                        "marked certified")
    alpha = _parse_list(sec["alpha"])
    if len(alpha) != len(net.blocks):
        problems.append("certificate: alpha length mismatch")
        return
    calib = doc.get("calibration")
    if calib is not None and list(sec["alpha"]) != list(calib["alpha"]):
        problems.append("certificate: alpha differs from the calibration "
                        "section")
    mode = certificate.CONSERVATIVE if conservative else certificate.SAMPLED
    profiles = doc.get("profiles", {})
    stored = {}
    for name, entry in sorted(sec["profiles"].items()):
        pairs = pairs_from_doc(entry["pairs"])
        if name not in profiles:
            problems.append(f"certificate {name}: no stored profile of "
                            f"that name")
        elif pairs_from_doc(profiles[name]["pairs"]) != pairs:
            problems.append(f"certificate {name}: pairs disagree with its "
                            f"stored profile")
        sens = _parse_list(entry["sensitivity"])
        change = _parse_list(entry["weight_change"])
        if not len(pairs) == len(sens) == len(change) == len(net.blocks):
            problems.append(f"certificate {name}: ragged ledger row")
            continue
        total = certificate.ledger_total(list(zip(sens, change, alpha)))
        if not _close(total, parse_float(entry["delta_hat"]), tol):
            problems.append(
                f"certificate {name}: delta_hat is not the sum of its "
                f"ledger rows")
        for i, (blk, (k, q)) in enumerate(zip(net.blocks, pairs)):
            fresh = certificate.weight_change(blk, k, q)
            if not _close(fresh, change[i], tol):
                problems.append(
                    f"certificate {name} layer {i}: weight-change norm "
                    f"{change[i]!r} != recomputed {fresh!r}")
        stored[name] = (pairs, sens)
    if not conservative and calibration_inputs is None:
        return
    recomputed = certificate.lipschitz_proxy(
        net, [pairs for pairs, _ in stored.values()], mode,
        calibration_inputs)
    for (name, (_, sens)), fresh_sens in zip(stored.items(), recomputed):
        for i, (got, fresh) in enumerate(zip(sens, fresh_sens)):
            if not _close(fresh, got, tol):
                problems.append(
                    f"certificate {name} layer {i}: sensitivity {got!r} "
                    f"!= recomputed {fresh!r}")


def verify_manifest(doc_or_path, calibration_inputs=None, tol=1e-10):
    """Independently re-check a manifest; returns a list of problems.

    doc_or_path is a path, which read_manifest loads (checking every
    payload's byte count and checksum as it decodes it), or a document
    already read or built, whose tensors are arrays. An empty list means
    every check passed: fingerprint round-trip, stored profiles that hold
    only their pairs, one per layer and none above the layer's stored
    rank, byte accounting, lattice consistency with the stored profiles
    and a certified ledger, certificate entries whose pairs are those of
    the stored profile of the same name, and — for conservative
    certificates — full recomputation of every ledger quantity from the
    decoded parameters: the sensitivities of certificate.lipschitz_proxy
    (one call for all profiles), the weight-change norms of
    certificate.weight_change, and each delta_hat as
    certificate.ledger_total of the stored rows, the same functions
    certificate.ledgers builds the ledgers from. Power-iteration ledgers
    are data-dependent, so their sensitivities are only recomputed when
    calibration inputs are supplied; their weight-change norms and
    aggregates are re-checked regardless.
    """
    if isinstance(doc_or_path, (str, os.PathLike)):
        try:
            doc = read_manifest(doc_or_path)
        except ManifestError as exc:
            return [str(exc)]
    else:
        doc = doc_or_path
    if doc.get("format") != FORMAT or doc.get("version") != VERSION:
        return ["unrecognized manifest format or version"]
    if doc.get("kind") == KIND_RAW:
        try:
            raw_from_doc(doc)
        except ManifestError as exc:
            return [f"raw model: {exc}"]
        return []
    try:
        net = net_from_doc(doc, check_fingerprint=False)
    except ManifestError as exc:
        return [f"model: fails to decode ({exc})"]
    problems = []
    fingerprint = certificate.network_fingerprint(net)
    if fingerprint != doc.get("fingerprint"):
        problems.append("fingerprint: decoded parameters hash differently")
    calib = doc.get("calibration")
    if calib is not None:
        try:
            stats = stats_from_doc(calib)
        except ManifestError as exc:
            problems.append(f"calibration: fails to reconstruct ({exc})")
        else:
            if stats.fingerprint != fingerprint:
                problems.append("calibration: fingerprint does not match "
                                "the stored model")
    try:
        _verify_profiles(doc, net, problems)
        _verify_lattice(doc, net, problems, tol)
        _verify_certificate(doc, net, problems, tol, calibration_inputs)
    except ManifestError as exc:
        problems.append(f"manifest structure: {exc}")
    return problems
