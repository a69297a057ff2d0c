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
stores its network as the same bytes. The layer rules are checked once,
by ``_checked_layers``, which ``raw_from_doc`` and ``net_from_doc`` both
run before they build anything; a refusal names the layer. The
``elastic`` and ``network`` constructors trust their callers.

Every other section has one decoder, which checks it once, against the
decoded model, and names the section in each refusal: ``_seed``
(provenance), ``_profiles``, ``_stats``, ``_certificate`` and
``_lattice``. The commands run the decoders of the sections they read or
carry over and ``verify_manifest`` runs them all, so
``certificate.CalibrationStats`` and ``controller.ProfileLattice`` trust
their callers.

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
import collections
import contextlib
import hashlib
import json
import math
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
_VERIFY_TOL = 1e-10  # how near a recomputed float must be to the stored one

_PAYLOAD_KEYS = frozenset(("dtype", "shape", "bytes", "sha256", "data"))
_FACTOR_NAMES = ("u", "core", "v")


class ManifestError(Exception):
    """Raised on malformed, corrupt, or inconsistent manifests."""


def _require(ok, why):
    if not ok:
        raise ManifestError(why)


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


@contextlib.contextmanager
def _section(name):
    """Decode inside _malformed(name), prefixing every refusal raised
    inside with the section's name."""
    with _malformed(name):
        try:
            yield
        except ManifestError as exc:
            raise ManifestError(f"{name}: {exc}") from exc


# ---------------------------------------------------------------------------
# float <-> decimal-string codec


def fmt_float(x):
    """Render a finite float as a decimal string that parses back exactly."""
    x = float(x)
    if not np.isfinite(x):
        raise ManifestError("manifests store finite floats only")
    return format(x, ".17g")


def parse_float(s):
    """Inverse of fmt_float: the finite float a decimal string holds;
    anything else raises ValueError."""
    if not (isinstance(s, str) and np.isfinite(x := float(s))):
        raise ValueError(f"{s!r} is not the decimal string of a finite "
                         f"float")
    return x


def _fmt_list(values):
    return [fmt_float(v) for v in values]


def _parse_list(strings):
    return tuple(map(parse_float, strings))


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

    Every layer passes _checked_layers before a block is built. With
    check_fingerprint the decoded parameters must hash back to the
    manifest's stored fingerprint; a mismatch refuses to load. A topology
    that names a per-layer rank window is refused: a layer serves every
    rank from 1 to its stored rank.
    """
    if doc.get("kind") != KIND_ELASTIC:
        raise ManifestError("manifest does not hold a factorized model")
    with _malformed("model"):
        for spec in doc["topology"]["layers"]:
            if spec.get("group_id") is not None:
                raise ManifestError(
                    "tied-budget layer groups are not supported")
            if "k_min" in spec or "k_max" in spec:
                raise ManifestError("per-layer rank windows (k_min, k_max) "
                                    "are not supported")
        layers = _checked_layers(doc, raw=False)
    net = network.Network(tuple(
        network.Block(
            elastic=elastic.ElasticLayer(
                lay["kind"], linalg.Factors(
                    *(lay[name] for name in _FACTOR_NAMES)), lay["bias"]),
            activation=lay["activation"], gamma=lay["gamma"],
            beta=lay["beta"], residual=lay["residual"])
        for lay in layers))
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


# the axes of a raw layer's weight and of an elastic layer's core, by kind
_RAW_NDIM = {"dense": 2, "conv": 4}
_CORE_NDIM = {elastic.DENSE_SVD: 1, elastic.CONV_TUCKER2: 4}


def _checked_layers(doc, raw):
    """The layers of a raw or an elastic manifest as dicts of their kind,
    activation, residual flag and tensors (raw: weight, bias; elastic: u,
    core, v, bias, gamma, beta; an absent optional one None), after the
    one check of the layer rules: the two sections list the same layers,
    at least one; each kind is known and its non-empty weight (raw: 2-D
    dense, 4-D conv) or core (elastic: 1-D SVD, 4-D Tucker-2) has its
    axes, and the 2-D factors u and v have one column per core rank (the
    SVD rank, or the Tucker-2 output and input ranks); bias, gamma and
    beta hold one entry per output, beta only beside gamma; the
    activation is known; kernel sides are odd; the residual flag is a
    boolean, and a skip wraps equal widths; each layer takes layer 0's
    kind and the previous output width. A refusal names the layer.
    """
    topo, model = doc["topology"]["layers"], doc["model"]["layers"]
    if len(topo) != len(model):
        raise ManifestError("topology and model layer counts differ")
    if not topo:
        raise ManifestError("the model has no layers")
    ndims, shaped, tensors = (
        (_RAW_NDIM, "weight", ("weight",)) if raw
        else (_CORE_NDIM, "core", _FACTOR_NAMES))
    optional = ("bias",) if raw else ("bias", "gamma", "beta")
    layers = []
    for i, (spec, entry) in enumerate(zip(topo, model)):
        lay = {name: _tensor(entry, name) for name in tensors}
        lay.update((name, _tensor(entry, name, required=False))
                   for name in optional)
        kind, a = spec["kind"], lay[shaped]
        ndim = ndims.get(kind)
        if ndim is None:
            raise ManifestError(f"layer {i}: unknown layer kind {kind!r}")
        if a.ndim != ndim:
            raise ManifestError(f"layer {i}: a {kind} {shaped} must be "
                                f"{ndim}-D, got shape {a.shape}")
        if a.size == 0:
            raise ManifestError(f"layer {i}: the {shaped} of shape "
                                f"{a.shape} is empty")
        if raw:
            n_out, n_in = a.shape[:2]
        else:
            u, v = lay["u"], lay["v"]
            if u.ndim != 2 or v.ndim != 2 or (u.shape[1], v.shape[1]) != (
                    a.shape[:2] if ndim == 4 else a.shape * 2):
                raise ManifestError(f"layer {i}: factors u {u.shape} and v "
                                    f"{v.shape} do not fit the core")
            n_out, n_in = u.shape[0], v.shape[0]
        lay.update(kind=kind, activation=spec["activation"],
                   residual=spec["residual"])
        for bad, why in (
                (ndim == 4 and not (a.shape[2] % 2 and a.shape[3] % 2),
                 "same-padded conv needs odd kernel sides"),
                *((lay[name] is not None and lay[name].shape != (n_out,),
                   f"{name} must be 1-D with one entry per output")
                  for name in optional),
                (lay.get("beta") is not None and lay["gamma"] is None,
                 "beta without gamma"),
                (lay["activation"] not in network._ACT_LIPSCHITZ,
                 f"unknown activation {lay['activation']!r}"),
                (not isinstance(lay["residual"], bool),
                 "the residual flag must be true or false"),
                (lay["residual"] and n_in != n_out,
                 "skip connection needs matching width"),
                (layers and kind != layers[0]["kind"],
                 "mixing conv and dense blocks is not supported"),
                (layers and n_in != width,
                 "input width differs from the previous output width")):
            if bad:
                raise ManifestError(f"layer {i}: {why}")
        layers.append(lay)
        width = n_out
    return layers


def raw_from_doc(doc):
    """Decode a raw manifest into its _checked_layers dicts."""
    if doc.get("kind") != KIND_RAW:
        raise ManifestError("manifest does not hold a raw model")
    with _malformed("raw model"):
        return _checked_layers(doc, raw=True)


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
# section decoders: each checks its section once, against the decoded
# model where the section describes it, inside _section


def _seed(doc, net=None):
    """The provenance section's seed: an integer, or None. The seed does
    not describe the model, so net goes unread."""
    with _section("provenance"):
        seed = doc.get("provenance", {}).get("seed")
        _require(seed is None or _is_int(seed),
                 f"seed {seed!r} is not an integer or null")
    return seed


def _per_layer(values, net, what):
    """values, refused unless they hold one entry per layer of net."""
    _require(len(values) == len(net.blocks), f"{what} length {len(values)} "
             f"is not the layer count {len(net.blocks)}")
    return values


def _model_pairs(pairs, net):
    """(k, q) pairs, refused unless they hold one pair per layer of net
    and no rank above its layer's stored rank."""
    for i, (blk, (k, _)) in enumerate(zip(net.blocks, _per_layer(
            pairs, net, "pairs"))):
        _require(k <= blk.elastic.k_max, f"layer {i}: rank {k} above the "
                 f"stored rank {blk.elastic.k_max}")
    return pairs


def _profiles(doc, net):
    """The profiles section (absent: empty) as {name: pairs} in name
    order: an object of {"pairs": ...} entries, each _model_pairs."""
    with _malformed("profiles"):
        entries = sorted(doc.get("profiles", {}).items())
    profiles = {}
    for name, entry in entries:
        with _section(f"profile {name}"):
            extra = ", ".join(sorted(entry.keys() - {"pairs"}))
            _require(not extra, f"stores {extra} besides its pairs")
            profiles[name] = _model_pairs(pairs_from_doc(entry["pairs"]), net)
    return profiles


def _non_negative(values, what):
    _require(all(v >= 0 for v in values),
             f"{what} entries must be non-negative")
    return values


def stats_from_doc(sec):
    """The calibration section's CalibrationStats: finite, non-negative
    alpha, a count that is an integer >= 1 and, when present, a positive
    integer (H, W) map size."""
    with _section("calibration"):
        count = sec["count"]
        spatial = tuple(sec["spatial"]) if "spatial" in sec else None
        _require(_is_int(count) and count >= 1,
                 f"count {count!r} is not a positive integer")
        _require(spatial is None or (len(spatial) == 2 and all(
            _is_int(d) and d >= 1 for d in spatial)),
            "spatial must be a positive (H, W) pair")
        return certificate.CalibrationStats(
            alpha=_non_negative(_parse_list(sec["alpha"]), "alpha"),
            count=count, fingerprint=sec["fingerprint"], spatial=spatial)


def _stats(doc, net):
    """stats_from_doc of the calibration section (None when absent), with
    one alpha entry per layer of net and a map size exactly when net is a
    conv model."""
    if doc.get("calibration") is None:
        return None
    stats = stats_from_doc(doc["calibration"])
    conv = net.blocks[0].is_conv
    with _section("calibration"):
        _per_layer(stats.alpha, net, "alpha")
        _require(stats.spatial is not None or not conv,
                 "records no feature-map size (an older certify wrote it); "
                 "run certify again")
        _require(stats.spatial is None or conv,
                 "spatial is recorded for conv models only")
    return stats


# a decoded certificate section; rows maps each profile name, in name
# order, to its (pairs, sensitivity, weight_change, delta_hat)
_Ledger = collections.namedtuple(
    "_Ledger", ("mode", "certified", "epsilon", "alpha", "rows"))


def _certificate(doc, net):
    """The certificate section as a _Ledger, None when absent: a known
    mode, certified exactly when conservative, epsilon None or >= 0, and
    alpha, each profile's two ledger columns and its _model_pairs one per
    layer of net. Every float is finite."""
    sec = doc.get("certificate")
    if sec is None:
        return None
    with _section("certificate"):
        mode, certified, epsilon = sec["mode"], sec["certified"], \
            sec.get("epsilon")
        _require(mode in (certificate.CONSERVATIVE, certificate.SAMPLED),
                 f"unknown ledger mode {mode!r}")
        _require(certified is (mode == certificate.CONSERVATIVE),
                 "a ledger is certified exactly when its mode is "
                 "conservative")
        epsilon = None if epsilon is None else parse_float(epsilon)
        _require(epsilon is None or epsilon >= 0.0,
                 f"epsilon {epsilon!r} is negative")
        alpha = _per_layer(_parse_list(sec["alpha"]), net, "alpha")
        entries = sorted(sec["profiles"].items())
    rows = {}
    for name, entry in entries:
        with _section(f"certificate {name}"):
            rows[name] = (
                _model_pairs(pairs_from_doc(entry["pairs"]), net),
                *(_per_layer(_parse_list(entry[column]), net, column)
                  for column in ("sensitivity", "weight_change")),
                parse_float(entry["delta_hat"]))
    return _Ledger(mode, certified, epsilon, alpha, rows)


def lattice_from_doc(sec):
    """The lattice section's ProfileLattice: 1 to controller._MAX_LEVELS
    named levels whose pairs agree on the layer count and grow
    componentwise, and whose columns (energy only when stored) hold one
    non-negative value per level; the device None or a non-empty string.
    verify_manifest recomputes each level's weight bytes."""
    with _section("lattice"):
        levels, device = sec["profiles"], sec.get("device")
        _require(1 <= len(levels) <= controller._MAX_LEVELS,
                 f"{len(levels)} levels, not 1 to {controller._MAX_LEVELS}")
        profiles = tuple(controller.Profile(
            pairs=pairs_from_doc(p["pairs"]), name=p["name"]) for p in levels)
        _require(all(isinstance(p.name, str) for p in profiles),
                 "a level name is not a string")
        columns = {name: _parse_list(sec[name])
                   for name in ("predicted_latency", "drift_bound")}
        columns.update(weight_bytes=tuple(sec["weight_bytes"]),
                       energy=None if sec.get("energy") is None
                       else _parse_list(sec["energy"]))
        for name, column in columns.items():
            _require(column is None or len(column) == len(profiles),
                     f"{name} does not match the levels")
            _non_negative(column or (), name)
        _require(all(len(p.pairs) == len(profiles[0].pairs)
                     for p in profiles), "levels disagree on the layer count")
        _require(all(all(map(controller._at_or_below, a.pairs, b.pairs))
                     for a, b in zip(profiles, profiles[1:])),
                 "levels must grow componentwise")
        _require(device is None or (isinstance(device, str) and device),
                 f"device {device!r} is not a non-empty string or null")
    return controller.ProfileLattice(profiles=profiles, device=device,
                                     **columns)


def _lattice(doc, net):
    """lattice_from_doc of the lattice section (None when absent), each
    level's pairs _model_pairs of net."""
    if doc.get("lattice") is None:
        return None
    lattice = lattice_from_doc(doc["lattice"])
    for prof in lattice.profiles:
        with _section(f"lattice profile {prof.name}"):
            _model_pairs(prof.pairs, net)
    return lattice


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
        if flat.size != math.prod(shape):
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


def _close(a, b):
    return abs(a - b) <= _VERIFY_TOL * max(1.0, abs(a), abs(b))


def _verify_lattice(net, lattice, profiles, cert, problems):
    """Each level against its stored profile, the model's byte count and
    the certified ledger (cert; None when absent)."""
    if cert is None or not cert.certified:
        problems.append("lattice: no certified ledger backs its drift "
                        "bounds")
    rows = {} if cert is None else cert.rows
    for j, prof in enumerate(lattice.profiles):
        want = sum(cost.bytes_of(b.elastic, k, q)
                   for b, (k, q) in zip(net.blocks, prof.pairs))
        problems += [f"lattice profile {prof.name}: {why}" for bad, why in (
            (prof.name not in profiles, "not among the stored profiles"),
            (profiles.get(prof.name, prof.pairs) != prof.pairs,
             "pairs disagree with its stored profile"),
            (lattice.weight_bytes[j] != want, f"weight_bytes "
             f"{lattice.weight_bytes[j]} != recomputed {want}"),
            (prof.name in rows and not _close(
                lattice.drift_bound[j], rows[prof.name][3]),
             "drift bound disagrees with the certificate ledger")) if bad]


def _verify_certificate(net, cert, profiles, stats, problems,
                        calibration_inputs):
    """The ledger against the calibration (stats; None when absent) and
    the stored profiles, and its rows recomputed from the parameters."""
    if stats is not None and cert.alpha != stats.alpha:
        problems.append("certificate: alpha differs from the calibration "
                        "section")
    for name, (pairs, sens, change, delta_hat) in cert.rows.items():
        total = certificate.ledger_total(list(zip(sens, change, cert.alpha)))
        problems += [f"certificate {name}: {why}" for bad, why in (
            (name not in profiles, "no stored profile of that name"),
            (profiles.get(name, pairs) != pairs,
             "pairs disagree with its stored profile"),
            (not _close(total, delta_hat),
             "delta_hat is not the sum of its ledger rows")) if bad]
        for i, (blk, (k, q)) in enumerate(zip(net.blocks, pairs)):
            fresh = certificate.weight_change(blk, k, q)
            if not _close(fresh, change[i]):
                problems.append(
                    f"certificate {name} layer {i}: weight-change norm "
                    f"{change[i]!r} != recomputed {fresh!r}")
    if cert.mode == certificate.SAMPLED and calibration_inputs is None:
        return
    recomputed = certificate.lipschitz_proxy(
        net, [pairs for pairs, *_ in cert.rows.values()], cert.mode,
        calibration_inputs)
    for (name, (_, sens, *_)), fresh_sens in zip(cert.rows.items(),
                                                 recomputed):
        for i, (got, fresh) in enumerate(zip(sens, fresh_sens)):
            if not _close(fresh, got):
                problems.append(
                    f"certificate {name} layer {i}: sensitivity {got!r} "
                    f"!= recomputed {fresh!r}")


def verify_manifest(doc_or_path, calibration_inputs=None):
    """Independently re-check a manifest; returns a list of problems,
    empty when every check passed.

    doc_or_path is a path, which read_manifest loads (checking every
    payload), or a document already read or built. Each section goes
    through the decoder the commands use, and each refusal is one
    problem. Over the sections that decode, only what crosses them is
    then recomputed: the fingerprints of the model and its calibration;
    each lattice level's stored profile, byte count and certified bound;
    each certificate entry's stored profile, alpha, delta_hat
    (certificate.ledger_total of its rows) and weight-change norms
    (certificate.weight_change), and a conservative ledger's
    sensitivities (one certificate.lipschitz_proxy call), the functions
    certificate.ledgers builds ledgers from. Power-iteration
    sensitivities depend on data, so they are recomputed only when
    calibration inputs are supplied.
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
        problems = []
        for decode, prefix in ((raw_from_doc, "raw model: "), (_seed, "")):
            try:
                decode(doc)
            except ManifestError as exc:
                problems.append(f"{prefix}{exc}")
        return problems
    try:
        net = net_from_doc(doc, check_fingerprint=False)
    except ManifestError as exc:
        return [f"model: fails to decode ({exc})"]
    fingerprint = certificate.network_fingerprint(net)
    problems = [] if fingerprint == doc.get("fingerprint") else [
        "fingerprint: decoded parameters hash differently"]
    sections = []
    for decode in (_seed, _profiles, _stats, _certificate, _lattice):
        try:
            sections.append(decode(doc, net))
        except ManifestError as exc:
            problems.append(str(exc))
    # sections cross-check one another only once each decodes
    if len(sections) < 5:
        return problems
    _, profiles, stats, cert, lattice = sections
    if stats is not None and stats.fingerprint != fingerprint:
        problems.append("calibration: fingerprint does not match the "
                        "stored model")
    if lattice is not None:
        _verify_lattice(net, lattice, profiles, cert, problems)
    if cert is not None:
        _verify_certificate(net, cert, profiles, stats, problems,
                            calibration_inputs)
    return problems
