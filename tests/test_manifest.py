"""Manifest format: byte-identical rewrites, arrays in memory and payloads
checked once on read, the exact refusal of each bad file, model and
document, file modes, profiles stored as their pairs, and
re-verification of every certificate ledger quantity, lattice and model
section."""

import base64
import copy
import json
import os
import stat

import numpy as np
import pytest

from elastiq import certificate, controller, cost, elastic, linalg, manifest
from elastiq import network


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _raw_doc(side, seed=0):
    """Raw one-layer model whose payload is a side x side f64 weight plus
    its bias: 8 * side * (side + 1) bytes."""
    rng = _rng(seed)
    return manifest.raw_model_to_doc(
        [rng.standard_normal((side, side))], [rng.standard_normal(side)])


def _payload_bytes(doc):
    return sum(a.nbytes for entry in doc["model"]["layers"]
               for a in entry.values())


def _edited(path, edit):
    """Rewrite the manifest at path with edit applied to its JSON form."""
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(manifest.canonical_json(doc))


def _certified_doc():
    rng = _rng(7)
    blocks = (
        network.Block(elastic=elastic.from_dense(
            rng.standard_normal((6, 5)), bias=rng.standard_normal(6)),
            activation=network.RELU),
        network.Block(elastic=elastic.from_dense(
            rng.standard_normal((3, 6)))),
    )
    net = network.Network(blocks)
    doc = manifest.network_to_doc(net, seed=7)
    profiles = {"low": [(2, 8), (1, None)], "mid": [(3, None), (2, 4)]}
    for name, pairs in profiles.items():
        manifest.add_profile(doc, net, name, pairs)
    stats = certificate.calibrate(net, rng.standard_normal((16, 5)))
    doc["calibration"] = manifest.stats_to_doc(stats)
    doc["certificate"] = manifest.certificate_section(
        stats, profiles, certificate.ledgers(net, stats, profiles.values()),
        epsilon=1.0)
    return doc


@pytest.fixture(scope="module")
def certified(tmp_path_factory):
    path = tmp_path_factory.mktemp("cert") / "m.json"
    manifest.write_manifest(_certified_doc(), path)
    return manifest.read_manifest(path)


class TestRoundTrip:
    # 360 and 363 put the payload just under and just over 1 MiB, the size
    # at which payloads once spilled to a sidecar file
    @pytest.mark.parametrize("side, over", [(360, False), (363, True)])
    def test_rewrite_reproduces_bytes(self, tmp_path, side, over):
        doc = _raw_doc(side)
        assert (_payload_bytes(doc) > 1 << 20) == over
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        manifest.write_manifest(doc, first)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]
        manifest.write_manifest(manifest.read_manifest(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_certified_rewrite_reproduces_bytes(self, tmp_path, certified):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        manifest.write_manifest(certified, first)
        manifest.write_manifest(manifest.read_manifest(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_read_holds_arrays(self, tmp_path):
        doc = _raw_doc(4)
        path = tmp_path / "m.json"
        manifest.write_manifest(doc, path)
        weight = manifest.read_manifest(path)["model"]["layers"][0]["weight"]
        assert weight.dtype == np.float64 and weight.flags.writeable
        assert np.array_equal(weight, doc["model"]["layers"][0]["weight"])

    def test_flipped_embedded_byte_raises(self, tmp_path):
        path = tmp_path / "m.json"
        manifest.write_manifest(_raw_doc(4), path)
        doc = json.loads(path.read_text())
        payload = doc["model"]["layers"][0]["weight"]
        raw = bytearray(base64.b64decode(payload["data"]))
        raw[3] ^= 0x01
        payload["data"] = base64.b64encode(bytes(raw)).decode("ascii")
        path.write_text(manifest.canonical_json(doc))
        with pytest.raises(manifest.ManifestError, match="checksum"):
            manifest.read_manifest(path)

    # one file per refused payload field; test_only_float64_payloads_decode
    # refuses the dtype
    @pytest.mark.parametrize("field, value, message", [
        ("encoding", "hex", "unsupported payload encoding 'hex'"),
        ("data", "@AAA", "malformed payload (Error: Only base64 data is "
                         "allowed)"),
        ("bytes", 136, "payload byte count mismatch"),
        ("sha256", "0" * 64, "payload checksum mismatch"),
        ("shape", [4, 5], "payload shape does not match its data"),
    ])
    def test_refused_payload_field(self, tmp_path, field, value, message):
        path = tmp_path / "m.json"
        manifest.write_manifest(_raw_doc(4), path)
        _edited(path, lambda doc: doc["model"]["layers"][0]["weight"]
                .update({field: value}))
        with pytest.raises(manifest.ManifestError) as err:
            manifest.read_manifest(path)
        assert str(err.value) == message

    # what verify_manifest reports of a file read_manifest refuses
    @pytest.mark.parametrize("data, message", [
        (b"{", "cannot read manifest: Expecting property name enclosed in "
               "double quotes: line 1 column 2 (char 1)"),
        (b"[]", "not a model manifest"),
        (b'{"format": "onnx"}', "not a model manifest"),
        (b'{"format": "elastiq-manifest", "version": 2}',
         "unsupported manifest version 2"),
        (None, "cannot read manifest: [Errno 2] No such file or directory: "
               "'{path}'"),
    ], ids=["not-json", "array", "other-format", "version-2", "missing"])
    def test_refused_file(self, tmp_path, data, message):
        path = tmp_path / "m.json"
        if data is not None:
            path.write_bytes(data)
        message = message.format(path=path)
        with pytest.raises(manifest.ManifestError) as err:
            manifest.read_manifest(path)
        assert str(err.value) == message
        assert manifest.verify_manifest(str(path)) == [message]

    # each edit is written back with write_manifest, so every payload
    # checksum holds
    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["model"]["layers"][0]["u"].__setitem__(
            (0, 0), 0.5), "decoded parameters do not match the stored "
                          "fingerprint"),
        (lambda doc: doc["model"]["layers"].pop(),
         "topology and model layer counts differ"),
    ], ids=["edited-tensor", "layer-count"])
    def test_refused_model(self, tmp_path, certified, edit, message):
        doc = copy.deepcopy(certified)
        edit(doc)
        path = tmp_path / "m.json"
        manifest.write_manifest(doc, path)
        with pytest.raises(manifest.ManifestError) as err:
            manifest.net_from_doc(manifest.read_manifest(path))
        assert str(err.value) == message

    @pytest.mark.parametrize("build, message", [
        (lambda path: manifest.raw_model_to_doc([]),
         "raw model needs at least one layer"),
        (lambda path: manifest.raw_model_to_doc([np.eye(2)], [None, None]),
         "per-layer sequences disagree on layer count"),
        (lambda path: manifest.raw_model_to_doc([np.ones(3)]),
         "raw weights must be 2-D or 4-D"),
        (lambda path: manifest.write_manifest({"a": [0.5]}, path),
         "raw float at $.a[0]; serialize it with fmt_float"),
        (lambda path: manifest.write_manifest({"a": {1: "b"}}, path),
         "non-string key at $.a"),
        (lambda path: manifest.fmt_float(float("inf")),
         "manifests store finite floats only"),
        (lambda path: manifest.write_manifest(
            {"a": [np.array([1.0, np.nan])]}, path),
         "non-finite payload at $.a[0]"),
        (lambda path: manifest.write_manifest({"a": {"b": object()}}, path),
         "unserializable object at $.a.b"),
        (lambda path: manifest.write_manifest({"a": [{1, 2}]}, path),
         "unserializable set at $.a[0]"),
        (lambda path: manifest.config_hash({"a": [1, {"b": object()}]}),
         "unhashable config element object"),
        (lambda path: manifest.config_hash({"hidden": (8, {4, 2})}),
         "unhashable config element set"),
    ], ids=["no-layers", "ragged", "weight-rank", "raw-float",
            "int-key", "inf", "nan-payload", "unserializable",
            "unserializable-set", "unhashable", "unhashable-set"])
    def test_refused_document(self, tmp_path, build, message):
        path = tmp_path / "m.json"
        with pytest.raises(manifest.ManifestError) as err:
            build(path)
        assert str(err.value) == message
        assert not path.exists()

    def test_sidecar_encoded_payload_refused(self, tmp_path):
        path = tmp_path / "m.json"
        manifest.write_manifest(_raw_doc(4), path)
        doc = json.loads(path.read_text())
        payload = doc["model"]["layers"][0]["weight"]
        payload.update(encoding="sidecar",
                       data={"offset": 0, "length": payload["bytes"]})
        path.write_text(manifest.canonical_json(doc))
        with pytest.raises(manifest.ManifestError,
                           match="unsupported payload encoding 'sidecar'"):
            manifest.read_manifest(path)


def test_config_hash_keeps_strings_apart_from_numbers():
    digest = manifest.config_hash({"source": "a", "n": 1})
    assert digest == manifest.config_hash({"n": 1, "source": "a"})
    assert digest != manifest.config_hash({"source": "b", "n": 1})
    assert digest != manifest.config_hash({"source": "a", "n": "1"})


class TestFileMode:
    def test_manifest_follows_the_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            path = tmp_path / "m.json"
            manifest.write_manifest(_raw_doc(4), path)
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o644


def _scaled(text, factor=1.001):
    return manifest.fmt_float(manifest.parse_float(text) * factor)


class TestCertificateVerification:
    def test_untouched_manifest_verifies(self, certified):
        assert manifest.verify_manifest(certified) == []

    def test_parameters_are_hashed_once(self, certified, monkeypatch):
        # the fingerprint check and the calibration freshness check share
        # one digest of the decoded parameters
        calls, fingerprint = [], certificate.network_fingerprint

        def counted(net):
            calls.append(net)
            return fingerprint(net)

        monkeypatch.setattr(certificate, "network_fingerprint", counted)
        assert manifest.verify_manifest(certified) == []
        assert len(calls) == 1

    @pytest.mark.parametrize("field", ["sensitivity", "weight_change"])
    @pytest.mark.parametrize("layer", [0, 1])
    def test_changed_ledger_row_is_caught(self, certified, field, layer):
        doc = copy.deepcopy(certified)
        column = doc["certificate"]["profiles"]["low"][field]
        column[layer] = _scaled(column[layer])
        problems = manifest.verify_manifest(doc)
        assert any(f"layer {layer}" in p for p in problems), problems

    def test_changed_delta_hat_is_caught(self, certified):
        doc = copy.deepcopy(certified)
        entry = doc["certificate"]["profiles"]["mid"]
        entry["delta_hat"] = _scaled(entry["delta_hat"])
        problems = manifest.verify_manifest(doc)
        assert any("delta_hat" in p for p in problems), problems

    def test_changed_alpha_is_caught(self, certified):
        doc = copy.deepcopy(certified)
        alpha = doc["certificate"]["alpha"]
        alpha[1] = _scaled(alpha[1])
        problems = manifest.verify_manifest(doc)
        assert any("alpha" in p for p in problems), problems
        assert any("delta_hat" in p for p in problems), problems

    def test_stored_rows_are_the_ledger(self, certified):
        net = manifest.net_from_doc(certified)
        stats = manifest.stats_from_doc(certified["calibration"])
        entry = certified["certificate"]["profiles"]["mid"]
        pairs = manifest.pairs_from_doc(entry["pairs"])
        rows = certificate.ledgers(net, stats, [pairs])[0]
        assert manifest._parse_list(entry["sensitivity"]) \
            == tuple(r[0] for r in rows)
        assert manifest._parse_list(entry["weight_change"]) \
            == tuple(r[1] for r in rows)
        assert manifest.parse_float(entry["delta_hat"]) \
            == certificate.ledger_total(rows)

    def test_sampled_sensitivities_recomputed_once(self, tmp_path,
                                                   monkeypatch):
        rng = _rng(8)
        net = network.Network((
            network.Block(elastic=elastic.from_dense(
                rng.standard_normal((6, 5))), activation=network.RELU),
            network.Block(elastic=elastic.from_dense(
                rng.standard_normal((3, 6))))))
        xs = rng.standard_normal((16, 5))
        profiles = {f"r{k}": [(k, 8), (min(k, 3), None)]
                    for k in (1, 2, 3, 4)}
        doc = manifest.network_to_doc(net)
        for name, pairs in profiles.items():
            manifest.add_profile(doc, net, name, pairs)
        stats = certificate.calibrate(net, xs)
        doc["calibration"] = manifest.stats_to_doc(stats)
        doc["certificate"] = manifest.certificate_section(
            stats, profiles, certificate.ledgers(
                net, stats, profiles.values(), certificate.SAMPLED, xs),
            certificate.SAMPLED)
        path = tmp_path / "m.json"
        manifest.write_manifest(doc, path)
        doc = manifest.read_manifest(path)
        calls = []
        jacobians = certificate._tail_jacobians

        def counted(*args):
            calls.append(args)
            return jacobians(*args)

        monkeypatch.setattr(certificate, "_tail_jacobians", counted)
        assert manifest.verify_manifest(doc, calibration_inputs=xs) == []
        assert len(calls) == 1
        # the one shared pass still checks every profile's column
        column = doc["certificate"]["profiles"]["r4"]["sensitivity"]
        column[0] = _scaled(column[0])
        problems = manifest.verify_manifest(doc, calibration_inputs=xs)
        assert any("certificate r4 layer 0: sensitivity" in p
                   for p in problems), problems


def _planned(doc):
    """doc with a one-level lattice over its profile low, at low's bytes
    and certified bound."""
    net = manifest.net_from_doc(doc)
    pairs = manifest.pairs_from_doc(doc["profiles"]["low"]["pairs"])
    doc["lattice"] = manifest.lattice_to_doc(controller.ProfileLattice(
        profiles=(controller.Profile(pairs, name="low"),),
        predicted_latency=(1.0,),
        weight_bytes=(sum(cost.bytes_of(b.elastic, k, q)
                          for b, (k, q) in zip(net.blocks, pairs)),),
        drift_bound=(manifest.parse_float(
            doc["certificate"]["profiles"]["low"]["delta_hat"]),)))
    return doc


def _raw_with_weight(value):
    def edit(_):
        doc = _raw_doc(3)
        doc["model"]["layers"][0]["weight"] = value
        return doc
    return edit


def _set(*path, value):
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
        return doc
    return edit


def _ledger_of_mid_as_low(doc):
    """doc whose certificate entry low carries mid's pairs and ledger,
    with the lattice's bound moved to mid's."""
    entries = doc["certificate"]["profiles"]
    entries["low"] = copy.deepcopy(entries["mid"])
    doc["lattice"]["drift_bound"][0] = entries["mid"]["delta_hat"]
    return doc


def _unstore_mid(doc):
    del doc["profiles"]["mid"]
    return doc


class TestVerifyBranches:
    """One edit of a planned document per problem verify_manifest
    reports, each with its exact problem text."""

    @pytest.mark.parametrize("edit, problems", [
        (lambda doc: doc, []),
        (_set("lattice", "drift_bound", value=lambda b: b[:0]),
         ["lattice: drift_bound does not match the levels"]),
        (_set("lattice", "profiles", 0, "name", value="high"),
         ["lattice profile high: not among the stored profiles"]),
        (_set("profiles", "low", "pairs", 0, value=[1, 8]),
         ["lattice profile low: pairs disagree with its stored profile",
          "certificate low: pairs disagree with its stored profile"]),
        (_set("lattice", "weight_bytes", 0, value=lambda b: b + 8),
         ["lattice profile low: weight_bytes 72 != recomputed 64"]),
        (_set("lattice", "drift_bound", 0, value="0.001"),
         ["lattice profile low: drift bound disagrees with the certificate "
          "ledger"]),
        # a certificate that fails to decode backs no lattice check
        (_set("certificate", "certified", value=False),
         ["certificate: a ledger is certified exactly when its mode is "
          "conservative"]),
        (_set("certificate", "mode", value=certificate.SAMPLED),
         ["certificate: a ledger is certified exactly when its mode is "
          "conservative"]),
        (_set("certificate", "alpha", value=lambda a: a[:1]),
         ["certificate: alpha length 1 is not the layer count 2"]),
        (_ledger_of_mid_as_low,
         ["certificate low: pairs disagree with its stored profile"]),
        (_unstore_mid, ["certificate mid: no stored profile of that name"]),
        (_set("fingerprint", value="0" * 64),
         ["fingerprint: decoded parameters hash differently"]),
        (_set("calibration", "fingerprint", value="0" * 64),
         ["calibration: fingerprint does not match the stored model"]),
        (_raw_with_weight(np.eye(3)), []),
        # a payload without its checksum is read as a plain object
        (_raw_with_weight({"dtype": "f64", "shape": [1], "bytes": 8}),
         ["raw model: weight is not a tensor payload"]),
        # a document already in memory skips read_manifest's own checks
        (_set("format", value="onnx"),
         ["unrecognized manifest format or version"]),
        (_set("version", value=2),
         ["unrecognized manifest format or version"]),
        (_set("model", "layers", value=lambda layers: layers[:1]),
         ["model: fails to decode (topology and model layer counts "
          "differ)"]),
        (_set("calibration", "count", value="x"),
         ["calibration: count 'x' is not a positive integer"]),
        # a profiles section that fails to decode backs no cross-check
        (_set("profiles", "low", "pairs", value="x"),
         ["profile low: stored pairs 'x' are not a list"]),
        (_set("certificate", value=[]),
         ["malformed certificate (TypeError: list indices must be "
          "integers or slices, not str)"]),
        (_set("certificate", "profiles", value=[]),
         ["malformed certificate (AttributeError: 'list' object has no "
          "attribute 'items')"]),
        (_set("certificate", "profiles", "low", "sensitivity",
              value=lambda sens: sens[:1]),
         ["certificate low: sensitivity length 1 is not the layer count "
          "2"]),
        (_set("calibration", "alpha", value=lambda a: a[:1]),
         ["calibration: alpha length 1 is not the layer count 2"]),
        (_set("calibration", "spatial", value=[4, 4]),
         ["calibration: spatial is recorded for conv models only"]),
        (_set("lattice", "profiles", 0, "pairs", 1, 0, value=9),
         ["lattice profile low: layer 1: rank 9 above the stored rank 3"]),
        (_set("provenance", "seed", value=[1]),
         ["provenance: seed [1] is not an integer or null"]),
        (_set("profiles", value=None),
         ["malformed profiles (AttributeError: 'NoneType' object has no "
          "attribute 'items')"]),
        (_set("certificate", "epsilon", value="inf"),
         ["malformed certificate (ValueError: 'inf' is not the decimal "
          "string of a finite float)"]),
        (_set("certificate", "mode", value="exact"),
         ["certificate: unknown ledger mode 'exact'"]),
    ], ids=["untouched", "lattice-reconstruct", "lattice-name",
            "lattice-pairs", "lattice-bytes", "lattice-drift",
            "lattice-uncertified", "sampled-certified", "alpha-length",
            "certificate-pairs", "certificate-unstored", "fingerprint",
            "calibration-fingerprint", "raw", "raw-non-array", "format",
            "version", "model-decode", "calibration-reconstruct",
            "structure", "certificate-not-object",
            "certificate-profiles-not-object", "ragged-ledger-row",
            "calibration-alpha-length", "calibration-spatial",
            "lattice-rank", "provenance-seed", "profiles-null",
            "certificate-epsilon", "certificate-mode"])
    def test_problem(self, certified, edit, problems):
        doc = edit(_planned(copy.deepcopy(certified)))
        assert manifest.verify_manifest(doc) == problems


def _three_layer_net(seed):
    rng = _rng(seed)
    dims = (5, 6, 6, 3)
    return network.Network(tuple(
        network.Block(elastic=elastic.from_dense(
            rng.standard_normal((dims[i + 1], dims[i]))),
            activation=network.RELU if i < 2 else network.IDENTITY)
        for i in range(3)))


_FOUR_PROFILES = {f"r{k}": [(k, 8), (k, None), (min(k, 3), 4)]
                  for k in (1, 2, 3, 5)}


class TestCertifyWork:
    """certificate.ledgers and verify_manifest do the profile-independent
    work once per call, and still match one ledger per profile;
    certificate_section only serializes the rows it is given."""

    def test_sampled_section_builds_tail_jacobians_once(self, monkeypatch):
        net = _three_layer_net(9)
        xs = _rng(10).standard_normal((16, 5))
        stats = certificate.calibrate(net, xs)
        calls = []
        jacobians = certificate._tail_jacobians

        def counted(*args):
            calls.append(args)
            return jacobians(*args)

        monkeypatch.setattr(certificate, "_tail_jacobians", counted)
        ledgers = certificate.ledgers(net, stats, _FOUR_PROFILES.values(),
                                      certificate.SAMPLED, xs)
        assert len(calls) == 1
        sec = manifest.certificate_section(stats, _FOUR_PROFILES, ledgers,
                                           certificate.SAMPLED)
        assert len(calls) == 1
        monkeypatch.undo()
        for name, pairs in _FOUR_PROFILES.items():
            rows = certificate.ledgers(net, stats, [pairs],
                                       certificate.SAMPLED, xs)[0]
            assert manifest._parse_list(sec["profiles"][name]["sensitivity"]) \
                == tuple(r[0] for r in rows)

    def test_stored_weight_gain_once_per_layer_per_pass(self, tmp_path,
                                                        monkeypatch):
        net = _three_layer_net(11)
        stats = certificate.calibrate(net, _rng(12).standard_normal((16, 5)))
        stored = [elastic.effective_weight(b.elastic, b.elastic.k_max)
                  for b in net.blocks]
        seen = []
        norm = linalg.spectral_norm

        def counted(a):
            seen.append(np.array(a, dtype=np.float64))
            return norm(a)

        def stored_counts():
            counts = [sum(a.shape == w.shape and np.array_equal(a, w)
                          for a in seen) for w in stored]
            seen.clear()
            return counts

        # the first block's gain multiplies no sensitivity
        once = [0, 1, 1]
        monkeypatch.setattr(linalg, "spectral_norm", counted)
        doc = manifest.network_to_doc(net)
        for name, pairs in _FOUR_PROFILES.items():
            manifest.add_profile(doc, net, name, pairs)
        doc["calibration"] = manifest.stats_to_doc(stats)
        seen.clear()
        doc["certificate"] = manifest.certificate_section(
            stats, _FOUR_PROFILES,
            certificate.ledgers(net, stats, _FOUR_PROFILES.values()))
        assert stored_counts() == once
        path = tmp_path / "m.json"
        manifest.write_manifest(doc, path)
        seen.clear()
        assert manifest.verify_manifest(manifest.read_manifest(path)) == []
        assert stored_counts() == once
        monkeypatch.undo()
        for name, pairs in _FOUR_PROFILES.items():
            rows = certificate.ledgers(net, stats, [pairs])[0]
            entry = doc["certificate"]["profiles"][name]
            assert manifest._parse_list(entry["sensitivity"]) \
                == tuple(r[0] for r in rows)
            assert manifest.parse_float(entry["delta_hat"]) \
                == certificate.ledger_total(rows)


class TestCalibrationSection:
    @pytest.mark.parametrize("conv", [False, True], ids=["dense", "conv"])
    def test_stats_round_trip(self, conv):
        rng = _rng(9)
        if conv:
            lay = elastic.from_conv(rng.standard_normal((4, 3, 3, 3)))
            xs = rng.standard_normal((5, 3, 6, 7))
        else:
            lay = elastic.from_dense(rng.standard_normal((4, 3)))
            xs = rng.standard_normal((5, 3))
        net = network.Network((network.Block(elastic=lay),))
        stats = certificate.calibrate(net, xs)
        # the map size is recorded for conv models only
        assert stats.spatial == ((6, 7) if conv else None)
        sec = json.loads(manifest.canonical_json(
            manifest.stats_to_doc(stats)))
        assert ("spatial" in sec) == conv
        assert manifest.stats_from_doc(sec) == stats

    @pytest.mark.parametrize("key, value, message", [
        ("count", 0, "calibration: count 0 is not a positive integer"),
        ("count", True, "calibration: count True is not a positive integer"),
        ("count", 16.0, "calibration: count 16.0 is not a positive integer"),
        ("alpha", ["1.0", "-1.0"],
         "calibration: alpha entries must be non-negative"),
        ("alpha", ["nan", "1.0"], "malformed calibration (ValueError: 'nan' "
                                  "is not the decimal string of a finite "
                                  "float)"),
        ("alpha", ["1.0", "-inf"], "malformed calibration (ValueError: "
                                   "'-inf' is not the decimal string of a "
                                   "finite float)"),
        ("alpha", [1.0, 2.0], "malformed calibration (ValueError: 1.0 is not "
                              "the decimal string of a finite float)"),
        ("spatial", [8], "calibration: spatial must be a positive (H, W) "
                         "pair"),
        ("spatial", [8, 0], "calibration: spatial must be a positive (H, W) "
                            "pair"),
        ("spatial", [1, 2, 3], "calibration: spatial must be a positive "
                               "(H, W) pair"),
        ("spatial", [True, 4], "calibration: spatial must be a positive "
                               "(H, W) pair"),
    ], ids=["count-0", "count-bool", "count-float", "negative-alpha",
            "nan-alpha", "inf-alpha", "number-alpha", "spatial-8",
            "spatial-8-0", "spatial-1-2-3", "spatial-bool"])
    def test_stats_validation(self, certified, key, value, message):
        sec = dict(certified["calibration"], **{key: value})
        with pytest.raises(manifest.ManifestError) as err:
            manifest.stats_from_doc(sec)
        assert str(err.value) == message


def _lattice_section():
    """A three-level lattice section, levels s1 to s3 at ranks 1 to 3 and
    4 bits of one layer."""
    return json.loads(manifest.canonical_json(manifest.lattice_to_doc(
        controller.ProfileLattice(
            profiles=tuple(controller.Profile(((k, 4),), name=f"s{k}")
                           for k in (1, 2, 3)),
            predicted_latency=(0.5, 1.0, 2.0), weight_bytes=(100, 200, 300),
            drift_bound=(0.3, 0.2, 0.1), energy=(0.1, 0.2, 0.3),
            device="dev"))))


def _level_pairs(j, pairs):
    return _set("profiles", j, "pairs", value=pairs)


class TestLatticeSection:
    @pytest.mark.parametrize("edit, message", [
        (_set("profiles", value=[]), "lattice: 0 levels, not 1 to 8"),
        (_set("profiles", value=[{"name": f"s{k}", "pairs": [[k, 4]]}
                                 for k in range(1, 10)]),
         "lattice: 9 levels, not 1 to 8"),
        (_set("drift_bound", 1, value="-0.2"),
         "lattice: drift_bound entries must be non-negative"),
        (_set("weight_bytes", 0, value=-1),
         "lattice: weight_bytes entries must be non-negative"),
        (_level_pairs(1, [[2, 4], [1, None]]),
         "lattice: levels disagree on the layer count"),
        (_level_pairs(0, [[3, 4]]), "lattice: levels must grow componentwise"),
        (_set("predicted_latency", value=["0.5", "1.0", "2.0", "3.0"]),
         "lattice: predicted_latency does not match the levels"),
        (_set("energy", value=["0.1"]),
         "lattice: energy does not match the levels"),
        # unquantized factors count as 32 bits
        (lambda sec: _level_pairs(1, [[2, 8]])(_level_pairs(0, [[1, None]])(
            sec)), "lattice: levels must grow componentwise"),
        (_set("predicted_latency", 0, value="nan"),
         "malformed lattice (ValueError: 'nan' is not the decimal string of "
         "a finite float)"),
        (_set("energy", 2, value="inf"),
         "malformed lattice (ValueError: 'inf' is not the decimal string of "
         "a finite float)"),
        (_set("profiles", 0, "name", value=None),
         "lattice: a level name is not a string"),
        (_set("device", value=""),
         "lattice: device '' is not a non-empty string or null"),
        (_set("profiles", 0, "pairs", value=[[0, 4]]),
         "lattice: stored rank 0 is not an integer >= 1"),
    ], ids=["no-level", "nine-levels", "negative-entry", "negative-bytes",
            "unequal-layer-counts", "shrinking-rank", "latency-length",
            "energy-length", "float-then-8-bits", "nan-latency",
            "inf-energy", "unnamed-level",
            "empty-device", "rank-0"])
    def test_lattice_validation(self, edit, message):
        with pytest.raises(manifest.ManifestError) as err:
            manifest.lattice_from_doc(edit(_lattice_section()))
        assert str(err.value) == message


class TestStoredPairs:
    def test_well_formed_pairs_parse(self):
        assert manifest.pairs_from_doc([[3, None], [2, 8]]) \
            == ((3, None), (2, 8))

    @pytest.mark.parametrize("entries", [
        5, [5], [[2]], [[2, 8, 1]], [(2, 8)], [[0, None]], [[2.0, None]],
        [[True, None]], [[2, "8"]], [[2, 8.0]], [[2, [8, 8]]],
        [[2, [8, "4", 6]]], [[1, [8, None, 6]]], [[2, 1]], [[2, 33]],
        [[2, 0]], [[2, -8]]])
    def test_malformed_pairs_raise_manifest_error(self, entries):
        with pytest.raises(manifest.ManifestError):
            manifest.pairs_from_doc(entries)

    def test_widths_from_2_to_32_parse(self):
        entries = [[1, q] for q in range(2, 33)]
        assert manifest.pairs_from_doc(entries) \
            == tuple((1, q) for q in range(2, 33))


class TestStoredProfiles:
    def test_a_profile_is_its_pairs(self, certified):
        net = manifest.net_from_doc(certified)
        assert certified["profiles"] == {
            "low": {"pairs": [[2, 8], [1, None]]},
            "mid": {"pairs": [[3, None], [2, 4]]}}
        doc = manifest.network_to_doc(net)
        assert manifest.add_profile(doc, net, "p", [(1, 32), (2, 2)]) \
            == ((1, 32), (2, 2))
        assert doc["profiles"] == {"p": {"pairs": [[1, 32], [2, 2]]}}

    def test_only_float64_payloads_decode(self, tmp_path):
        for dtype in ("f32", "codes"):
            path = tmp_path / f"{dtype}.json"
            manifest.write_manifest(_raw_doc(4), path)
            payload = json.loads(path.read_text())["model"]["layers"][0][
                "weight"]
            assert payload["dtype"] == "f64"
            _edited(path, lambda doc: doc["model"]["layers"][0]["weight"]
                    .update(dtype=dtype))
            with pytest.raises(manifest.ManifestError,
                               match=f"unknown payload dtype '{dtype}'"):
                manifest.read_manifest(path)

    def test_a_rank_above_the_stored_rank_fails_verification(self,
                                                             certified):
        doc = copy.deepcopy(certified)
        doc["profiles"]["low"]["pairs"][1][0] = 4
        assert "profile low: layer 1: rank 4 above the stored rank 3" \
            in manifest.verify_manifest(doc)
