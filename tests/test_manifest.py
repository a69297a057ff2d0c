"""Manifest format: byte-identical rewrites, payload checksums, file modes,
profiles stored as their pairs, and re-verification of every certificate
ledger quantity."""

import base64
import copy
import json
import os
import stat

import numpy as np
import pytest

from elastiq import certificate, elastic, linalg, manifest, network


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _raw_doc(side, seed=0):
    """Raw one-layer model whose payload is a side x side f64 weight plus
    its bias: 8 * side * (side + 1) bytes."""
    rng = _rng(seed)
    return manifest.raw_model_to_doc(
        [rng.standard_normal((side, side))], [rng.standard_normal(side)])


def _payload_bytes(doc):
    return sum(int(p["bytes"]) for p in manifest._walk_payloads(doc))


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

    def test_only_float64_payloads_decode(self):
        payload = manifest.encode_array(np.arange(3.0))
        assert payload["dtype"] == "f64"
        for dtype in ("f32", "codes"):
            with pytest.raises(manifest.ManifestError,
                               match=f"unknown payload dtype '{dtype}'"):
                manifest.decode_payload(dict(payload, dtype=dtype))

    def test_a_rank_above_the_stored_rank_fails_verification(self,
                                                             certified):
        doc = copy.deepcopy(certified)
        doc["profiles"]["low"]["pairs"][1][0] = 4
        assert "profile low layer 1: rank 4 above the stored rank 3" \
            in manifest.verify_manifest(doc)
