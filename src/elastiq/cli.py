"""Command-line pipeline around the manifest format.

Commands
--------
train       train the synthetic-task model and export a manifest; --config
            sets any of steps, lr, weights, log_every, train_bits,
            divergence_factor and divergence_patience
decompose   factorize a raw-weight manifest into servable elastic factors;
            each layer then serves any rank from 1 to its stored rank
certify     attach calibration statistics and a drift-certificate ledger
plan        price each layer's menu entries on a device (a seeded synthetic
            table, or --device-csv) and attach a budget-ordered lattice:
            one level per budget, all on one axis (--latency-ms, --bytes
            or --energy-mj; three latency budgets by default), each the
            assignment of least certificate mass that fits its budget
            among those nested under the next looser level
select      pick the fastest stored profile meeting budget and certificate
            on the lattice's device
report      per-profile quality/cost/drift table (text, optional CSV)
audit       count predicted-latency drops and drift-bound rises between
            adjacent levels of the stored lattice

The intended order is train (or decompose) -> certify -> plan -> select /
report / audit; certify requires a loadable model, plan requires a
certified manifest, and select/report/audit require a planned lattice.
certify drops a stored lattice, whose drift bounds came from the ledger it
replaces, so plan runs again after it. select, report and audit verify the
manifest they read (manifest.verify_manifest) and refuse a lattice beside a
ledger that is not certified before they trust its bounds.

Exit codes
----------
0   success
1   error: bad arguments, unreadable or inconsistent files, failed checks
2   certificate warning (select: the budget is met only by profiles whose
    drift bound exceeds epsilon)
3   infeasible (select: no stored profile fits the cost budget)
4   monotonicity violations found (audit)

Every command prints machine-readable lines of the form
``@@ <topic> key=value key=value ...`` alongside any human-readable text;
floats are printed with shortest round-trip precision. Reruns with
identical arguments and seeds produce byte-identical stdout and files at a
fixed BLAS thread count (e.g. OPENBLAS_NUM_THREADS): LAPACK's SVD may
round differently when the thread count changes on large matrices.

Calibration probes
------------------
Commands that need model inputs (certify, report) draw standard-normal
probes from --seed by default — matching the standardized synthetic task
— or load array ``x`` from an .npz file given via --calib. ``x`` carries a
leading batch axis: (rows, features) for a dense model, (maps, channels,
H, W) for a conv model. Synthesized probes cover dense stacks only; conv
models must supply --calib. certify records a conv model's map size
(H, W); plan reads no inputs and prices conv layers at that size, and
report refuses conv inputs of any other size.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import sys
import zipfile

import numpy as np

from . import certificate
from . import controller
from . import cost
from . import elastic
from . import manifest
from . import network
from . import quant

# exit codes
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CERT_WARNING = 2
EXIT_INFEASIBLE = 3
EXIT_AUDIT_VIOLATIONS = 4

SENTINEL = "@@"

_DECOMPOSE_RECON_LIMIT = 1e-7
_MENU_FRACS = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)
_MENU_BITS = (4, 8, None)
_AUTO_BUDGET_FRACS = (0.25, 0.5, 1.0)
_AUTO_BUDGET_SLACK = 1.05
_MAX_BUDGETS = 8


class CliError(Exception):
    """User-facing command failure; message printed, exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so bad usage exits 1.

    A token starting with "-" and then a digit, ".digit", "inf" or "nan"
    is a value, so "--epsilon -1e-3" reaches the command's own checks.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _fmt_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def say(topic, **fields):
    """Print one machine-readable sentinel line."""
    parts = [SENTINEL, str(topic)]
    parts += [f"{key}={_fmt_value(value)}" for key, value in fields.items()]
    print(" ".join(parts))


# what reading a missing, truncated, empty or malformed .npz file raises
_NPZ_ERRORS = (OSError, EOFError, zipfile.BadZipFile, KeyError, TypeError,
               ValueError)


def _probe_inputs(net, n, seed, calib_path=None):
    """Model inputs for calibration: a batch from an .npz file or seeded
    N(0,1) rows."""
    first = net.blocks[0]
    if calib_path is not None:
        try:
            with np.load(calib_path) as data:
                xs = np.asarray(data["x"], dtype=np.float64)
        except _NPZ_ERRORS as exc:
            raise CliError(f"cannot load calibration inputs: {exc}") from exc
        if xs.ndim == 0 or xs.shape[0] < 1:
            raise CliError("calibration file holds no inputs")
        want = 4 if first.is_conv else 2
        if xs.ndim != want:
            raise CliError(f"calibration x must be {want}-D with a leading "
                           f"batch axis, got shape {xs.shape}")
        if not np.isfinite(xs).all():
            raise CliError("calibration inputs must be finite")
        return xs
    if first.is_conv:
        raise CliError("synthesized probes cover dense stacks only; "
                       "conv models need --calib")
    if int(n) < 1:
        raise CliError(f"probe count must be at least 1, got {n}")
    rng = np.random.default_rng(int(seed))
    return rng.standard_normal((int(n), first.elastic.in_features))


def _check_epsilon(epsilon):
    """A drift tolerance is a finite float >= 0; returns it."""
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise CliError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    return epsilon


def _ledger_epsilon(doc):
    with manifest._malformed("certificate"):
        eps = (doc.get("certificate") or {}).get("epsilon")
        return None if eps is None else manifest.parse_float(eps)


def _stored_stats(doc):
    sec = doc.get("calibration")
    if sec is None:
        raise CliError("manifest carries no calibration statistics; "
                       "run certify first")
    return manifest.stats_from_doc(sec)


def _certified_spatial(net, stats):
    """The (H, W) a conv model was calibrated at; None for a dense one."""
    if net.blocks[0].is_conv and stats.spatial is None:
        raise CliError("calibration statistics record no feature-map size "
                       "(an older certify wrote them); run certify again")
    return stats.spatial


@contextlib.contextmanager
def _publish(doc, path, calibration_inputs=None):
    """Write a manifest under a sibling temporary name, run the body (the
    command's report lines), self-verify, and only then rename it onto
    path. On any failure the temporary file goes and path is untouched.
    """
    path = str(path)
    with manifest._atomic_write(path) as tmp:
        data = manifest.write_manifest(doc, tmp)
        say("manifest", path=path, sha256=hashlib.sha256(data).hexdigest())
        yield
        problems = manifest.verify_manifest(
            tmp, calibration_inputs=calibration_inputs)
        say("verify", problems=len(problems))
        for p in problems:
            print(f"verify: {p}", file=sys.stderr)
        if problems:
            raise CliError("written manifest failed self-verification")


# ---------------------------------------------------------------------------
# train


def _load_train_config(path):
    from . import train

    if path is None:
        return train.TrainConfig()
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read config: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError("config must be a JSON object")
    known = {f.name for f in dataclasses.fields(train.TrainConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise CliError(f"unknown config keys: {', '.join(unknown)}")
    if "weights" in data:
        try:
            data["weights"] = train.LossWeights(**data["weights"])
        except (TypeError, ValueError) as exc:
            raise CliError(f"bad loss weights: {exc}") from exc
    try:
        return train.TrainConfig(**data)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad config: {exc}") from exc


def cmd_train(args):
    # imported here, so only train pays for importing the trainer
    from . import train

    if args.stop_after is not None and args.stop_after < 1:
        raise CliError(f"--stop-after must be at least 1, got "
                       f"{args.stop_after}")
    config = _load_train_config(args.config)
    digest = manifest.config_hash(dataclasses.asdict(config))
    state = None
    if args.resume is not None:
        try:
            state = train.load_checkpoint(args.resume, digest, args.seed)
        except (*_NPZ_ERRORS, manifest.ManifestError) as exc:
            raise CliError(f"cannot resume: {exc}") from exc
    state, report = train.train_toy(config, args.seed, state=state,
                                    stop_after=args.stop_after)
    os.makedirs(args.out, exist_ok=True)
    ckpt = os.path.join(args.out, "checkpoint.npz")
    train.save_checkpoint(state, ckpt, digest, args.seed)
    metrics_csv = os.path.join(args.out, "metrics.csv")
    train.write_metrics_csv(state.metrics, metrics_csv)

    doc = manifest.network_to_doc(state.net, seed=args.seed,
                                  config_digest=digest, source="train")
    for name, pairs in report.profiles.items():
        manifest.add_profile(doc, state.net, name, pairs)
    doc["calibration"] = manifest.stats_to_doc(report.stats)
    with _publish(doc, os.path.join(args.out, "model.json")):
        say("train", seed=args.seed, steps=state.step,
            final_loss=report.final_loss, config_hash=digest,
            checkpoint=ckpt, metrics=metrics_csv)
        for name in report.profiles:
            say("eval", profile=name, accuracy=report.accuracy[name],
                violation_rate=report.violation_rate[name],
                drift_bound=report.drift_bound[name],
                mean_drift=report.mean_drift[name])
    return EXIT_OK


# ---------------------------------------------------------------------------
# decompose


def cmd_decompose(args):
    doc = manifest.read_manifest(args.model)
    layers = manifest.raw_from_doc(doc)
    with manifest._malformed("provenance"):
        seed = doc.get("provenance", {}).get("seed")
    blocks = []
    for entry in layers:
        maker = elastic.from_conv if entry["kind"] == "conv" \
            else elastic.from_dense
        try:
            lay = maker(entry["weight"], bias=entry["bias"])
        except ValueError as exc:
            raise CliError(f"layer {len(blocks)}: {exc}") from exc
        blocks.append(network.Block(elastic=lay,
                                    activation=entry["activation"],
                                    residual=entry["residual"]))
    net = network.Network(blocks=tuple(blocks))

    worst = 0.0
    for i, (entry, blk) in enumerate(zip(layers, net.blocks)):
        w = entry["weight"]
        recon = elastic.effective_weight(blk.elastic, blk.elastic.k_max)
        denom = max(float(np.linalg.norm(w)), 1e-300)
        rel = float(np.linalg.norm(w - recon)) / denom
        worst = max(worst, rel)
        say("layer", index=i, kind=blk.elastic.kind,
            k_max=blk.elastic.k_max, recon_rel=rel)
    if worst > _DECOMPOSE_RECON_LIMIT:
        raise CliError(f"full-rank reconstruction error {worst!r} exceeds "
                       f"{_DECOMPOSE_RECON_LIMIT!r}")

    out = manifest.network_to_doc(net, seed=seed, source="decompose")
    with _publish(out, args.out):
        say("decompose", layers=len(net.blocks), recon_rel_max=worst)
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify


def _parse_profile_flag(spec):
    """Parse --profiles entries "k[:bits]" into (name, k, bits) triples."""
    out = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        k, _, bits = item.partition(":")
        try:
            k = int(k)
            bits = int(bits) if bits else None
        except ValueError as exc:
            raise CliError(f"bad profile entry {item!r}") from exc
        if k < 1:
            raise CliError(f"bad profile entry {item!r}: rank must be at "
                           f"least 1")
        if bits is not None and not \
                quant.MIN_BITS <= bits <= cost.UNQUANTIZED_BITS:
            raise CliError(f"bad profile entry {item!r}: bits must lie in "
                           f"[{quant.MIN_BITS}, {cost.UNQUANTIZED_BITS}]")
        name = f"r{k}" if bits is None else f"r{k}b{bits}"
        out.append((name, k, bits))
    if not out:
        raise CliError("--profiles names no profiles")
    return out


def cmd_certify(args):
    if args.epsilon is not None:
        _check_epsilon(args.epsilon)
    doc = manifest.read_manifest(args.model)
    net = manifest.net_from_doc(doc)
    probes = _probe_inputs(net, args.calib_size, args.seed, args.calib)
    stats = certificate.calibrate(net, probes)
    with manifest._malformed("profiles"):
        profiles = {name: manifest.pairs_from_doc(sec["pairs"])
                    for name, sec in sorted(doc.get("profiles", {}).items())}
    if profiles and args.profiles:
        raise CliError("manifest already stores profiles; certify them "
                       "without --profiles")
    if args.profiles:
        for name, k, bits in _parse_profile_flag(args.profiles):
            profiles[name] = manifest.add_profile(
                doc, net, name, network.rank_profile(net, k, bits))
    elif not profiles:
        raise CliError("manifest stores no profiles; pass --profiles")
    ledgers = certificate.ledgers(net, stats, list(profiles.values()),
                                  args.mode, calibration_inputs=probes)
    doc["calibration"] = manifest.stats_to_doc(stats)
    doc["certificate"] = manifest.certificate_section(
        stats, profiles, ledgers, args.mode, epsilon=args.epsilon)
    # a lattice's drift bounds come from the ledger just replaced
    doc.pop("lattice", None)
    cert = doc["certificate"]
    with _publish(doc, args.out or args.model, calibration_inputs=probes):
        say("certify", mode=cert["mode"], certified=cert["certified"],
            profiles=len(profiles), calib_count=stats.count,
            epsilon=args.epsilon)
        for name in sorted(profiles):
            say("ledger", profile=name,
                delta_hat=manifest.parse_float(
                    cert["profiles"][name]["delta_hat"]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# plan


def _rank_ladder(k_max, fracs):
    return sorted({max(1, round(f * k_max)) for f in fracs} | {k_max})


def _canonical_menus(net):
    """Per-layer (rank, bits) menus: a rank ladder crossed with bit
    widths, strictly ascending in (rank, effective width)."""
    menus = []
    for blk in net.blocks:
        ks = _rank_ladder(blk.elastic.k_max, _MENU_FRACS)
        menus.append([(k, b) for k in ks for b in _MENU_BITS])
    return menus


_BUDGET_FLAGS = (("--latency-ms", "latency_ms", "latency_target", float),
                 ("--bytes", "bytes", "bytes_target", int),
                 ("--energy-mj", "energy_mj", "energy_target", float))


def _parse_budget_list(args):
    """plan's one budget axis: (BudgetToken field, values), or None when
    no budget flag is given."""
    given = [spec for spec in _BUDGET_FLAGS
             if getattr(args, spec[1]) is not None]
    if not given:
        return None
    if len(given) > 1:
        raise CliError("plan takes one budget axis: give one of "
                       "--latency-ms, --bytes, --energy-mj")
    flag, attr, field, conv = given[0]
    text = getattr(args, attr)
    try:
        values = [conv(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(f"bad {flag} list: {text!r}") from exc
    if not values:
        raise CliError(f"{flag} names no budgets")
    return field, values


def _check_certified(doc):
    """Refuse a sampled ledger: its bounds can undershoot."""
    cert = doc.get("certificate")
    if cert is None:
        raise CliError("manifest carries no certificate; run certify first")
    with manifest._malformed("certificate"):
        if cert.get("certified") is not True:
            raise CliError(f"the {cert.get('mode')} ledger is not "
                           f"certified; run certify --mode conservative")


def cmd_plan(args):
    axis = _parse_budget_list(args)
    doc = manifest.read_manifest(args.model)
    net = manifest.net_from_doc(doc)
    stats = _stored_stats(doc)
    _check_certified(doc)
    spatial = _certified_spatial(net, stats)

    menus = _canonical_menus(net)
    benefit = controller.certificate_mass(net, stats, menus)
    if args.device_csv is not None:
        table = cost.read_device_table(args.device_csv,
                                       device=args.device or "imported")
    else:
        table = cost.synth_device_table(net, menus, spatial,
                                        device=args.device or "synth0",
                                        seed=args.seed)

    source = "flags"
    if axis is None:
        full = [(blk.elastic.k_max, None) for blk in net.blocks]
        base = cost.profile_price(table, full)
        axis = "latency_target", sorted({f * base * _AUTO_BUDGET_SLACK
                                         for f in _AUTO_BUDGET_FRACS})
        source = "auto"
    field, values = axis
    if field == "energy_target" and not table.has_energy:
        raise CliError("energy budgets need a device table with an "
                       "energy column")
    budgets = [controller.BudgetToken(device=table.device, **{field: v})
               for v in values]
    if len(budgets) > _MAX_BUDGETS:
        raise CliError(f"lattice supports 1 to {_MAX_BUDGETS} budget levels")
    if any(b < a for a, b in zip(values, values[1:])):
        raise CliError("budgets must be ordered tightest first")
    lattice, ledgers = controller.build_lattice(net, menus, budgets,
                                                benefit, stats, table)
    say("budgets", source=source, count=len(budgets))
    # a level meets its own budget exactly when its allocation was feasible
    say("plan", budgets=len(budgets),
        smallest_budget_feasible=lattice.meets(0, budgets[0]))

    named = {}
    for prof in lattice.profiles:
        manifest.add_profile(doc, net, prof.name, prof.pairs)
        named[prof.name] = prof.pairs
    doc["lattice"] = manifest.lattice_to_doc(lattice)
    doc["certificate"] = manifest.certificate_section(
        stats, named, ledgers, epsilon=_ledger_epsilon(doc))
    audit = controller.audit_monotone(lattice)
    say("audit", pairs=audit.pairs, latency=audit.latency_events,
        drift=audit.drift_events, violation_percent=audit.violation_percent)
    for j, prof in enumerate(lattice.profiles):
        say("level", profile=prof.name,
            predicted_latency_ms=lattice.predicted_latency[j],
            weight_bytes=lattice.weight_bytes[j],
            drift_bound=lattice.drift_bound[j])
    with _publish(doc, args.out or args.model):
        pass
    return EXIT_OK


# ---------------------------------------------------------------------------
# select / report / audit


def _stored_lattice(doc):
    """The planned lattice of a manifest that verifies, beside a
    certified ledger; anything else is refused."""
    sec = doc.get("lattice")
    if sec is None:
        raise CliError("manifest carries no profile lattice; run plan first")
    _check_certified(doc)
    problems = manifest.verify_manifest(doc)
    if problems:
        raise CliError(f"manifest fails verification: {'; '.join(problems)}")
    return manifest.lattice_from_doc(sec)


def _select_epsilon(args, doc):
    if args.epsilon is not None:
        return _check_epsilon(float(args.epsilon))
    eps = _ledger_epsilon(doc)
    if eps is None:
        raise CliError("no epsilon stored in the certificate; "
                       "pass --epsilon")
    return _check_epsilon(eps)


def cmd_select(args):
    doc = manifest.read_manifest(args.model)
    lattice = _stored_lattice(doc)
    epsilon = _select_epsilon(args, doc)
    if args.latency_ms is None and args.bytes is None \
            and args.energy_mj is None:
        raise CliError("give at least one of --latency-ms, --bytes, "
                       "--energy-mj")
    budget = controller.BudgetToken(
        device=lattice.device or "device", latency_target=args.latency_ms,
        bytes_target=args.bytes, energy_target=args.energy_mj)
    result = controller.select_runtime(lattice, budget, epsilon)
    say("select", profile=result.profile.name, index=result.index,
        status=result.status, predicted_latency_ms=result.predicted_latency,
        drift_bound=result.drift_bound, epsilon=epsilon)
    if result.status == controller.OK:
        return EXIT_OK
    if result.status == controller.CERT_WARNING:
        return EXIT_CERT_WARNING
    return EXIT_INFEASIBLE


_REPORT_COLUMNS = ("profile", "accuracy_percent", "predicted_latency_ms",
                   "weight_bytes", "drift_bound", "coverage_percent",
                   "violation_percent")


def cmd_report(args):
    doc = manifest.read_manifest(args.model)
    net = manifest.net_from_doc(doc)
    lattice = _stored_lattice(doc)
    epsilon = _select_epsilon(args, doc)
    xs = _probe_inputs(net, args.probes, args.seed, args.calib)
    if net.blocks[0].is_conv:
        spatial = _certified_spatial(net, _stored_stats(doc))
        h, w = xs.shape[-2:]
        if (h, w) != spatial:
            raise CliError(f"inputs are {h}x{w} maps, but the lattice's "
                           f"bounds hold at the certified "
                           f"{spatial[0]}x{spatial[1]}")

    # axis 1 holds the classes of dense and of conv logits
    full = network.forward(net, xs, None).logits
    full_top = np.argmax(full, axis=1)
    rows, drifts_by_level = [], []
    for j, prof in enumerate(lattice.profiles):
        logits = network.forward(net, xs, prof.pairs).logits
        top = np.argmax(logits, axis=1)
        drifts = network._drift(logits, full)
        drifts_by_level.append(drifts)
        coverage = float(100.0 * np.mean(drifts <= epsilon))
        rows.append({
            "profile": prof.name,
            "accuracy_percent": float(100.0 * np.mean(top == full_top)),
            "predicted_latency_ms": float(lattice.predicted_latency[j]),
            "weight_bytes": int(lattice.weight_bytes[j]),
            "drift_bound": float(lattice.drift_bound[j]),
            "coverage_percent": coverage,
            "violation_percent": float(100.0 - coverage),
        })

    header = ("profile      accuracy%   latency_ms  weight_bytes"
              "  drift_bound  coverage%  violation%")
    print(header)
    for r in rows:
        print(f"{r['profile']:<12} {r['accuracy_percent']:>9.3f}"
              f" {r['predicted_latency_ms']:>12.6f}"
              f" {r['weight_bytes']:>13d}"
              f" {r['drift_bound']:>12.6f}"
              f" {r['coverage_percent']:>10.3f}"
              f" {r['violation_percent']:>11.3f}")
        say("row", **r)

    if len(lattice.profiles) >= 2:
        _say_diagnostics(lattice.drift_bound, drifts_by_level, epsilon)
    audit = controller.audit_monotone(lattice)
    say("audit", pairs=audit.pairs, latency=audit.latency_events,
        drift=audit.drift_events, violation_percent=audit.violation_percent)

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=_REPORT_COLUMNS)
            writer.writeheader()
            for r in rows:
                writer.writerow({key: (repr(v) if isinstance(v, float)
                                       else v)
                                 for key, v in r.items()})
        say("csv", path=args.out)
    return EXIT_OK


def _say_diagnostics(bounds, drifts_by_level, epsilon):
    """Coverage (the share of (level, probe) drifts within epsilon), the
    Pearson correlation of each level's stored bound with its mean drift
    (undefined when either is constant or the value overflows), the mean
    drift and the 95th percentile of the bounds."""
    flat = np.concatenate(drifts_by_level)
    dh = np.asarray(bounds)
    md = np.asarray([float(np.mean(d)) for d in drifts_by_level])
    with np.errstate(over="ignore", invalid="ignore"):
        sx, sy = float(np.std(dh)), float(np.std(md))
        pearson = float(np.mean((dh - dh.mean()) * (md - md.mean()))
                        / (sx * sy)) if 0.0 < sx * sy < math.inf \
            else math.nan
    defined = math.isfinite(pearson)
    pearson = pearson if defined else None
    say("diagnostics", epsilon=epsilon,
        coverage_percent=float(100.0 * np.mean(flat <= epsilon)),
        pearson=pearson, correlation_defined=defined,
        mean_drift=float(np.mean(flat)),
        delta_hat_p95=float(np.percentile(dh, 95)))


def cmd_audit(args):
    doc = manifest.read_manifest(args.model)
    lattice = _stored_lattice(doc)
    audit = controller.audit_monotone(lattice)
    say("audit", pairs=audit.pairs, latency=audit.latency_events,
        drift=audit.drift_events, violation_percent=audit.violation_percent)
    events = audit.latency_events + audit.drift_events
    return EXIT_AUDIT_VIOLATIONS if events else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_seed(p):
    p.add_argument("--seed", type=int, default=0,
                   help="seed for every stochastic choice (default 0)")


def build_parser():
    parser = _Parser(prog="elastiq",
                     description="train-once, steer-at-test-time tensor "
                                 "compression toolkit")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("train", help="train the synthetic task and export")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None,
                   help="JSON object of training settings, any of steps, "
                        "lr, weights, log_every, train_bits, "
                        "divergence_factor, divergence_patience")
    p.add_argument("--stop-after", type=int, default=None,
                   help="pause after this many steps (checkpoint resumes)")
    p.add_argument("--resume", default=None, metavar="CKPT",
                   help="resume from a checkpoint (same config and seed "
                        "required)")
    _add_seed(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("decompose", help="factorize a raw-weight manifest")
    p.add_argument("model", help="raw model manifest (json)")
    p.add_argument("--out", required=True, help="output manifest path")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("certify",
                       help="attach calibration stats and a drift ledger")
    p.add_argument("model", help="elastic model manifest")
    p.add_argument("--out", default=None,
                   help="output path (default: rewrite in place)")
    p.add_argument("--mode", choices=("conservative", "poweriter"),
                   default="conservative")
    p.add_argument("--epsilon", type=float, default=None,
                   help="drift tolerance recorded in the ledger")
    p.add_argument("--profiles", default=None, metavar="K[:BITS],...",
                   help="uniform-rank profiles to store and certify, each "
                        f"rank K at BITS from {quant.MIN_BITS} to "
                        f"{cost.UNQUANTIZED_BITS} (default: float); "
                        "only for a manifest that stores none")
    p.add_argument("--calib", default=None, metavar="NPZ",
                   help="optional .npz with array 'x' of model inputs")
    p.add_argument("--calib-size", type=int, default=256,
                   help="synthesized probe count (default 256)")
    _add_seed(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("plan",
                       help="price menu entries and build the lattice")
    p.add_argument("model", help="certified model manifest")
    p.add_argument("--out", default=None,
                   help="output path (default: rewrite in place)")
    p.add_argument("--device-csv", default=None,
                   help="per-layer device table (layer,rank,bits,latency_"
                        "ms,energy_mj); default: synthesized from --seed")
    p.add_argument("--device", default=None,
                   help="device id (default synth0 / imported)")
    p.add_argument("--latency-ms", default=None,
                   help="comma-separated latency budgets, tightest first")
    p.add_argument("--bytes", default=None,
                   help="comma-separated weight-byte budgets")
    p.add_argument("--energy-mj", default=None,
                   help="comma-separated energy budgets")
    _add_seed(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("select",
                       help="pick the fastest stored profile for a budget "
                            "on the lattice's device")
    p.add_argument("model", help="planned model manifest")
    p.add_argument("--latency-ms", type=float, default=None)
    p.add_argument("--bytes", type=int, default=None)
    p.add_argument("--energy-mj", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None,
                   help="drift tolerance (default: the ledger's)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("report",
                       help="per-profile quality/cost/drift table")
    p.add_argument("model", help="planned model manifest")
    p.add_argument("--out", default=None, help="also write this CSV")
    p.add_argument("--epsilon", type=float, default=None,
                   help="drift tolerance (default: the ledger's)")
    p.add_argument("--probes", type=int, default=256,
                   help="evaluation probe count (default 256)")
    p.add_argument("--calib", default=None, metavar="NPZ",
                   help="optional .npz with array 'x' of eval inputs")
    _add_seed(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("audit",
                       help="count predicted-latency drops and drift-bound "
                            "rises along the stored lattice")
    p.add_argument("model", help="planned model manifest")
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_help()
            return EXIT_ERROR
        return args.func(args)
    except (CliError, manifest.ManifestError, RuntimeError, OSError,
            ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
