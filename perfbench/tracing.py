"""Traced run: per-layer numbers from spans around every public function.

The layers are the elastiq modules. Each module's public functions are
replaced, on the module object, by a wrapper that records one span (name,
start, end, parent) per call; calls by bare name inside a module resolve
through the same module dict, so they are caught too. Spans are recorded
only inside a root span (one per stage, the preparation and the serve
phase), kept in
memory and written to trace.json at the end. A span's self time is its
duration minus its child spans' durations.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import inspect
import io
import json
import statistics
import time
import traceback
from array import array
from collections import defaultdict

import numpy as np

import checks
import harness
import workloads
from elastiq import (certificate, cli, controller, cost, elastic, linalg,
                     manifest, network, quant, train)

MODULES = (cli, manifest, linalg, elastic, quant, network, certificate, cost,
           controller, train)
# modules whose self time is not a named metric: conv-stack runs no plan,
# so controller's time there is always 0 (its calls are still counted)
UNTIMED_MODULES = ("controller",)
# functions whose array arguments are content-hashed for unique_ratio
HASHED = ("linalg.spectral_norm", "elastic.effective_weight")
HASH_SPAN = "perfbench.fingerprint"
# serve cycles over the profiles; a fixed count keeps call counts fixed
SERVE_CYCLES = {"dense": 200, "conv": 30}
BLOCK_TABLE_WORKLOADS = ("wide", "conv-stack")
IMPORT_REPS = 3


def short_name(fn_module, attr):
    return f"{fn_module.rsplit('.', 1)[-1]}.{attr}"


class Fingerprints:
    """Content digests of call arguments. Arrays are hashed by bytes;
    other objects (frozen dataclasses of arrays) once per object."""

    def __init__(self):
        self._by_id = {}

    def of(self, value):
        if isinstance(value, np.ndarray):
            h = hashlib.blake2b(value.tobytes(), digest_size=16)
            h.update(repr((value.shape, value.dtype.str)).encode())
            return h.hexdigest()
        if isinstance(value, (tuple, list)):
            return "(" + ",".join(self.of(v) for v in value) + ")"
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            hit = self._by_id.get(id(value))
            if hit is None:
                fields = [self.of(getattr(value, f.name))
                          for f in dataclasses.fields(value)]
                hit = (value, "{" + ",".join(fields) + "}")
                self._by_id[id(value)] = hit
            return hit[1]
        return repr(value)


class Tracer:
    """Span recorder that patches module attributes while installed."""

    def __init__(self, modules):
        self.modules = modules
        self.names = []
        self._ids = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = []
        self._patched = []
        self.fingerprints = Fingerprints()
        self.seen = defaultdict(set)
        self.forward_calls = []
        self.knapsack_upgrades = 0

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name):
        """A root span; wrapped functions record spans only inside one."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        self._stack.append(-1)
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)
            self._stack.pop()

    def _wrap(self, name, fn):
        nid = self._id(name)
        hash_id = self._id(HASH_SPAN) if name in HASHED else None
        is_forward = name == "network.forward"
        is_knapsack = name == "controller.greedy_knapsack"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            if hash_id is not None:
                h = tracer._open(hash_id)
                tracer.seen[name].add(tracer.fingerprints.of(
                    (args, tuple(sorted(kwargs.items())))))
                tracer._close(h)
            if is_forward:
                call = args + tuple(kwargs.values())
                tracer.forward_calls.append(
                    (call[0], np.shape(call[1]), call[2] if len(call) > 2
                     else None))
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if is_knapsack:
                tracer.knapsack_upgrades += len(result.trace)
            return result
        return wrapper

    def install(self):
        for mod in self.modules:
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                setattr(mod, attr, self._wrap(short_name(mod.__name__, attr),
                                              fn))
                self._patched.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in self._patched:
            setattr(mod, attr, fn)
        self._patched.clear()

    def durations(self):
        return np.frombuffer(self.end, dtype=np.int64) \
            - np.frombuffer(self.start, dtype=np.int64)

    def self_times(self):
        """Duration minus the durations of direct children, in ns."""
        dur = self.durations()
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child_sum = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child_sum, parent[has_parent], dur[has_parent])
        return dur - child_sum

    def subtree_self_sum(self, root):
        """Sum of self times over root and all its descendants, in ns."""
        selfs = self.self_times()
        parent = np.frombuffer(self.parent, dtype=np.int64)
        inside = np.zeros(len(parent), dtype=bool)
        inside[root] = True
        for i in range(root + 1, len(parent)):
            if parent[i] >= 0 and inside[parent[i]]:
                inside[i] = True
        return int(selfs[inside].sum())

    def table(self):
        """Per function: calls, self seconds, total seconds. Total counts a
        call only when no caller up the stack has the same name."""
        dur, selfs = self.durations(), self.self_times()
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        names, parent = self.names, self.parent
        for i in range(len(dur)):
            row = out[names[self.name[i]]]
            row["calls"] += 1
            row["self_s"] += float(selfs[i]) * 1e-9
            p, recursive = parent[i], False
            while p >= 0:
                if self.name[p] == self.name[i]:
                    recursive = True
                    break
                p = parent[p]
            if not recursive:
                row["total_s"] += float(dur[i]) * 1e-9
        return dict(out)

    def to_json(self):
        return {"names": self.names, "name": list(self.name),
                "start_ns": list(self.start), "end_ns": list(self.end),
                "parent": list(self.parent)}


def inprocess_execute(failures):
    """Executor for StageRunner: cli.main in this process, stdout kept."""
    def execute(argv):
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except Exception:  # noqa: BLE001 - a raising stage is a failed op
            code = None
            failures.append({"argv": argv,
                             "traceback": traceback.format_exc()})
        return code == 0, time.perf_counter() - t0, buf.getvalue().encode()
    return execute


def forward_gflops(tracer, forward_total_s):
    """FLOPs that cost.layer_cost computes for every traced forward call,
    per second of forward time, in GFLOP/s."""
    per_row = {}
    total = 0
    for net, shape, profile in tracer.forward_calls:
        conv = net.blocks[0].is_conv
        spatial = tuple(shape[-2:]) if conv else None
        rows = shape[0] if len(shape) == (4 if conv else 2) else 1
        pairs = network.resolve_profile(net, profile)
        key = (id(net), repr(pairs), spatial)
        if key not in per_row:
            per_row[key] = sum(c.flops for c in
                               cost.profile_costs(net, pairs, spatial))
        total += per_row[key] * rows
    return total / forward_total_s / 1e9 if forward_total_s > 0 else 0.0


def block_table(served, rows, reps):
    """Per block and served profile: forward µs on a one-block network fed
    the block's recorded input, next to cost.layer_cost FLOPs and bytes."""
    trace = network.forward(served.net, rows, None)
    out = []
    for i, blk in enumerate(served.net.blocks):
        one = network.Network(blocks=(blk,))
        x = trace.inputs[i]
        spatial = tuple(x.shape[-2:]) if blk.is_conv else None
        entries = {(blk.elastic.k_max, None)}
        entries |= {tuple(pairs[i]) for pairs in served.profiles}
        for k, q in sorted(entries, key=repr):
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                network.forward(one, x, [(k, q)])
                times.append(time.perf_counter() - t0)
            c = cost.layer_cost(blk.elastic, k, q, spatial)
            out.append({"block": i, "k": k, "q": q, "batch": len(x),
                        "forward_us": statistics.median(times) * 1e6,
                        "flops_per_row": c.flops,
                        "weight_bytes": c.weight_bytes,
                        "activation_bytes": c.activation_bytes})
    return out


def factorization_times(tracer, table_root):
    """Durations of elastic.from_dense / from_conv spans in one root."""
    names = {"elastic.from_dense", "elastic.from_conv"}
    dur = tracer.durations()
    out = []
    for i in range(table_root + 1, len(dur)):
        if tracer.parent[i] < 0:
            break
        name = tracer.names[tracer.name[i]]
        if name in names:
            out.append({"layer": len(out), "fn": name,
                        "seconds": float(dur[i]) * 1e-9})
    return out


def import_seconds():
    harness.run_child(["-c", "import elastiq"])
    walls = [harness.run_child(["-c", "import elastiq"])[1]
             for _ in range(IMPORT_REPS)]
    return statistics.median(walls)


# (function, aggregate, unit) reported on every workload
PER_FUNCTION = (
    ("manifest.read_manifest", "self_s", "s"),
    ("manifest.write_manifest", "self_s", "s"),
    ("manifest.verify_manifest", "total_s", "s"),
    ("linalg.svd_full", "calls", "count"),
    ("linalg.svd_full", "self_s", "s"),
    ("linalg.spectral_norm", "calls", "count"),
    ("linalg.spectral_norm", "self_s", "s"),
    ("linalg.tucker2_fit", "calls", "count"),
    ("network.weight_gain", "calls", "count"),
    ("elastic.residual_norm", "calls", "count"),
    ("elastic.effective_weight", "calls", "count"),
    ("elastic.effective_weight", "self_s", "s"),
    ("quant.quantize", "calls", "count"),
    ("quant.calibrate_scale", "self_s", "s"),
    ("network.forward", "calls", "count"),
    ("network.forward", "self_s", "s"),
    ("network.backprop", "calls", "count"),
    ("network.forward_tape", "calls", "count"),
    ("certificate.lipschitz_proxy", "calls", "count"),
    ("certificate.lipschitz_proxy", "self_s", "s"),
    ("certificate.calibrate", "self_s", "s"),
    ("certificate.expected_bound", "calls", "count"),
    ("cost.profile_costs", "calls", "count"),
    ("cost.fit_cost_model", "calls", "count"),
    ("controller.greedy_knapsack", "calls", "count"),
    ("controller.select_runtime", "calls", "count"),
    ("controller.isotonic_hinge", "calls", "count"),
    ("train.total_loss", "calls", "count"),
)


def per_layer_metrics(tracer, table, extra):
    def fn(name, key):
        return table.get(name, {}).get(key, 0 if key == "calls" else 0.0)

    metrics = {}
    for mod in MODULES:
        short = mod.__name__.rsplit(".", 1)[-1]
        rows = [r for n, r in table.items() if n.startswith(short + ".")]
        if short not in UNTIMED_MODULES:
            metrics[f"{short}.self_s"] = (sum(r["self_s"] for r in rows),
                                          "s")
        metrics[f"{short}.calls"] = (sum(r["calls"] for r in rows), "count")
    for name, key, unit in PER_FUNCTION:
        metrics[f"{name}.{key}"] = (fn(name, key), unit)
    for name in HASHED:
        calls = fn(name, "calls")
        metrics[f"{name}.unique_ratio"] = (
            len(tracer.seen[name]) / calls if calls else 0.0, "ratio")
    metrics.update(extra)
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def knapsack_priced(tracer):
    """cost.profile_costs spans called directly under greedy_knapsack."""
    names, nm, parent = tracer.names, tracer.name, tracer.parent
    return sum(1 for i in range(len(nm))
               if names[nm[i]] == "cost.profile_costs" and parent[i] >= 0
               and names[nm[parent[i]]] == "controller.greedy_knapsack")


def traced_run(name, seed, out_dir):
    harness.fresh_dir(out_dir)
    env = harness.environment()
    print("@@ env " + json.dumps(env, sort_keys=True))
    outcome = harness.Outcome()
    import_s = import_seconds()
    workloads.setup_inputs(name, out_dir, seed)
    wl = workloads.build(name, out_dir, seed)
    failures = []
    execute = inprocess_execute(failures)
    runner = harness.StageRunner(outcome)

    tracer = Tracer(MODULES)
    tracer.install()
    try:
        prepare_root = len(tracer.start)
        with tracer.root("prepare"):
            workloads.prepare(name, out_dir)
    finally:
        tracer.uninstall()

    plain = {}
    for j, stage in enumerate(wl.stages):
        runner.run(stage, j, execute)
        plain[j] = runner.walls[j][-1]

    tracer.install()
    traced, stage_roots = {}, {}
    try:
        for j, stage in enumerate(wl.stages):
            stage_roots[j] = len(tracer.start)

            def traced_execute(argv, stage=stage):
                with tracer.root(f"stage.{stage.metric}"):
                    return execute(argv)
            runner.run(stage, j, traced_execute)
            traced[j] = runner.walls[j][-1]
        with tracer.root("serve.load"):
            served = harness.load_and_warm(wl)[0]
        kind = "conv" if served.net.blocks[0].is_conv else "dense"
        server = harness.Server(served, wl.rows)
        with tracer.root("serve"):
            server.slice(cycles=SERVE_CYCLES[kind])
        outcome.attempted += server.done
    finally:
        tracer.uninstall()
    # a second plain pass, so the first one's warm-up is not counted as
    # tracing overhead
    for j, stage in enumerate(wl.stages):
        runner.run(stage, j, execute)
        plain[j] = min(plain[j], runner.walls[j][-1])

    outcome.check("serve", checks.served_logits_problems(
        served, wl.rows, server.outputs))
    outcome.check("certificate", checks.bound_problems(served, wl.rows))
    for j, root in stage_roots.items():
        dur = int(tracer.durations()[root])
        if tracer.subtree_self_sum(root) != dur:
            outcome.check("trace", [f"stage {j}: self times do not sum to "
                                    f"the stage wall"])

    table = tracer.table()
    fwd_total = table.get("network.forward", {}).get("total_s", 0.0)
    knap_priced = knapsack_priced(tracer)
    extra = {
        "cli.import_s": (import_s, "s"),
        "network.forward.gflops": (forward_gflops(tracer, fwd_total),
                                   "GFLOP/s"),
        "certificate.bound_over_drift": (
            checks.tightest_bound_over_drift(served, wl.rows), "ratio"),
        "controller.greedy_knapsack.accept_ratio": (
            tracer.knapsack_upgrades / knap_priced if knap_priced else 0.0,
            "ratio"),
        "trace.overhead_frac": (
            sum(traced.values()) / sum(plain.values()) - 1.0, "ratio"),
    }
    metrics = per_layer_metrics(tracer, table, extra)

    blocks, factorization = [], []
    if name in BLOCK_TABLE_WORKLOADS:
        blocks = block_table(served, wl.rows, 3 if kind == "conv" else 20)
        build = [stage_roots[j] for j, s in enumerate(wl.stages)
                 if s.metric == "decompose_s"]
        factorization = factorization_times(
            tracer, build[0] if build else prepare_root)
    for row in blocks:
        print("@@ block " + " ".join(f"{k}={v}" for k, v in row.items()))
    for row in factorization:
        print("@@ factorize " + " ".join(f"{k}={v}" for k, v in row.items()))
    top = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])[:15]
    for fname, row in top:
        print(f"@@ self {fname} calls={row['calls']} "
              f"self_s={row['self_s']!r} total_s={row['total_s']!r}")
    with open(out_dir / "trace.json", "w") as fh:
        json.dump({"env": env, "functions": table, "blocks": blocks,
                   "factorization": factorization,
                   "stage_wall_plain_s": plain, "stage_wall_traced_s": traced,
                   "failures": failures, "spans": tracer.to_json()}, fh)
    return harness.emit(outcome, metrics, out_dir, {"env": env})
