"""Timed run: fresh-process CLI passes, in-process serving, output checks."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
import workloads
from elastiq import controller, manifest, network

CHILD_TIMEOUT_S = 120
# every model is timed at least this often, so its rerun is checked
MIN_REPS = 2
SETUP_REPS = 30
# seconds of serving after every timed CLI command; the first cycle over the
# profiles in each slice is a warm-up, served and checked but not timed
SLICE_S = 0.3
# seconds of batch forwards (whole cycles over the profiles, at least one)
# that close every slice
BATCH_S = 0.1

ROOT = Path(__file__).resolve().parent.parent


class Outcome:
    """Operations attempted and failed, plus every failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.log = []

    def op(self, what, ok, detail=""):
        self.attempted += 1
        self.failed += not ok
        self.log.append({"op": what, "ok": bool(ok), "detail": detail})

    def check(self, what, problems):
        self.problems += [f"{what}: {p}" for p in problems]


def environment():
    """Thread pins, core count, interpreter and library versions, BLAS
    build and git sha, recorded with every result."""
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30,
                             check=False).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": sha,
    }


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args):
    """Run `python <args>` to completion: (exit code, wall s, stdout).

    A child that outlives CHILD_TIMEOUT_S is killed and reported as exit
    code None.
    """
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], env=child_env(),
                              cwd=ROOT, stdin=subprocess.DEVNULL,
                              capture_output=True, timeout=CHILD_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired as exc:
        return None, time.perf_counter() - t0, exc.stdout or b""
    return proc.returncode, time.perf_counter() - t0, proc.stdout


def file_digests(paths):
    out = []
    for p in paths:
        for q in (Path(p), Path(manifest.sidecar_path(p))):
            if q.exists():
                out.append((q.name, hashlib.sha256(q.read_bytes())
                            .hexdigest()))
    return tuple(out)


def select_problems(plan, stdout):
    """CLI select must agree with controller.select_runtime in-process."""
    lattice, lat, eps = workloads.select_query(plan)
    want = controller.select_runtime(
        lattice, controller.BudgetToken(device=lattice.device,
                                        latency_target=lat), eps)
    line = f"profile={want.profile.name} index={want.index} status=ok "
    text = stdout.decode("ascii", "replace")
    return [] if line in text else [f"select printed no '{line.strip()}'"]


class StageRunner:
    """Runs stages, keeps their walls and checks reruns are identical."""

    def __init__(self, outcome):
        self.outcome = outcome
        self.walls = defaultdict(list)
        self.first = {}

    def run(self, stage, key, execute):
        """execute(argv) -> (ok, wall, stdout). key names one stage of one
        model: it keys the walls and the rerun checks."""
        try:
            argv = stage.argv()
        except (manifest.ManifestError, OSError, KeyError) as exc:
            self.outcome.op(stage.metric, False, f"no input: {exc}")
            return False
        ok, wall, stdout = execute(argv)
        self.outcome.op(" ".join(argv[:1]), ok,
                        "" if ok else stdout[-500:].decode("ascii", "replace"))
        self.walls[key].append(wall)
        digest = (stdout, file_digests(stage.outputs) if ok else ())
        where = f"{argv[0]} ({key})"
        if key not in self.first:
            self.first[key] = digest
            if ok:
                self.first_checks(stage, where, stdout)
        elif digest != self.first[key]:
            self.outcome.check(where, ["rerun stdout or output files differ"])
        return ok

    def first_checks(self, stage, where, stdout):
        for path in stage.manifests:
            self.outcome.check(where, manifest.verify_manifest(path))
        if stage.check_select:
            plan = Path(stage.argv()[1])
            self.outcome.check(where, select_problems(plan, stdout))


def cli_execute(argv):
    code, wall, stdout = run_child(["-m", "elastiq.cli", *argv])
    return code == 0, wall, stdout


def load_and_warm(wl):
    """Load the served manifest and run one warm-up request per profile;
    returns the served model and the wall seconds this took."""
    t0 = time.perf_counter()
    served = workloads.load_served(wl)
    for pairs in served.profiles:
        network.forward(served.net, wl.rows[0], pairs)
    return served, time.perf_counter() - t0


def peak_rss_mb():
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def fresh_dir(out_dir):
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)


def emit(outcome, metrics, out_dir, extra):
    correct = not outcome.problems
    for p in outcome.problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {"correct": correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    with open(out_dir / "result.json", "w") as fh:
        json.dump({**result, **extra, "operations": outcome.log,
                   "problems": outcome.problems}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


def wall_of(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class Server:
    """Closed-loop serving with one client, in slices spread over the run.

    Request i runs row (i // P) mod rows at profile i mod P (P served
    profiles) through network.forward and is timed alone. Every slice
    ends with batch forwards of all rows, cycling over the profiles.

    The host this was tuned on switches between a fast and a slow state
    for seconds at a time, so request latencies are bimodal and the share
    of fast requests changes from run to run. A run-wide median jumps
    between the two modes with that share; the mean over slices of each
    slice's median moves smoothly with it. Batch times are summarized the
    same way.
    """

    def __init__(self, served, rows):
        self.served, self.rows = served, rows
        n_prof = len(served.profiles)
        self.latency = [[] for _ in range(n_prof)]
        self.slice_p50 = [[] for _ in range(n_prof)]
        self.slice_batch = [[] for _ in range(n_prof)]
        self.outputs = defaultdict(list)
        self.done = 0

    def request(self, timed):
        net, profiles, rows = self.served.net, self.served.profiles, self.rows
        i, n_prof = self.done, len(profiles)
        j, r = i % n_prof, (i // n_prof) % len(rows)
        t0 = time.perf_counter()
        z = network.forward(net, rows[r], profiles[j]).logits
        dt = time.perf_counter() - t0
        if timed:
            self.latency[j].append(dt)
        if i < len(rows) * n_prof:
            self.outputs[j].append((r, z))
        self.done += 1

    def slice(self, seconds=None, cycles=None, batch_s=0.0):
        """After one warm-up cycle over the profiles, serve whole timed
        cycles for `seconds` (at least one), or exactly `cycles` of them;
        then batch cycles for `batch_s` seconds (at least one)."""
        n_prof = len(self.served.profiles)
        for _ in range(n_prof):
            self.request(False)
        starts = [len(lat) for lat in self.latency]
        t_end = time.perf_counter() + (seconds or 0.0)
        done = 0
        while True:
            for _ in range(n_prof):
                self.request(True)
            done += 1
            if done >= cycles if cycles else time.perf_counter() >= t_end:
                break
        for lat, start, p50 in zip(self.latency, starts, self.slice_p50):
            p50.append(statistics.median(lat[start:]))
        batch = [[] for _ in range(n_prof)]
        t_end = time.perf_counter() + batch_s
        while True:
            for j, pairs in enumerate(self.served.profiles):
                t0 = time.perf_counter()
                network.forward(self.served.net, self.rows, pairs)
                batch[j].append(time.perf_counter() - t0)
            if time.perf_counter() >= t_end:
                break
        for times, out in zip(batch, self.slice_batch):
            out.append(statistics.median(times))

    def p50_ms(self):
        """Per profile the mean over slices of the slice's median request
        latency, averaged over the profiles, in ms."""
        return 1e3 * statistics.fmean(statistics.fmean(p50)
                                      for p50 in self.slice_p50)

    def p90_ms(self):
        """Per profile the 90th percentile of its request latencies over
        the whole run, averaged over the profiles, in ms."""
        return 1e3 * statistics.fmean(float(np.quantile(lat, 0.9))
                                      for lat in self.latency)

    def rows_per_s(self):
        """Batch rows per second over one cycle of the served profiles,
        each profile timed by the mean over slices of the slice's median
        batch forward."""
        cycle = sum(statistics.fmean(t) for t in self.slice_batch)
        return len(self.rows) * len(self.slice_batch) / cycle


def timed_run(name, seed, seconds, out_dir):
    fresh_dir(out_dir)
    env = environment()
    print("@@ env " + json.dumps(env, sort_keys=True))
    outcome = Outcome()
    # compile bytecode once, so no timed child pays for it
    run_child(["-c", "import elastiq"])

    n_models = workloads.MODELS[name]
    dirs = [out_dir / f"m{i}" for i in range(n_models)]
    seeds = [workloads.model_seed(seed, i) for i in range(n_models)]
    for d in dirs:
        d.mkdir()

    def generate():
        for d, s in zip(dirs, seeds):
            workloads.setup_inputs(name, d, s)
    gen = wall_of(generate)
    prepare_s = wall_of(lambda: [workloads.prepare(name, d) for d in dirs])
    print(f"@@ prepare_s={prepare_s!r}")
    models = [workloads.build(name, d, s) for d, s in zip(dirs, seeds)]
    wl = models[0]

    t0 = time.perf_counter()
    runner = StageRunner(outcome)
    for j, stage in enumerate(wl.stages):
        runner.run(stage, (0, j), cli_execute)
    served, load = load_and_warm(wl)
    setup = [gen + load]
    server = Server(served, wl.rows)

    def setup_round():
        # regenerating rewrites the same bytes; reloading is what serving
        # pays, so set-up rounds can sit anywhere in the run
        setup.append(wall_of(generate) + load_and_warm(wl)[1])

    passes = 1
    while passes < MIN_REPS * n_models or time.perf_counter() - t0 < seconds:
        m = passes % n_models
        for j, stage in enumerate(models[m].stages):
            for _ in range(stage.repeat):
                runner.run(stage, (m, j), cli_execute)
                server.slice(SLICE_S, batch_s=BATCH_S)
                setup_round()
        passes += 1
    while len(setup) < SETUP_REPS:
        setup_round()
    outcome.attempted += server.done
    outcome.check("serve", checks.served_logits_problems(
        served, wl.rows, server.outputs))
    outcome.check("certificate", checks.bound_problems(served, wl.rows))

    # per model the mean over the run's repetitions, then the mean over the
    # models: on a shared host the mean repeats across runs better than the
    # fastest of a few repetitions does
    per_model = defaultdict(list)
    for (m, j), w in runner.walls.items():
        per_model[models[m].stages[j].metric].append(statistics.fmean(w))
    walls = {k: statistics.fmean(v) for k, v in per_model.items()}
    for m in sorted(walls):
        print(f"@@ stage {m}={walls[m]!r} s")
    missing = [s.metric for s in wl.stages if s.metric not in walls]
    if missing:
        outcome.check("metrics", [f"no timing for {missing}"])
        return emit(outcome, {}, out_dir, {"env": env})
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "certify_s": (walls["certify_s"], "s"),
        "pipeline_s": (sum(walls.values()), "s"),
        "serve_p50_ms": (server.p50_ms(), "ms"),
        "serve_p90_ms": (server.p90_ms(), "ms"),
        "serve_rows_per_s": (server.rows_per_s(), "rows/s"),
    }
    return emit(outcome,
                {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                out_dir, {"env": env, "passes": passes, "seeds": seeds,
                          "prepare_s": prepare_s, "stage_walls_s": walls,
                          "setup_rounds": setup,
                          "serve_requests": server.done,
                          "stage_samples_s": {
                              f"{models[m].stages[j].metric}@model{m}": w
                              for (m, j), w in runner.walls.items()}})
