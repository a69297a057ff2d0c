"""Every benchmark workload's stages, run in-process at seed 0.

The benchmark (perfbench/) runs each CLI stage as a fresh process and
reaches into the library beyond the CLI: workloads.py builds and loads
models through manifest, harness.py checks select against
controller.select_runtime, and checks.py re-derives served logits and
bounds. Here the same stages run through cli.main and the same checks
run on their outputs, so a change to any of that API fails tier-1
rather than the benchmark. Nothing is timed."""

import contextlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from elastiq import cli, network  # noqa: E402

SEED = 0
SERVED_ROWS = 16


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_stages_and_serving(tmp_path, name):
    workloads.setup_inputs(name, tmp_path, SEED)
    workloads.prepare(name, tmp_path)
    wl = workloads.build(name, tmp_path, SEED)
    for stage in wl.stages:
        argv = stage.argv()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code == cli.EXIT_OK, (argv, err.getvalue())
        if stage.check_select:
            assert harness.select_problems(
                Path(argv[1]), out.getvalue().encode("ascii")) == []

    served = workloads.load_served(wl)
    rows = wl.rows[:SERVED_ROWS]
    # one row per request, as the benchmark serves them
    outputs = {j: [(i, network.forward(served.net, row, pairs).logits)
                   for i, row in enumerate(rows)]
               for j, pairs in enumerate(served.profiles)}
    assert checks.served_logits_problems(served, rows, outputs) == []
    assert checks.bound_problems(served, rows) == []
