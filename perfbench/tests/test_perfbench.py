"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They check that count metrics repeat exactly, that the constrained-runs
lifting cost agrees with the ``cost.csv`` that ``lblift cost`` writes, and
that a broken output is reported as a failure.  Each run uses ``--seconds 0``:
the fewest repetitions the mode allows.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "steps", "cells", "B"}


def _run(*args, code=None):
    """Run the benchmark, or a snippet that calls it; return status, JSON."""
    if code is None:
        command = [sys.executable, str(BENCH / "run.py"), *args]
    else:
        command = [sys.executable, "-c", code, *args]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=False)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1]), \
        proc.stdout


def _counts(metrics, section):
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    return {name: m["value"] for name, m in metrics.items()
            if units[name] in COUNT_UNITS}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_count_metrics_repeat_exactly(workload):
    for trace, section in (("1", "per_layer"), ("0", "end_to_end")):
        runs = [_run("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", trace) for _ in range(2)]
        for status, result, _ in runs:
            assert status == 0 and result["correct"]
        first, second = (_counts(r[1]["metrics"], section) for r in runs)
        assert first and first == second


def test_cr_lifting_steps_match_cost_csv(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "lblift.cli", "cost", "--config",
         str(ROOT / "demos" / "configs" / "cost_cr_cubic.cfg"),
         "--out", str(tmp_path)],
        env=env, check=True, capture_output=True, timeout=170)
    with open(tmp_path / "cost.csv", newline="") as handle:
        row = next(csv.DictReader(handle))
    status, result, _ = _run("--workload", "hybrid1d_cr", "--seed", "0",
                             "--seconds", "0", "--trace", "1")
    assert status == 0
    metrics = result["metrics"]
    lifting = int(row["lbm_steps_lifting"])
    assert metrics["lbm_steps_lifting"]["value"] == lifting
    assert metrics["constrained_runs.cr_lift.calls"]["value"] \
        == int(row["lifts_performed"])


def test_default_seed_is_the_demo_density():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import numpy as np, lblift.bench as bench, workloads\n"
        "for name in workloads.HYBRID_CONFIGS:\n"
        "    text, rho = workloads.make_inputs(name, 0)\n"
        "    assert np.array_equal(rho, bench.initial_density("
        "bench.parse_config(text))), name\n")
    subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(BENCH)],
                   check=True, timeout=60)


# Each case corrupts one library output on its way to the benchmark; the
# benchmark's own check must catch it, count it and exit non-zero.
BROKEN = {
    "train_sweep": (
        "import lblift.training as t\n"
        "extract = t.extract_pde\n"
        "def broken(*a, **k):\n"
        "    pde = extract(*a, **k)\n"
        "    return type(pde)(pde.advection, pde.diffusion + 1e-3)\n"
        "t.extract_pde = broken\n"),
    "hybrid1d_cr": (
        "import lblift.hybrid as h\n"
        "ftcs = h.ftcs_step\n"
        "h.ftcs_step = lambda *a, **k: ftcs(*a, **k) * (1 + 1e-4)\n"),
}


@pytest.mark.parametrize("workload", sorted(BROKEN))
def test_broken_output_is_reported_as_failure(workload):
    code = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, "
            f"{str(BENCH)!r}]\n" + BROKEN[workload]
            + "import run\nsys.exit(run.main(sys.argv[1:]))\n")
    status, result, stdout = _run("--workload", workload, "--seconds", "0",
                                  code=code)
    assert status == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "check FAIL" in stdout
