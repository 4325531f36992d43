#!/usr/bin/env python3
"""lblift benchmark: three closed-loop workloads, one process per workload.

    python3 perfbench/run.py --workload hybrid2d_nce --seed 0 --trace 0
    python3 perfbench/run.py --workload all --trace 1

A run repeats its workload for about ``--seconds`` seconds (at least once),
checks the outputs of the first repetition against references computed in
the same run, and prints a report followed, as the last line, by one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` untraced and traced repetitions alternate and the metrics
are the per-layer ones, including the tracing overhead.  ``--workload all``
runs each workload in a child process, one after another.

The exit status is 0 when every check passed, 1 when a check or an operation
failed, and 2 when the library sources cannot be found.  The library is
imported from ``src/`` next to this directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

# Every workload is one closed-loop client on one core.  With more than one
# BLAS thread the pool spins on the second core between calls; the only
# sizeable BLAS call, a 400x400 solve in hybrid1d_cr, is no faster for it,
# and the run-to-run spread is wider.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "lblift" / "__init__.py").is_file():
        print(f"error: lblift sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import lblift
    if Path(lblift.__file__).resolve().parent.parent != SRC:
        print(f"error: imported lblift from {lblift.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_report(report, bool(args.trace))
    return 0 if report["correct"] else 1


def _parser():
    def non_negative(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=non_negative, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process; return metrics, checks and counts.

    Repetitions start while the previous one's duration still fits in the
    remaining time.  The first repetition is untraced and carries the output
    checks; in trace mode traced and untraced repetitions then alternate
    until at least one of each exists, so the tracing overhead is measured
    under the same conditions as the figures it is subtracted from.
    """
    import tracer
    import workloads

    inputs = workloads.make_inputs(workload, seed)
    plain, traced, layers = [], [], []
    crashed = []
    start = perf_counter()
    last_wall = 0.0
    while (not plain or (trace and not traced)
           or perf_counter() - start + last_wall <= seconds):
        use_tracer = trace and len(traced) < len(plain)
        began = perf_counter()
        try:
            if use_tracer:
                with tracer.Tracer() as spans:
                    rep = workloads.run_rep(workload, inputs, check=False)
                layers.append(tracer.layer_metrics(spans.spans, rep.wall_s))
                traced.append(rep)
            else:
                rep = workloads.run_rep(workload, inputs, check=not plain)
                plain.append(rep)
        except Exception as exc:  # an operation failed: report, do not hide
            crashed.append(f"{type(exc).__name__}: {exc}")
            break
        last_wall = perf_counter() - began
    measured_s = perf_counter() - start

    reps = plain + traced
    failures = [msg for rep in reps for msg in rep.failures] + crashed
    first = reps[0] if reps else None
    for k, rep in enumerate(reps[1:], start=1):
        if not (pickle.dumps(rep.output) == pickle.dumps(first.output)
                and (rep.lbm_steps_setup, rep.lbm_steps_lifting)
                == (first.lbm_steps_setup, first.lbm_steps_lifting)):
            failures.append(f"repetition {k} differs from the first "
                            "(outputs or LBM step counts)")
    counts = [k for k, v in layers[0].items() if isinstance(v, int)] \
        if layers else []
    for name in counts:
        if len({layer[name] for layer in layers}) > 1:
            failures.append(f"per-layer count {name} differs between "
                            "traced repetitions")
    checks = first.checks if first else []
    known = [msg for rep in reps for msg in rep.known_failures]
    attempted = max(1, sum(rep.attempted for rep in reps) + len(crashed))
    failed = len(failures) + sum(1 for check in checks if not check[1])

    report = {
        "workload": workload, "seed": seed, "measured_s": measured_s,
        "untraced_reps": len(plain), "traced_reps": len(traced),
        "checks": checks, "failures": failures, "known_failures": known,
        "correct": bool(reps) and failed == 0,
        "attempted": attempted, "failed": failed,
        "fail_ratio": (failed + len(known)) / attempted,
    }
    if not plain:
        return report
    # Step percentiles are taken within each repetition, then the median over
    # repetitions is reported.  Pooling would put the sweep's median on the
    # boundary between two models' times, i.e. on the extremes of both.
    deciles = [statistics.quantiles([1e3 * s for s in rep.step_s], n=10,
                                    method="inclusive") for rep in plain]
    report["step_samples"] = (len(plain), len(first.step_s))
    report["end_to_end"] = {
        "setup_s": statistics.median(rep.setup_s for rep in plain),
        "run_s": statistics.median(rep.run_s for rep in plain),
        "step_ms_p50": statistics.median(d[4] for d in deciles),
        "step_ms_p90": statistics.median(d[8] for d in deciles),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "lbm_steps_extra": first.lbm_steps_setup + first.lbm_steps_lifting,
    }
    report["wall_run_s"] = statistics.median(rep.wall_s for rep in plain)
    per_layer = {
        "lbm_steps_setup": first.lbm_steps_setup,
        "lbm_steps_lifting": first.lbm_steps_lifting,
        "fail_ratio": report["fail_ratio"],
        "hybrid_max_error": first.hybrid_max_error,
        "pde_max_error": first.pde_max_error,
        "host.slowdown": statistics.median(rep.wall_s / rep.run_s
                                           for rep in plain),
    }
    if layers:
        per_layer.update(tracer.median_metrics(layers))
        traced_run = statistics.median(rep.run_s for rep in traced)
        per_layer["trace.traced_run_s"] = traced_run
        per_layer["trace.overhead_pct"] = 100.0 * (
            traced_run / report["end_to_end"]["run_s"] - 1.0)
    report["per_layer"] = per_layer
    return report


# Figures of the whole run that BENCHMARK.json can only list as per-layer,
# because they read 0 on some workload; the untraced report shows them too.
RUN_FIGURES = ("lbm_steps_setup", "lbm_steps_lifting", "fail_ratio",
               "hybrid_max_error", "pde_max_error")


def _print_report(report: dict, trace: bool) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"{report['untraced_reps']} untraced + {report['traced_reps']} "
          f"traced repetitions in {report['measured_s']:.1f} s  "
          f"({os.cpu_count()} CPUs, 1 BLAS thread)")
    section = "per_layer" if trace else "end_to_end"
    values = report.get(section, {})
    units = {m["name"]: m["unit"]
             for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    shown = list(values)
    if not trace and "per_layer" in report:
        shown += RUN_FIGURES
        values = {**values, **report["per_layer"]}
        reps, per_rep = report["step_samples"]
        print(f"  (step percentiles: median over {reps} repetitions of "
              f"{per_rep} steps each; a step is "
              + ("one model's train + augment + extract" if report["workload"]
                 == "train_sweep" else "one hybrid_step call") + ")")
        print(f"  (times at reference speed, see speed.py; median wall time "
              f"to solution {report['wall_run_s']:.4g} s)")
    for name in shown:
        print(f"  {name:<48} {values[name]:>14.6g} {units[name]}")
    for name, ok, detail in report["checks"]:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    if report["known_failures"]:
        print(f"known defect, {len(report['known_failures'])} times: "
              f"{report['known_failures'][0]}")
    for message in report["failures"]:
        print(f"FAILURE {message}")
    missing = [m["name"] for m in SPEC[section] if m["name"] not in values]
    if report["correct"] and missing:
        raise RuntimeError(f"benchmark produced no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in SPEC[section] if m["name"] in values}
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


def _run_all(args) -> int:
    """Each workload in its own child process, one at a time."""
    status = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(child.stdout, end="")
        status = max(status, child.returncode)
        lines = child.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary["correct"] = False
            continue
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return status


if __name__ == "__main__":
    sys.exit(main())
