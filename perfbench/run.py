"""fvps benchmark: one closed-loop workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload cli_outputs --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; fvps is imported from its src/.
The script itself imports neither numpy nor fvps.  It starts the measured
process (worker.py) once for the timed loop and SETUP_SAMPLES more times
to time set-up alone, then prints a readable report followed, as the last
line, by one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer ones from a traced half of the run.
See perfbench/README.md for the workloads, metrics and seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import layer_metric_units  # noqa: E402  (stdlib only)

WORKLOADS = ("cli_outputs", "packet_analysis", "operator_algebra")
DEFAULT_SEED = 20020206
# Reserved for confirming a claimed gain; never used while tuning a change.
HELDOUT_SEED = 6050

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 5
# One BLAS thread: on the 2-core reference machine, two threads made the
# small dense eig and matmul calls of operator_algebra about 1.5x slower
# and their run-to-run spread several times wider.
BLAS_THREADS = "1"
DEADLINE_S = 170.0


def worker(args, *extra, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(args, raw, setup_samples, metrics):
    phase = raw["untraced"]
    env = raw["env"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("setup_s wall samples " + ", ".join(f"{p['setup_s']:.4f}" for p in setup_samples)
          + "; speed factors " + ", ".join(f"{p['factor']:.3f}" for p in setup_samples))
    print(f"warmup_s {raw['warmup_s']:.4f} s (one small op of each kind; not in setup_s or run_s)")
    print(f"{phase['passes']} passes, {phase['ops']} ops; op_s_tail is p{phase['tail_percentile']:.1f}"
          + (" (10 ops beyond it)" if phase["ops"] > 10 else " (the maximum; fewer than 11 ops)"))
    print(f"fail_frac {len(phase['failures']) / phase['attempted']:.4g} "
          f"({len(phase['failures'])}/{phase['attempted']} ops)")
    for failure in phase["failures"][:10]:
        print(f"  FAILED {failure}")
    wall = phase["wall"]
    print(f"wall (uncalibrated): run_s {wall['run_s']:.4f} s, op_s_p50 {wall['op_s_p50']:.4f} s, "
          f"op_s_tail {wall['op_s_tail']:.4f} s; pass wall time "
          + ", ".join(f"{t:.2f}" for t in phase["pass_wall_s"]) + " s; speed factor median per pass "
          + ", ".join(f"{statistics.median(f):.3f}" for f in phase["factors"]))
    if phase["probe_runs"]:
        failures = phase["probe_failures"]
        print(f"known-defect probe `entangle --jobs 2` (not in the timed mix): "
              f"{len(failures)}/{phase['probe_runs']} failed" + (f": {failures[0]}" if failures else ""))
    if args.trace:
        traced = raw["traced"]
        print(f"traced {traced['passes']} passes: {traced['traced_s']:.4f} s/pass traced, "
              f"{traced['unattributed_frac']:.2%} outside layer spans; spans in {traced['spans_file']}")
        for problem in traced["trace_problems"][:10]:
            print(f"  TRACE {problem}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fvps" / "__init__.py").is_file():
        print(f"perfbench: no fvps package under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    try:
        setup_samples = [worker(args, "--setup-only", timeout=60) for _ in range(SETUP_SAMPLES)]
        raw = worker(args, "--seconds", str(args.seconds), "--trace", str(args.trace),
                     timeout=DEADLINE_S - (time.monotonic() - start))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    with open(ROOT / ".perfbench_runs" / f"raw-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"setup": setup_samples, **raw}, fh)
    phases = [raw["untraced"]] + ([raw["traced"], raw["memory"]] if args.trace else [])
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(len(p["failures"]) for p in phases)
    if args.trace:
        units = layer_metric_units()
        values = raw["traced"]["layers"]
    else:
        units = END_TO_END_UNITS
        values = {
            "setup_s": statistics.median(p["setup_s"] / p["factor"] for p in setup_samples),
            "peak_rss_mb": raw["peak_rss_mb"],
            **{k: raw["untraced"][k] for k in ("run_s", "op_s_p50", "op_s_tail")},
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report(args, raw, setup_samples, metrics)
    correct = failed == 0 and not (args.trace and raw["traced"]["trace_problems"])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
