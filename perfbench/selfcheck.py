"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py

1. In process, for each workload, the first three operations of pass 0
   and the known-defect probe run under the tracer.  It asserts that the
   results pass their checks, that spans nest (each child inside its
   parent, same operation id) with no negative self time, that the layer
   self times cover the traced time to within tracer.UNATTRIBUTED_MAX,
   that an exception is counted once per layer it leaves, and that
   restore() puts the original functions back.
2. Through run.py, every workload with --trace 0 and --trace 1 at
   --seconds 1: the last line is the JSON result, every metric named in
   BENCHMARK.json is there with its unit and a finite value, and the run
   is correct.

Exits non-zero on the first failed assertion.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_runs" / "selfcheck"


def check(condition, message):
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")


def check_tracing():
    sys.path.insert(0, str(HERE))
    import worker

    fvps = worker.import_fvps()
    import tracer as tracer_mod
    import workloads

    original = fvps.wigner.wigner_even
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(1, WORKDIR / name)
        tracer = tracer_mod.Tracer()
        tracer.install()
        check(fvps.wigner.wigner_even is not original and fvps.cli.wigner_even is fvps.wigner.wigner_even,
              "install() must rebind every fvps attribute that holds the function")
        probe_failures = 0
        try:
            for i, op in enumerate(workload.pass_ops(0)[:3]):
                arg = workload.prepare(op)
                with tracer.root("op", f"0.{i}"):
                    result = workload.run(arg)
                problems = workload.check(op, result)
                check(not problems, f"{name} {op[0]}: {problems}")
            if workload.probe:
                with tracer.root("probe", "0.probe"):
                    probe_failures = int(workload.probe() is not None)
        finally:
            tracer.restore()
            shutil.rmtree(WORKDIR / name, ignore_errors=True)
        check(fvps.wigner.wigner_even is original and fvps.cli.wigner_even is original,
              "restore() must put the original functions back")
        per_name, problems = tracer.summary()
        check(not problems, f"{name}: span problems {problems[:3]}")
        roots = sum(v["total_s"] for k, v in per_name.items() if k in ("op", "probe"))
        layer_self = sum(v["self_s"] for k, v in per_name.items() if k.split(".")[0] in tracer_mod.LAYERS)
        unattributed = 1.0 - layer_self / roots
        check(0.0 <= unattributed <= tracer_mod.UNATTRIBUTED_MAX,
              f"{name}: {unattributed:.2%} of traced time outside layer spans")
        cli_errors = sum(v["errors"] for k, v in per_name.items() if k.startswith("cli."))
        check(cli_errors == probe_failures,
              f"{name}: cli.errors {cli_errors} != failed probes {probe_failures}")
        print(f"tracing {name}: {len(tracer.spans)} spans nest, {unattributed:.2%} unattributed, "
              f"cli.errors {cli_errors}")


def check_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            check(proc.returncode == 0, f"{cmd} exited {proc.returncode}: {proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace={trace}: {result['failed']}/{result['attempted']} failed")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            check(got == expected[trace], f"{workload} trace={trace}: metric names or units differ "
                  f"from BENCHMARK.json: {sorted(set(got) ^ set(expected[trace]))}")
            check(all(math.isfinite(m["value"]) for m in result["metrics"].values()),
                  f"{workload} trace={trace}: a metric is not finite")
            print(f"run.py {workload} --trace {trace}: {len(got)} metrics with units, "
                  f"{result['attempted']} ops correct")


if __name__ == "__main__":
    check_tracing()
    check_runs()
    print("selfcheck passed")
