"""Repeat benchmark runs over consecutive seeds and summarise them.

    python3 perfbench/report.py --seeds 10 --first-seed 1 [--workloads cli_outputs ...]
                                [--traced] [--label NAME] [--out FILE]

For each workload it runs run.py once per seed with --trace 0 and prints
one row per end-to-end metric: the median and quartiles across the runs
(statistics.quantiles, n=4), the spread (q3 - q1) / median, and the bound
from BENCHMARK.json.  With --traced it adds one traced run per workload
at the default seed and prints each layer's self time and its share of
the traced time.  --out writes the whole summary as JSON; baseline.json
is such a file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, WORKLOADS  # noqa: E402
from tracer import LAYERS  # noqa: E402


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def spread_row(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--label", default="", help="free text stored with the summary")
    parser.add_argument("--out", type=Path, help="write the summary JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"label": args.label, "seconds": args.seconds, "end_to_end": {}, "per_layer": {}}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, lines = run_once(workload, seed, args.seconds, 0)
            runs.append(result)
            summary.setdefault("env", next((ln[4:] for ln in lines if ln.startswith("env ")), ""))
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} " + " ".join(
                      f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        rows = {}
        for name, bound in bounds.items():
            rows[name] = {**spread_row([r["metrics"][name]["value"] for r in runs]), "bound": bound,
                          "unit": runs[0]["metrics"][name]["unit"]}
        rows["fail_frac"] = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        summary["end_to_end"][workload] = rows
        if args.traced:
            result, _ = run_once(workload, DEFAULT_SEED, args.seconds, 1)
            summary["per_layer"][workload] = {k: m["value"] for k, m in result["metrics"].items()}

    print(f"\n{'workload':18s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}")
    for workload, rows in summary["end_to_end"].items():
        for name, row in rows.items():
            if name == "fail_frac":
                print(f"{workload:18s} fail_frac    {row:10.4g}")
                continue
            print(f"{workload:18s} {name:12s} {row['median']:10.4g} {row['q1']:10.4g} {row['q3']:10.4g} "
                  f"{row['spread']:7.3f} {row['bound']:6.2f} {row['unit']}")
    for workload, metrics in summary["per_layer"].items():
        print(f"\n{workload}: traced per-layer self time per pass (seed {DEFAULT_SEED}), "
              f"tracing overhead {metrics['trace.overhead_frac']:+.1%}")
        for layer in sorted(LAYERS, key=lambda name: -metrics[f"{name}.share"]):
            print(f"  {layer:9s} self_s {metrics[f'{layer}.self_s']:9.4f} s  share "
                  f"{metrics[f'{layer}.share']:6.1%}  calls {metrics[f'{layer}.calls']:7.0f}  "
                  f"errors {metrics[f'{layer}.errors']:.0f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
