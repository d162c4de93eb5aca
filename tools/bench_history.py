"""Print the chain of moves per workload and metric across the `BENCH_*.json` files.

Each file is the JSON list of records that `tools/bench_pairs.py --label L`
appends to `BENCH_L.json`.  The reader takes every `BENCH_*.json` in the
repository root (or the files named on the command line) in the natural
order of their labels (pr9 before pr10), and prints, per workload and
metric, one line per record: the label, seed, the CPUs the runs had,
the pair count, the parent's median and quartiles, the change's median,
the move and the pairs the change won.  Moves are not compounded: a
chain mixes A/A records, repeated runs of one change and runs on
different CPU sets, whose product means nothing.  Standard library only.

    python tools/bench_history.py
    python tools/bench_history.py BENCH_pr41.json BENCH_pr42.json
"""

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def label(path: Path) -> str:
    return path.stem.removeprefix("BENCH_")


def natural_key(path: Path):
    """pr9 before pr10: digit runs compare as numbers."""
    return [int(part) if part.isdigit() else part for part in re.split(r"(\d+)", label(path))]


def chains(paths) -> dict:
    """{(workload, metric): [(label, record, that record's metric entry), ...]} in label order."""
    out = {}
    for path in sorted(paths, key=natural_key):
        for record in json.loads(path.read_text()):
            for name, metric in record["metrics"].items():
                out.setdefault((record["workload"], name), []).append((label(path), record, metric))
    return out


def history_lines(paths) -> list[str]:
    lines = []
    for (workload, name), steps in chains(paths).items():
        lines.append(f"{workload} {name} ({steps[0][2]['unit']})")
        for lab, record, m in steps:
            q1, q3 = m["parent_quartiles"]
            move = "n/a" if m["move"] is None else format(m["move"], "+.1%")
            cpus = ",".join(map(str, record["cpus"]))
            lines.append(f"  {lab:12s} seed={record['seed']} cpus={cpus} pairs={record['pairs']}  "
                         f"{m['parent_median']:.4g} [{q1:.4g}, {q3:.4g}] -> {m['change_median']:.4g}  {move}  "
                         f"change won {m['change_won']}/{record['pairs']}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    paths = [Path(arg) for arg in argv] or sorted(ROOT.glob("BENCH_*.json"))
    if not paths:
        print("bench_history: no BENCH_*.json files", file=sys.stderr)
        return 1
    print("\n".join(history_lines(paths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
